// Per-slot decision logging to CSV for post-hoc analysis/plotting.
//
// Columns: slot, price, latency, energy_cost, theta, queue, mean_ghz,
// min_ghz, max_ghz — one row per simulated slot, at precision 17 so every
// double round-trips. DecisionLogWriter is the one file writer: it streams
// rows to disk one at a time.
#pragma once

#include <fstream>
#include <ostream>
#include <string>

#include "core/dpp.h"

namespace eotora::sim {

// One logged slot.
struct DecisionRow {
  std::size_t slot = 0;
  double price = 0.0;
  double latency = 0.0;
  double energy_cost = 0.0;
  double theta = 0.0;
  double queue = 0.0;
  double mean_ghz = 0.0;
  double min_ghz = 0.0;
  double max_ghz = 0.0;

  bool operator==(const DecisionRow& other) const = default;
};

// Builds one row from a simulated slot (frequency summary included).
[[nodiscard]] DecisionRow make_decision_row(const core::SlotState& state,
                                            const core::DppSlotResult& slot);

// The CSV header line, without its newline.
inline constexpr const char* kDecisionLogHeader =
    "slot,price,latency,energy_cost,theta,queue,mean_ghz,min_ghz,max_ghz";

// Writes one CSV line; the stream must already carry precision(17).
void write_decision_row(std::ostream& os, const DecisionRow& row);

// Streams decision rows straight to disk in O(1) memory. The file is
// created and the header written on the first record() (an unused writer
// leaves no file behind); close() flushes and verifies the write.
class DecisionLogWriter {
 public:
  explicit DecisionLogWriter(std::string path);
  ~DecisionLogWriter();

  DecisionLogWriter(const DecisionLogWriter&) = delete;
  DecisionLogWriter& operator=(const DecisionLogWriter&) = delete;

  // Appends one row. Throws std::runtime_error when the file cannot be
  // opened.
  void record(const core::SlotState& state, const core::DppSlotResult& slot);

  // Flushes and closes, throwing std::runtime_error on write failure.
  // Idempotent; requires at least one recorded row.
  void close();

  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
  bool closed_ = false;
};

}  // namespace eotora::sim
