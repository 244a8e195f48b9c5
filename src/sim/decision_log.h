// Per-slot decision logging to CSV for post-hoc analysis/plotting.
//
// Columns: slot, price, latency, energy_cost, theta, queue, mean_ghz,
// min_ghz, max_ghz — one row per simulated slot. from_csv() parses the
// exact format to_csv() emits (precision 17 round-trips every double), so
// a saved log can be reloaded and compared row-for-row in tests.
//
// DecisionLog accumulates rows in memory; DecisionLogWriter is the one file
// writer: it streams rows to disk one at a time, and its file is
// byte-identical to DecisionLog::to_csv() on the same slots.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "core/dpp.h"

namespace eotora::sim {

class DecisionLog {
 public:
  struct Row {
    std::size_t slot = 0;
    double price = 0.0;
    double latency = 0.0;
    double energy_cost = 0.0;
    double theta = 0.0;
    double queue = 0.0;
    double mean_ghz = 0.0;
    double min_ghz = 0.0;
    double max_ghz = 0.0;

    bool operator==(const Row& other) const {
      return slot == other.slot && price == other.price &&
             latency == other.latency && energy_cost == other.energy_cost &&
             theta == other.theta && queue == other.queue &&
             mean_ghz == other.mean_ghz && min_ghz == other.min_ghz &&
             max_ghz == other.max_ghz;
    }
    bool operator!=(const Row& other) const { return !(*this == other); }
  };

  // Builds one CSV row from a simulated slot (frequency summary included).
  // Shared by record() and DecisionLogWriter so both emit identical rows.
  [[nodiscard]] static Row make_row(const core::SlotState& state,
                                    const core::DppSlotResult& slot);

  void record(const core::SlotState& state, const core::DppSlotResult& slot);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<Row>& entries() const { return rows_; }

  [[nodiscard]] std::string to_csv() const;

  // Inverse of to_csv(): parses header + rows back into a log. Throws
  // std::invalid_argument on a wrong header, a short/long row, or an
  // unparsable field.
  [[nodiscard]] static DecisionLog from_csv(const std::string& csv);

 private:
  std::vector<Row> rows_;
};

// Streams decision rows straight to disk in O(1) memory. The file is
// created and the header written on the first record() (an unused writer
// leaves no file behind); close() flushes and verifies the write. Output is
// byte-identical to DecisionLog::to_csv() on the same slot sequence, so
// DecisionLog::from_csv parses it.
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
