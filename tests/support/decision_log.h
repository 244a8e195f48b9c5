// The in-memory decision log tests compare runs with: rows kept in a
// vector, rendered as the CSV DecisionLogWriter writes (to_csv() of the
// same slots is byte-identical to the writer's file) and parsed back.
#pragma once

#include <string>
#include <vector>

#include "sim/decision_log.h"

namespace eotora::sim {

class DecisionLog {
 public:
  using Row = DecisionRow;

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

}  // namespace eotora::sim
