#include "support/decision_log.h"

#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace eotora::sim {

void DecisionLog::record(const core::SlotState& state,
                         const core::DppSlotResult& slot) {
  rows_.push_back(make_decision_row(state, slot));
}

std::string DecisionLog::to_csv() const {
  EOTORA_REQUIRE_MSG(!rows_.empty(), "decision log is empty");
  std::ostringstream oss;
  oss.precision(17);
  oss << kDecisionLogHeader << '\n';
  for (const Row& row : rows_) write_decision_row(oss, row);
  return oss.str();
}

DecisionLog DecisionLog::from_csv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("DecisionLog::from_csv: empty input");
  }
  if (line != kDecisionLogHeader) {
    throw std::invalid_argument("DecisionLog::from_csv: bad header '" + line +
                                "'");
  }
  DecisionLog log;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;  // tolerate a trailing newline
    std::vector<std::string> fields;
    std::string field;
    std::istringstream row_stream(line);
    while (std::getline(row_stream, field, ',')) fields.push_back(field);
    if (fields.size() != 9) {
      throw std::invalid_argument(
          "DecisionLog::from_csv: line " + std::to_string(line_number) +
          " has " + std::to_string(fields.size()) + " fields, expected 9");
    }
    const auto parse_double = [&](std::size_t index) {
      std::size_t consumed = 0;
      double value = 0.0;
      try {
        value = std::stod(fields[index], &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != fields[index].size() || fields[index].empty()) {
        throw std::invalid_argument("DecisionLog::from_csv: line " +
                                    std::to_string(line_number) +
                                    ": bad number '" + fields[index] + "'");
      }
      return value;
    };
    Row row;
    const double slot = parse_double(0);
    if (slot < 0.0 || slot != static_cast<double>(
                                  static_cast<std::size_t>(slot))) {
      throw std::invalid_argument("DecisionLog::from_csv: line " +
                                  std::to_string(line_number) +
                                  ": bad slot '" + fields[0] + "'");
    }
    row.slot = static_cast<std::size_t>(slot);
    row.price = parse_double(1);
    row.latency = parse_double(2);
    row.energy_cost = parse_double(3);
    row.theta = parse_double(4);
    row.queue = parse_double(5);
    row.mean_ghz = parse_double(6);
    row.min_ghz = parse_double(7);
    row.max_ghz = parse_double(8);
    log.rows_.push_back(row);
  }
  return log;
}

}  // namespace eotora::sim
