#include "sim/decision_log.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace eotora::sim {

namespace {

constexpr const char* kHeader =
    "slot,price,latency,energy_cost,theta,queue,mean_ghz,min_ghz,max_ghz";

// The stream must already carry precision(17).
void append_row(std::ostream& os, const DecisionLog::Row& row) {
  os << row.slot << ',' << row.price << ',' << row.latency << ','
     << row.energy_cost << ',' << row.theta << ',' << row.queue << ','
     << row.mean_ghz << ',' << row.min_ghz << ',' << row.max_ghz << '\n';
}

}  // namespace

DecisionLog::Row DecisionLog::make_row(const core::SlotState& state,
                                       const core::DppSlotResult& slot) {
  Row row;
  row.slot = state.slot;
  row.price = state.price_per_mwh;
  row.latency = slot.latency;
  row.energy_cost = slot.energy_cost;
  row.theta = slot.theta;
  row.queue = slot.queue_after;
  const auto& freq = slot.decision.frequencies;
  EOTORA_REQUIRE(!freq.empty());
  row.min_ghz = *std::min_element(freq.begin(), freq.end());
  row.max_ghz = *std::max_element(freq.begin(), freq.end());
  double sum = 0.0;
  for (double w : freq) sum += w;
  row.mean_ghz = sum / static_cast<double>(freq.size());
  return row;
}

void DecisionLog::record(const core::SlotState& state,
                         const core::DppSlotResult& slot) {
  rows_.push_back(make_row(state, slot));
}

std::string DecisionLog::to_csv() const {
  EOTORA_REQUIRE_MSG(!rows_.empty(), "decision log is empty");
  std::ostringstream oss;
  oss.precision(17);
  oss << kHeader << '\n';
  for (const Row& row : rows_) append_row(oss, row);
  return oss.str();
}

DecisionLog DecisionLog::from_csv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("DecisionLog::from_csv: empty input");
  }
  if (line != kHeader) {
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

DecisionLogWriter::DecisionLogWriter(std::string path)
    : path_(std::move(path)) {}

DecisionLogWriter::~DecisionLogWriter() {
  if (!closed_ && rows_ > 0) {
    out_.flush();  // best effort; use close() for checked completion
  }
}

void DecisionLogWriter::record(const core::SlotState& state,
                               const core::DppSlotResult& slot) {
  EOTORA_REQUIRE_MSG(!closed_,
                     "DecisionLogWriter('" << path_ << "') is closed");
  if (rows_ == 0) {
    out_.open(path_);
    if (!out_) {
      throw std::runtime_error("DecisionLogWriter: cannot open '" + path_ +
                               "'");
    }
    out_.precision(17);
    out_ << kHeader << '\n';
  }
  append_row(out_, DecisionLog::make_row(state, slot));
  ++rows_;
}

void DecisionLogWriter::close() {
  if (closed_) return;
  EOTORA_REQUIRE_MSG(rows_ > 0, "DecisionLogWriter('" << path_
                                                      << "') recorded no rows");
  out_.flush();
  if (!out_) {
    throw std::runtime_error("DecisionLogWriter: write to '" + path_ +
                             "' failed");
  }
  out_.close();
  closed_ = true;
}

}  // namespace eotora::sim
