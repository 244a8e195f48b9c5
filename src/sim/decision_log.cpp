#include "sim/decision_log.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace eotora::sim {

DecisionRow make_decision_row(const core::SlotState& state,
                              const core::DppSlotResult& slot) {
  DecisionRow row;
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

void write_decision_row(std::ostream& os, const DecisionRow& row) {
  os << row.slot << ',' << row.price << ',' << row.latency << ','
     << row.energy_cost << ',' << row.theta << ',' << row.queue << ','
     << row.mean_ghz << ',' << row.min_ghz << ',' << row.max_ghz << '\n';
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
    out_ << kDecisionLogHeader << '\n';
  }
  write_decision_row(out_, make_decision_row(state, slot));
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
