#include "core/metrics.h"

#include "util/check.h"

namespace eotora::core {

void MetricsCollector::record(const DppSlotResult& slot) {
  latency_.add(slot.latency);
  cost_.add(slot.energy_cost);
  queue_.add(slot.queue_after);
  theta_.add(slot.theta);
  if (keep_series_) {
    latency_series_.push_back(slot.latency);
    queue_series_.push_back(slot.queue_after);
    cost_series_.push_back(slot.energy_cost);
  }
}

void MetricsCollector::set_keep_series(bool keep) {
  EOTORA_REQUIRE_MSG(slots() == 0,
                     "set_keep_series must be chosen before recording; "
                         << slots() << " slots already recorded");
  keep_series_ = keep;
}

void MetricsCollector::reserve(std::size_t slots) {
  if (!keep_series_) return;
  latency_series_.reserve(slots);
  queue_series_.reserve(slots);
  cost_series_.reserve(slots);
}

}  // namespace eotora::core
