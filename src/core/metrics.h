// Aggregation of per-slot results into the time-averaged quantities the
// paper reports (time-average latency, energy cost, queue backlog).
//
// By default the collector also keeps the raw per-slot series for the
// plotting-style benches and tail-window averages. Long streaming runs can
// disable that with set_keep_series(false): aggregates (means, maxes,
// counts) keep working in O(1) memory, while the series accessors return
// empty vectors.
#pragma once

#include <vector>

#include "core/dpp.h"
#include "util/stats.h"

namespace eotora::core {

class MetricsCollector {
 public:
  void record(const DppSlotResult& slot);

  // Whether record() appends to the per-slot series (default true). Must be
  // chosen before the first slot is recorded; throws std::invalid_argument
  // afterwards.
  void set_keep_series(bool keep);
  [[nodiscard]] bool keeps_series() const { return keep_series_; }

  // Pre-sizes the series when the horizon is known up front. No-op when
  // series are disabled.
  void reserve(std::size_t slots);

  [[nodiscard]] std::size_t slots() const { return latency_.count(); }
  [[nodiscard]] double average_latency() const { return latency_.mean(); }
  [[nodiscard]] double average_energy_cost() const { return cost_.mean(); }
  [[nodiscard]] double average_queue() const { return queue_.mean(); }
  [[nodiscard]] double max_queue() const { return queue_.max(); }
  [[nodiscard]] double average_theta() const { return theta_.mean(); }
  [[nodiscard]] double max_latency() const { return latency_.max(); }

  // Raw per-slot series for plotting-style benches. Empty when
  // set_keep_series(false) was chosen.
  [[nodiscard]] const std::vector<double>& latency_series() const {
    return latency_series_;
  }
  [[nodiscard]] const std::vector<double>& queue_series() const {
    return queue_series_;
  }
  [[nodiscard]] const std::vector<double>& cost_series() const {
    return cost_series_;
  }

 private:
  util::RunningStats latency_;
  util::RunningStats cost_;
  util::RunningStats queue_;
  util::RunningStats theta_;
  bool keep_series_ = true;
  std::vector<double> latency_series_;
  std::vector<double> queue_series_;
  std::vector<double> cost_series_;
};

}  // namespace eotora::core
