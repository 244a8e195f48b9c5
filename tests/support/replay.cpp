#include "support/replay.h"

#include <algorithm>
#include <cmath>

#include "sim/simulator.h"
#include "util/check.h"

namespace eotora::des {

ReplayReport replay_log(const core::Instance& instance,
                        sim::StateSource& source, sim::Policy& policy,
                        const sim::DecisionLog& log,
                        const ReplayConfig& config) {
  EOTORA_REQUIRE_MSG(log.rows() > 0, "cannot replay an empty decision log");

  HorizonConfig static_config;
  static_config.discipline = SharingDiscipline::kStaticShares;
  static_config.arrivals = config.arrivals;
  static_config.arrival_rate = config.arrival_rate;
  static_config.arrival_seed = config.arrival_seed;
  static_config.record_events = config.record_events;
  static_config.keep_tasks = config.keep_tasks;
  HorizonConfig ps_config = static_config;
  ps_config.discipline = SharingDiscipline::kProcessorSharing;

  FlowSimulator static_sim(instance, static_config);
  FlowSimulator ps_sim(instance, ps_config);

  ReplayReport report;
  report.slots.reserve(log.rows());
  const auto& rows = log.entries();
  std::size_t stream_slots = 0;
  const auto cross_check = [&](const core::SlotState& state,
                               const core::DppSlotResult& slot, double) {
    // Slots past the log are only counted, for the length check below.
    if (stream_slots++ >= rows.size()) return;
    ReplaySlot replayed;
    replayed.slot = report.slots.size();
    replayed.expected = rows[replayed.slot];
    replayed.actual = sim::make_decision_row(state, slot);
    replayed.row_matches = replayed.actual == replayed.expected;
    if (!replayed.row_matches) ++report.mismatched_rows;

    static_sim.push_slot(state, slot.decision);
    ps_sim.push_slot(state, slot.decision);
    report.slots.push_back(replayed);
  };
  (void)sim::run_policy(policy, source, config.seed, /*keep_series=*/false,
                        cross_check);
  EOTORA_REQUIRE_MSG(stream_slots == rows.size(),
                     "state stream has " << stream_slots
                                         << " slots but the log has "
                                         << rows.size());

  report.static_horizon = static_sim.finish();
  report.ps_horizon = ps_sim.finish();
  EOTORA_ASSERT(report.static_horizon.slots.size() == report.slots.size());
  EOTORA_ASSERT(report.ps_horizon.slots.size() == report.slots.size());

  for (std::size_t t = 0; t < report.slots.size(); ++t) {
    ReplaySlot& replayed = report.slots[t];
    const SlotGap& fixed = report.static_horizon.slots[t];
    const SlotGap& shared = report.ps_horizon.slots[t];
    replayed.analytic = fixed.analytic;
    replayed.realized_static = fixed.realized;
    replayed.realized_ps = shared.realized;
    replayed.max_device_gap_static = fixed.max_device_gap;
    replayed.log_latency_gap =
        std::abs(fixed.realized - replayed.expected.latency);
    replayed.spillovers_ps = shared.spillovers;
    report.max_static_device_gap =
        std::max(report.max_static_device_gap, fixed.max_device_gap);
    report.max_log_latency_gap =
        std::max(report.max_log_latency_gap, replayed.log_latency_gap);
  }
  return report;
}

}  // namespace eotora::des
