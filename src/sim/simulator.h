// The slot-driven simulation loop.
//
// run_policy() is the one loop that steps a policy over a state stream:
// batch runs, the CLI's decision log, golden traces, DES replays and the
// serve daemon (serve::ServeLoop, fed from a socket) all drive it, and hook
// their per-slot work in through a SlotObserver. It pulls one slot at a
// time into a reused buffer, so memory stays O(1) in the horizon. To
// compare policies on IDENTICAL inputs (as the paper's Fig. 9 requires),
// drain one MaterializedSource over a pre-drawn state vector per run, or
// reset() it between runs; metrics are bit-for-bit identical to draining a
// ScenarioSource built from the same config.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/counters.h"
#include "core/instance.h"
#include "core/metrics.h"
#include "sim/audit.h"
#include "sim/policy.h"
#include "sim/state_source.h"

namespace eotora::sim {

struct SimulationResult {
  std::string policy_name;
  core::MetricsCollector metrics;
  // Total decision-making time: the summed per-slot policy.step() cost.
  // State generation, prefetch, audit, and metric bookkeeping are excluded,
  // so runs over different sources report comparable numbers.
  double wall_seconds = 0.0;
  // The other two per-slot phases, so a run's time fully decomposes:
  // state_seconds is spent pulling slots from the source (generation,
  // replay parsing, or prefetch wait), audit_seconds inside the auditor.
  double state_seconds = 0.0;
  double audit_seconds = 0.0;
  // Solver effort totals for the whole run, captured from a
  // counters::Scope installed around policy.step() only — audit-time
  // re-solves are excluded. Deterministic for a fixed scenario + seed.
  core::counters::SolverCounters counters;
  // Per-stage breakdown of the decision work (runs, seconds, counters), in
  // stage order — captured from Policy::stage_stats() after the drain.
  // The counters of all stages sum to `counters` above; the seconds are
  // wall-clock and hence not deterministic.
  std::vector<pipeline::StageStats> stages;
  // Populated by the audited overload unless its mode is kOff; empty
  // (clean, 0 slots) otherwise.
  AuditReport audit;
};

// Per-slot hook, called after the slot's audit and metrics record with the
// slot's state, its result and the seconds its step() took. It runs inside
// a "slot/observe" trace span; an exception it throws ends the run.
using SlotObserver =
    std::function<void(const core::SlotState& state,
                       const core::DppSlotResult& result, double step_seconds)>;

// Drains `source` from its current position through `policy` with a
// deterministic rng seed. The policy is reset() first; the source is NOT —
// rewind it yourself if it was already partially consumed. Requires the
// drain to produce at least one slot. With keep_series=false the per-slot
// series are dropped as they stream (aggregates only), making the whole
// run O(1) in the horizon. `observer`, when set, sees every slot.
[[nodiscard]] SimulationResult run_policy(
    Policy& policy, StateSource& source, std::uint64_t seed = 1,
    bool keep_series = true, const SlotObserver& observer = {});

// Same loop, with every slot fed through a SlotAuditor bound to `instance`
// (the mode in `audit` decides how many are actually checked; kOff builds
// no auditor at all). Audit time is excluded from wall_seconds.
[[nodiscard]] SimulationResult run_policy(
    Policy& policy, const core::Instance& instance, StateSource& source,
    const AuditConfig& audit, std::uint64_t seed = 1, bool keep_series = true,
    const SlotObserver& observer = {});

// Convenience: averages of the last `window` slots (the paper averages over
// 48-slot windows in Fig. 9). Requires the per-slot series (a run with
// keep_series=false cannot answer this) and window <= recorded slots;
// violations throw std::invalid_argument naming both values.
struct WindowAverages {
  double latency = 0.0;
  double energy_cost = 0.0;
  double queue = 0.0;
};
[[nodiscard]] WindowAverages tail_averages(const SimulationResult& result,
                                           std::size_t window);

}  // namespace eotora::sim
