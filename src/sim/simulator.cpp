#include "sim/simulator.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "core/counters.h"
#include "util/check.h"
#include "util/timer.h"
#include "util/trace.h"

namespace eotora::sim {

namespace {

// The one loop both run_policy overloads funnel through. One SlotState
// buffer is reused across the whole drain, so the loop itself allocates
// nothing per slot once the source's shapes have stabilized.
SimulationResult run_policy_stream(Policy& policy,
                                   const core::Instance* instance,
                                   StateSource& source,
                                   const AuditConfig* audit,
                                   std::uint64_t seed, bool keep_series,
                                   const SlotObserver& observer) {
  policy.reset();
  util::Rng rng(seed);
  SimulationResult result;
  result.policy_name = policy.name();
  result.metrics.set_keep_series(keep_series);
  if (keep_series && source.size_hint() != StateSource::kUnknownSize) {
    result.metrics.reserve(source.size_hint());
  }
  std::unique_ptr<SlotAuditor> auditor;
  if (audit != nullptr && audit->mode != AuditMode::kOff) {
    auditor = std::make_unique<SlotAuditor>(*instance, *audit);
  }
  core::SlotState state;
  core::DppSlotResult slot;
  double state_seconds = 0.0;
  double decision_seconds = 0.0;
  double audit_seconds = 0.0;
  util::Timer timer;
  for (;;) {
    // Phase 1: pull the next slot (generation / replay parse / prefetch
    // wait). Timed so streaming runs can attribute source cost.
    bool have_state;
    {
      EOTORA_TRACE_SPAN("slot/state");
      timer.reset();
      have_state = source.next(state);
      state_seconds += timer.elapsed_seconds();
    }
    if (!have_state) break;
    // Phase 2: decide. The counters Scope is installed around step() only,
    // so audit-time re-solves below do not pollute the solver totals.
    double step_seconds;
    {
      EOTORA_TRACE_SPAN("slot/decide");
      const core::counters::Scope scope(result.counters);
      timer.reset();
      slot = policy.step(state, rng);
      step_seconds = timer.elapsed_seconds();
      decision_seconds += step_seconds;
    }
    // Phase 3: audit (optional; excluded from wall_seconds).
    if (auditor != nullptr) {
      EOTORA_TRACE_SPAN("slot/audit");
      timer.reset();
      auditor->observe(state, slot);
      audit_seconds += timer.elapsed_seconds();
    }
    result.metrics.record(slot);
    // Phase 4: the caller's per-slot work (log rows, replies, digests).
    if (observer) {
      EOTORA_TRACE_SPAN("slot/observe");
      observer(state, slot, step_seconds);
    }
  }
  EOTORA_REQUIRE_MSG(result.metrics.slots() > 0,
                     "state source produced no slots");
  result.wall_seconds = decision_seconds;
  result.state_seconds = state_seconds;
  result.audit_seconds = audit_seconds;
  result.stages = policy.stage_stats();
  if (auditor != nullptr) result.audit = auditor->report();
  return result;
}

}  // namespace

SimulationResult run_policy(Policy& policy, StateSource& source,
                            std::uint64_t seed, bool keep_series,
                            const SlotObserver& observer) {
  return run_policy_stream(policy, nullptr, source, nullptr, seed,
                           keep_series, observer);
}

SimulationResult run_policy(Policy& policy, const core::Instance& instance,
                            StateSource& source, const AuditConfig& audit,
                            std::uint64_t seed, bool keep_series,
                            const SlotObserver& observer) {
  return run_policy_stream(policy, &instance, source, &audit, seed,
                           keep_series, observer);
}

WindowAverages tail_averages(const SimulationResult& result,
                             std::size_t window) {
  if (!result.metrics.keeps_series()) {
    throw std::invalid_argument(
        "tail_averages requires the per-slot series, but this run disabled "
        "them (run_policy keep_series=false / "
        "MetricsCollector::set_keep_series(false))");
  }
  const auto& latency = result.metrics.latency_series();
  const auto& cost = result.metrics.cost_series();
  const auto& queue = result.metrics.queue_series();
  EOTORA_REQUIRE(window > 0);
  if (window > latency.size()) {
    throw std::invalid_argument(
        "tail_averages: window=" + std::to_string(window) +
        " exceeds recorded slots=" + std::to_string(latency.size()));
  }
  WindowAverages averages;
  for (std::size_t t = latency.size() - window; t < latency.size(); ++t) {
    averages.latency += latency[t];
    averages.energy_cost += cost[t];
    averages.queue += queue[t];
  }
  const double w = static_cast<double>(window);
  averages.latency /= w;
  averages.energy_cost /= w;
  averages.queue /= w;
  return averages;
}

}  // namespace eotora::sim
