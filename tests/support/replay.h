// DecisionLog-driven differential replay: re-executes an audited run
// slot-by-slot and cross-checks three layers against each other.
//
// replay_log() drives the SAME policy construction through sim::run_policy
// over the state stream the original run consumed, with the recording's
// rng seed, and for every slot:
//
//   1. rebuilds the DecisionLog row from the re-derived slot result and
//      compares it BIT-FOR-BIT against the recorded row (Row::operator==) —
//      any drift in the decision pipeline shows up as a row mismatch;
//   2. feeds the slot's state + decision to two multi-slot FlowSimulators,
//      one per sharing discipline, so the realized flow-level latencies are
//      measured under exactly the decisions the original run took;
//   3. reports the realized-vs-analytic gap per slot (and the max
//      per-device gap), plus the gap between the DES static-shares total
//      and the `latency` field recorded in the log.
//
// Under kStaticShares the engine reproduces the fluid model exactly, so
// `max_static_device_gap` stays at ~1e-9: that is the cross-validation
// invariant. The processor-sharing run quantifies how conservative the
// paper's reservation model is (realized_ps <= realized_static in total).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "des/flow_sim.h"
#include "sim/policy.h"
#include "sim/state_source.h"
#include "support/decision_log.h"

namespace eotora::des {

struct ReplayConfig {
  // Policy rng seed; must match the recording run (run_policy, and so
  // every CLI run, defaults to 1).
  std::uint64_t seed = 1;
  ArrivalModel arrivals = ArrivalModel::kSlotStart;
  double arrival_rate = 4.0;       // kPoisson only
  std::uint64_t arrival_seed = 1;  // arrival-offset stream
  bool record_events = false;      // keep both engines' event logs
  bool keep_tasks = false;         // keep per-task records in the results
};

// One replayed slot, cross-referenced across the three layers.
struct ReplaySlot {
  std::size_t slot = 0;
  bool row_matches = false;          // recorded row == re-derived row
  sim::DecisionRow expected;         // from the log
  sim::DecisionRow actual;           // re-derived this replay
  double analytic = 0.0;             // fluid Σ_i L_i under the decision
  double realized_static = 0.0;      // DES total sojourn, static shares
  double realized_ps = 0.0;          // DES total sojourn, processor sharing
  double max_device_gap_static = 0.0;
  double log_latency_gap = 0.0;      // |realized_static - expected.latency|
  std::size_t spillovers_ps = 0;
};

struct ReplayReport {
  std::vector<ReplaySlot> slots;
  std::size_t mismatched_rows = 0;
  double max_static_device_gap = 0.0;  // max over slots
  double max_log_latency_gap = 0.0;    // max over slots
  HorizonResult static_horizon;
  HorizonResult ps_horizon;

  [[nodiscard]] bool decisions_match() const { return mismatched_rows == 0; }
};

// Replays the whole stream, which must hold exactly log.rows() slots.
// Throws std::invalid_argument when the log is empty or the stream is
// shorter or longer than the log, naming both counts.
[[nodiscard]] ReplayReport replay_log(const core::Instance& instance,
                                      sim::StateSource& source,
                                      sim::Policy& policy,
                                      const sim::DecisionLog& log,
                                      const ReplayConfig& config = {});

}  // namespace eotora::des
