// Declarative sweep runner — the shared harness behind the figure benches
// and policy-comparison examples.
//
// A SweepSpec names WHAT to evaluate (a base scenario, up to two swept
// knobs, a set of registry policies, seeds, horizon, reporting window);
// run_sweep decides HOW: it enumerates the cross product of axis values ×
// policies × nothing else into independent cells and executes them over the
// shared util::ThreadPool. Every cell streams its states slot by slot
// through its own sim::ScenarioSource, built from its own seed, so a cell's
// memory is O(devices × stations) regardless of horizon and cell results
// depend only on the spec — never on worker count or scheduling order. The
// emitted table and JSON artifact are reproducible byte-for-byte across
// thread counts (the wall-clock fields are the one documented exception).
//
// The JSON artifact ("eotora-sweep-v1", one record per cell) is the
// machine-readable output scripts/reproduce.sh collects under bench/out/
// and future perf-tracking compares across commits.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace eotora::sim {

// One swept knob: a name understood by apply_sweep_axis plus the values to
// visit, in order.
struct SweepAxis {
  std::string name;
  std::vector<double> values;
};

// The value assignment of one cell, in axis order.
using AxisAssignment = std::vector<std::pair<std::string, double>>;

struct SweepSpec {
  std::string name = "sweep";  // artifact name ("fig9_budget_sweep", ...)
  ScenarioConfig base;
  // Named scenario preset (sim/scenario_registry.h) applied to every cell's
  // config after `base` is copied and BEFORE the axes — so axis values win
  // over preset values on the same knob. Empty means "paper" (no
  // transform); unknown names throw at validation time.
  std::string scenario;
  std::vector<SweepAxis> axes;        // 0, 1, or 2 axes
  std::vector<std::string> policies;  // registry names (sim/registry.h)
  PolicyParams params;
  std::size_t horizon = 24 * 12;
  std::size_t window = 48;  // tail-averaging window, <= horizon
  // Replications per cell: replication r runs scenario seed base.seed + r
  // with policy rng seed 1 + r.
  std::size_t seeds = 1;
  // Optional deterministic hook applied after the built-in axis mapping,
  // for couplings a single knob cannot express (e.g. the scaling bench
  // grows clusters with the device count). Must be a pure function of the
  // assignment.
  std::function<void(const AxisAssignment&, ScenarioConfig&, PolicyParams&)>
      configure;
  // Per-slot feasibility auditing of every cell run (sim/audit.h). Off by
  // default — enabling it re-validates each DppSlotResult against the P1
  // constraint set. check_queue is automatically narrowed per policy via
  // policy_tracks_queue(), so mixing dpp-* and queue-free baselines in one
  // sweep stays sound.
  AuditConfig audit{AuditMode::kOff};
  // Non-empty: enable util/trace for the duration of the sweep and write
  // the Chrome-trace JSON here afterwards. Tracing only adds span events —
  // every deterministic artifact field (counters included) is unchanged.
  std::string trace;
};

// One (axis values × policy) cell, aggregated over the spec's seeds.
struct SweepCell {
  AxisAssignment axis_values;
  std::string policy;        // registry name
  std::string policy_label;  // Policy::name()
  std::size_t seeds = 0;
  WindowAverages tail;            // tail-window averages, mean over seeds
  util::RunningStats tail_latency_stats;  // across seeds (CI / min / max)
  double avg_latency = 0.0;   // full-horizon averages, mean over seeds
  double avg_cost = 0.0;
  double avg_backlog = 0.0;
  double decision_seconds = 0.0;  // summed policy decision time (run_policy)
  double state_seconds = 0.0;     // summed state-pull time across seeds
  double audit_seconds = 0.0;     // summed auditor time across seeds
  double wall_seconds = 0.0;      // total cell time incl. scenario + states
  std::size_t audited_slots = 0;      // summed over seeds (0 when audit off)
  std::size_t audit_violations = 0;   // total violations found across seeds
  // Solver effort summed over the cell's seeds; deterministic for a given
  // spec (part of the byte-identity-across-threads contract).
  core::counters::SolverCounters counters;
  // Per-stage breakdown summed over the cell's seeds, in stage order.
  // Empty when the policy reports no stages. Runs and counters are
  // deterministic (the stage counters sum to `counters`); the seconds are
  // wall-clock.
  std::vector<pipeline::StageStats> stages;

  // 95% normal-approximation CI half-width of the tail latency across
  // seeds (zero for seeds < 2).
  [[nodiscard]] double tail_latency_ci_halfwidth() const;
};

struct SweepResult {
  std::string name;
  std::string scenario;  // preset name; empty for the stock configuration
  std::vector<SweepAxis> axes;
  std::vector<std::string> policies;
  std::size_t horizon = 0;
  std::size_t window = 0;
  std::size_t seeds = 0;
  AuditMode audit_mode = AuditMode::kOff;
  std::vector<SweepCell> cells;  // axis-major, policy-minor order
  double wall_seconds = 0.0;

  // Human-readable rendering (one row per cell). Adds a CI column when
  // seeds > 1.
  [[nodiscard]] util::Table table() const;

  // The machine-readable artifact. Every field is deterministic for a
  // given spec except the wall-clock ones ("decision_seconds",
  // "wall_seconds" per record, "seconds" inside each "stages" entry,
  // "wall_seconds" at the top level) and the provenance stamps ("commit",
  // "build_type"), which track the producing build rather than the spec.
  [[nodiscard]] util::Json to_json() const;

  // dump(to_json(), indent=2) to `path` (creating nothing but the file).
  void write_json(const std::string& path) const;
};

// Knob names understood by apply_sweep_axis, sorted.
[[nodiscard]] std::vector<std::string> sweep_axis_names();

// Applies `name = value` to the cell's scenario config / policy params.
// Throws std::invalid_argument for an unknown name, listing the known ones.
void apply_sweep_axis(const std::string& name, double value,
                      ScenarioConfig& config, PolicyParams& params);

// Validates the spec and executes every cell over the shared thread pool,
// using at most `threads` workers (0 = the pool's full width). Cell
// results are independent of `threads`.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    std::size_t threads = 0);

}  // namespace eotora::sim
