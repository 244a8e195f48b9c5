// Stage — one step of the per-slot decision pipeline.
//
// The paper's control loop has a fixed logical shape (observe state →
// update the virtual queue → solve P2-A → solve P2-B → emit the decision);
// a Stage is one step of that shape, owning its own scratch and warm-start
// state. A PolicyGraph (sim/pipeline/graph.h) runs stages in order as a
// sim::Policy, giving each stage its own trace span and SolverCounters
// scope so per-stage time and solver effort fall out of the existing
// observability layer 1:1.
//
// Scratch ownership rule: anything a stage keeps across slots (virtual
// queue backlog, WCG problem arenas, carried CGBA assignments, trend
// estimators) is a member of that stage and of no other; reset() must
// return it to the freshly-constructed state. Values that flow BETWEEN
// stages within one slot live in the StageContext blackboard; each stage's
// class comment (sim/pipeline/stages.h) names the fields it reads and
// writes.
#pragma once

#include <vector>

#include "core/bdma.h"
#include "core/beta_only.h"
#include "core/counters.h"
#include "core/dpp.h"
#include "core/instance.h"
#include "core/solve_result.h"
#include "sim/mpc_policy.h"
#include "sim/pipeline/stage_stats.h"
#include "util/rng.h"

namespace eotora::sim::pipeline {

// The per-slot blackboard. The graph installs the slot inputs and clears
// `result` at the top of every step; stages read and write the fields
// their class comments name. One context lives for the whole horizon, so
// its vectors are reused across slots.
struct StageContext {
  // Graph inputs, installed by PolicyGraph::step before the first stage.
  const core::Instance* instance = nullptr;
  const core::SlotState* state = nullptr;
  util::Rng* rng = nullptr;
  // 0-based position within the graph's solver loop (0 outside it).
  std::size_t loop_iteration = 0;

  // Values stages hand each other within one slot.
  double queue_before = 0.0;      // Q(t), before this slot's update
  core::Frequencies frequencies;  // the frequency vector Ω
  core::SolveResult p2a;          // a P2-A solve's cost and effort
  core::Assignment assignment;    // the assignment (x, y)
  core::BdmaLoopState bdma;       // BDMA's loop-carried state and best pair
  core::BetaOnlyResult oracle;    // the β-only oracle's decision
  MpcPlanInputs forecast;         // MPC plan inputs
  core::DppSlotResult result;     // the slot decision
};

class Stage {
 public:
  virtual ~Stage() = default;

  // Stable stage name ("queue_update"); StageStats and the CLI report it.
  [[nodiscard]] virtual const char* name() const = 0;
  // Trace-span name ("stage/queue_update"). Must be a string literal:
  // util/trace stores the pointer, not a copy.
  [[nodiscard]] virtual const char* span_name() const = 0;

  // The forward pass: read and write the context fields the class comment
  // names.
  virtual void run(StageContext& ctx) = 0;

  // The commit pass, called once per slot after every stage has run, in
  // stage order. This is where state that depends on DOWNSTREAM results is
  // folded back into stage scratch — the virtual-queue update
  // Q(t+1) = max{Q(t) + Θ, 0} reads the Θ the decision stage emitted.
  // Default: nothing to commit.
  virtual void commit(StageContext& ctx) { (void)ctx; }

  // Clears cross-slot scratch (queue backlogs, warm starts, estimators)
  // back to the freshly-constructed state. Default: stateless stage.
  virtual void reset() {}

  // Per-component solver effort accumulated since the last reset(), by
  // component index, for stages that solve P2-A per connected component of
  // the WCG (core/components.h). Default: empty (the stage solves nothing
  // per component). PolicyGraph::stage_stats() folds this into
  // StageStats::shards.
  [[nodiscard]] virtual std::vector<core::counters::SolverCounters>
  shard_counters() const {
    return {};
  }
};

}  // namespace eotora::sim::pipeline
