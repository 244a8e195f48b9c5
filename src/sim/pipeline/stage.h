// Stage — one typed node of the per-slot decision pipeline.
//
// The paper's control loop has a fixed logical shape (observe state →
// update the virtual queue → solve P2-A → solve P2-B → tap → emit the
// decision); a Stage is one step of that shape, owning its own scratch and
// warm-start state and declaring its inputs/outputs as typed ports
// (sim/pipeline/port.h). A PolicyGraph (sim/pipeline/graph.h) wires stages
// into a runnable Policy, giving each stage its own trace span and
// SolverCounters scope so per-stage time and solver effort fall out of the
// existing observability layer 1:1.
//
// Scratch ownership rule: anything a stage keeps across slots (virtual
// queue backlog, WCG problem arenas, carried CGBA assignments, trend
// estimators) is a member of that stage and of no other; reset() must
// return it to the freshly-constructed state. Values that flow BETWEEN
// stages within one slot live in the StageContext blackboard and are
// declared as ports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bdma.h"
#include "core/beta_only.h"
#include "core/counters.h"
#include "core/dpp.h"
#include "core/instance.h"
#include "core/solve_result.h"
#include "sim/mpc_policy.h"
#include "sim/pipeline/port.h"
#include "sim/pipeline/stage_stats.h"
#include "util/rng.h"

namespace eotora::sim::pipeline {

// The per-slot blackboard. The graph resets the per-slot slots at the top
// of every step and installs the slot inputs; stages read and write the
// slot they declared as ports. One context lives for the whole horizon, so
// its vectors are reused across slots.
struct StageContext {
  // Graph inputs, installed by PolicyGraph::step before the first stage.
  const core::Instance* instance = nullptr;
  const core::SlotState* state = nullptr;
  util::Rng* rng = nullptr;
  // 0-based position within the graph's solver loop (0 outside it).
  std::size_t loop_iteration = 0;

  // Port payloads (one slot per PortType).
  double queue_before = 0.0;           // kQueue
  core::Frequencies frequencies;       // kFrequencies
  core::SolveResult p2a;               // kP2aSolution
  core::Assignment assignment;         // kAssignment
  core::BdmaLoopState bdma;            // kSolverLoop / kBestSolution
  core::BetaOnlyResult oracle;         // kOracle
  MpcPlanInputs forecast;              // kForecast
  double multiplier = 0.0;             // the MPC plan's chosen λ
  core::DppSlotResult result;          // kDecision
};

class Stage {
 public:
  virtual ~Stage() = default;

  // Stable stage name ("queue_update"); used in stats, errors, and docs.
  [[nodiscard]] virtual const char* name() const = 0;
  // Trace-span name ("stage/queue_update"). Must be a string literal:
  // util/trace stores the pointer, not a copy.
  [[nodiscard]] virtual const char* span_name() const = 0;

  // Declared typed ports; validated by PolicyGraph at construction.
  [[nodiscard]] virtual std::vector<PortSpec> inputs() const = 0;
  [[nodiscard]] virtual std::vector<PortSpec> outputs() const = 0;

  // The forward pass: consume declared inputs, produce declared outputs.
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
