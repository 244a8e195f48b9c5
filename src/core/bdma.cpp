#include "core/bdma.h"

#include <limits>
#include <utility>

#include "core/counters.h"
#include "core/latency.h"
#include "core/ropt.h"
#include "core/wcg.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::core {

void bdma_begin_slot(const Instance& instance, const SlotState& state,
                     BdmaWorkspace& workspace, BdmaLoopState& loop) {
  // Line 1 of Algorithm 2: Ω starts at the lowest feasible frequencies.
  loop.omega = instance.min_frequencies();
  workspace.problem.rebuild(instance, state, loop.omega);
  loop.previous = SolveResult{};
  loop.best = BdmaResult{};
  loop.best.objective = std::numeric_limits<double>::infinity();
}

void bdma_p2a_iterate(const Instance& instance, const SlotState& state,
                      const BdmaConfig& config, std::size_t iteration,
                      util::Rng& rng, BdmaWorkspace& workspace,
                      BdmaLoopState& loop) {
  (void)state;
  counters::active().bdma_iterations += 1;
  WcgProblem& problem = workspace.problem;
  // bdma_begin_slot already installed Ω^L; only re-derive the compute
  // weights once P2-B has produced new frequencies.
  if (iteration > 0) problem.set_frequencies(instance, loop.omega);
  // This iterate's sharding telemetry (stays 0/empty on the global paths).
  loop.p2a_shards = 0;
  loop.p2a_shard_counters.clear();
  const auto record_shards = [&loop](ShardedResult&& sharded) {
    loop.p2a = std::move(sharded.result);
    loop.p2a_shards = sharded.shards;
    loop.p2a_shard_counters = std::move(sharded.shard_counters);
  };
  // Line 3: solve P2-A at the current Ω.
  switch (config.solver) {
    case P2aSolverKind::kCgba: {
      // Iteration 0 starts from the assignment the workspace carried over
      // from the previous slot (a random start where there is none); the
      // later iterations from the previous iteration's solution.
      Profile start = iteration == 0
                          ? problem.warm_profile(workspace.carried, rng)
                          : loop.previous.profile;
      if (config.cgba.shard_workers > 0) {
        record_shards(cgba_sharded_from(problem, config.cgba,
                                        std::move(start),
                                        config.cgba.shard_workers,
                                        &workspace.sharded));
      } else {
        loop.p2a = cgba_from(problem, config.cgba, std::move(start));
      }
      break;
    }
    case P2aSolverKind::kMcba:
      if (config.mcba.shard_workers > 0) {
        record_shards(mcba_sharded(problem, config.mcba, rng,
                                   config.mcba.shard_workers,
                                   &workspace.sharded));
      } else {
        loop.p2a = mcba(problem, config.mcba, rng);
      }
      break;
    case P2aSolverKind::kRopt:
      loop.p2a = ropt(problem, rng);
      break;
  }
  loop.previous = loop.p2a;
  loop.best.p2a_iterations += loop.p2a.iterations;
  loop.assignment = problem.to_assignment(loop.p2a.profile);
  workspace.carried = loop.assignment;
}

namespace {

// Lines 5-8 of Algorithm 2: keep the best pair by the P2 objective, hand Ω
// to the next iteration.
void p2b_track_best(BdmaLoopState& loop, const P2bResult& p2b) {
  loop.best.objective_history.push_back(p2b.objective);
  if (p2b.objective < loop.best.objective) {
    loop.best.objective = p2b.objective;
    loop.best.assignment = loop.assignment;
    loop.best.frequencies = p2b.frequencies;
  }
  loop.omega = p2b.frequencies;
}

}  // namespace

void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      BdmaWorkspace& workspace, BdmaLoopState& loop) {
  // Line 4: solve P2-B at the fixed assignment. The per-server loads come
  // from the workspace problem's option arena (same bits as the sqrt-chain
  // recompute), and the bisection lanes reuse the workspace buffers.
  solve_p2b(instance, state, loop.assignment, workspace.problem,
            loop.p2a.profile, v, q, config.freq_tolerance, workspace.p2b,
            workspace.p2b_result);
  p2b_track_best(loop, workspace.p2b_result);
}

void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      P2bWorkspace& p2b_workspace, P2bResult& p2b_result,
                      BdmaLoopState& loop) {
  solve_p2b(instance, state, loop.assignment, v, q, config.freq_tolerance,
            p2b_workspace, p2b_result);
  p2b_track_best(loop, p2b_result);
}

void bdma_finish_slot(const Instance& instance, const SlotState& state,
                      BdmaLoopState& loop) {
  loop.best.latency = reduced_latency(instance, state, loop.best.assignment,
                                      loop.best.frequencies);
  loop.best.theta =
      instance.theta(loop.best.frequencies, state.price_per_mwh);
}

BdmaResult bdma(const Instance& instance, const SlotState& state, double v,
                double q, const BdmaConfig& config, util::Rng& rng) {
  BdmaWorkspace workspace;
  return bdma(instance, state, v, q, config, rng, workspace);
}

BdmaResult bdma(const Instance& instance, const SlotState& state, double v,
                double q, const BdmaConfig& config, util::Rng& rng,
                BdmaWorkspace& workspace) {
  EOTORA_REQUIRE(config.iterations >= 1);
  EOTORA_REQUIRE_MSG(v >= 0.0, "V=" << v);
  EOTORA_REQUIRE_MSG(q >= 0.0, "Q=" << q);

  BdmaLoopState loop;
  bdma_begin_slot(instance, state, workspace, loop);
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    EOTORA_TRACE_SPAN("bdma/iteration");
    bdma_p2a_iterate(instance, state, config, iter, rng, workspace, loop);
    bdma_p2b_iterate(instance, state, v, q, config, workspace, loop);
  }
  bdma_finish_slot(instance, state, loop);
  return std::move(loop.best);
}

}  // namespace eotora::core
