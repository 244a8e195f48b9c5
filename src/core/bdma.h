// BDMA — Benders' Decomposition Motivated Algorithm for P2 (paper Alg. 2).
//
// Alternates between the two subproblems for z iterations:
//   P2-A: fix Ω, solve the assignment with a P2-A solver (CGBA by default;
//         MCBA / ROPT give the paper's "<solver>-based DPP" baselines);
//   P2-B: fix (x, y), solve the frequencies by per-server convex search.
// The best (x, y, Ω) by the P2 objective f = V·T + Q·Θ across iterations is
// returned (line 5-8 of Algorithm 2). Ω starts at Ω^L, which is what the
// approximation proof of Theorem 3 relies on. The paper leaves the first
// CGBA start of a slot open, and Theorem 2's factor holds for whatever
// equilibrium the dynamics reach from any start, so a caller that keeps a
// BdmaWorkspace starts each slot from the previous slot's last assignment.
#pragma once

#include <vector>

#include "core/cgba.h"
#include "core/counters.h"
#include "core/instance.h"
#include "core/mcba.h"
#include "core/p2b.h"
#include "core/sharded.h"
#include "core/solve_result.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

enum class P2aSolverKind { kCgba, kMcba, kRopt };

struct BdmaConfig {
  std::size_t iterations = 5;  // the paper's z
  P2aSolverKind solver = P2aSolverKind::kCgba;
  CgbaConfig cgba;
  McbaConfig mcba;
  double freq_tolerance = 1e-7;
};

struct BdmaResult {
  Assignment assignment;
  Frequencies frequencies;
  double objective = 0.0;    // f(x̄, ȳ, Ω̄) = V·T + Q·Θ
  double latency = 0.0;      // T_t(x̄, ȳ, Ω̄, β)
  double theta = 0.0;        // Θ(Ω̄, p) = C_t - C̄
  std::size_t p2a_iterations = 0;  // total inner-solver work
  // Objective after each BDMA iteration (size == config.iterations); the
  // running minimum of this series is what Algorithm 2's lines 5-8 keep.
  std::vector<double> objective_history;
};

// Reusable per-slot scratch state, plus the one piece of solver state a
// slot hands to the next. bdma() rebuilds the workspace problem in place
// (WcgProblem::rebuild), so a caller that keeps one workspace across the
// simulation horizon pays no per-slot arena/index reallocation. Not
// thread-safe: use one workspace per concurrent caller.
struct BdmaWorkspace {
  WcgProblem problem;
  // The assignment of the last P2-A solve (every iterate overwrites it). At
  // the next slot's iteration 0, CGBA starts from it through
  // WcgProblem::warm_profile: each device keeps its carried (bs, server)
  // where that is still an option. Empty (a cold random start) in a fresh
  // workspace; only assigning a fresh workspace clears it, which is what a
  // policy reset() does. bdma() without a workspace therefore always
  // starts cold.
  Assignment carried;
  // Scratch for the sharded P2-A drivers (used only when the inner solver
  // config enables shard_workers).
  ShardedWorkspace sharded;
  // Scratch for the per-iteration P2-B solve (batched kernel lanes).
  P2bWorkspace p2b;
  P2bResult p2b_result;
};

// The loop-carried state of Algorithm 2, exposed so the per-iteration
// halves below can be driven either by bdma() or one half at a time by the
// sim::pipeline P2-A / P2-B stages. bdma() and a stage-driven loop execute
// the exact same statements in the exact same order, so their results are
// bit-identical by construction.
struct BdmaLoopState {
  Frequencies omega;      // Ω fed into the next P2-A solve
  SolveResult previous;   // last P2-A solution (start of CGBA iterations 1+)
  SolveResult p2a;        // current iteration's P2-A solution
  Assignment assignment;  // current iteration's (x, y)
  BdmaResult best;        // lines 5-8: running best by the P2 objective
  // Sharding telemetry of the LAST bdma_p2a_iterate call — component count
  // and per-shard effort of that one solve. 0 / empty when the solve ran
  // unsharded; overwritten each iterate so stage wrappers can accumulate.
  std::size_t p2a_shards = 0;
  std::vector<counters::SolverCounters> p2a_shard_counters;
};

// Line 1 of Algorithm 2: reset `loop`, set Ω = Ω^L, and rebuild the
// workspace problem for this slot's state. The workspace's carried
// assignment survives: it is the previous slot's, and seeds iteration 0.
void bdma_begin_slot(const Instance& instance, const SlotState& state,
                     BdmaWorkspace& workspace, BdmaLoopState& loop);

// Line 3: one P2-A solve at the current Ω (`iteration` is 0-based; the
// first iteration keeps the frequencies installed by bdma_begin_slot, later
// ones re-derive the compute weights from loop.omega first). CGBA's first
// iteration starts from workspace.carried (see BdmaWorkspace), its later
// ones from loop.previous; every iterate then stores its assignment in
// workspace.carried.
void bdma_p2a_iterate(const Instance& instance, const SlotState& state,
                      const BdmaConfig& config, std::size_t iteration,
                      util::Rng& rng, BdmaWorkspace& workspace,
                      BdmaLoopState& loop);

// Lines 4-8: one P2-B solve at the fixed assignment (reading the per-server
// loads from the workspace problem's option arena), best-pair tracking by
// the P2 objective, and the Ω hand-off to the next iteration.
void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      BdmaWorkspace& workspace, BdmaLoopState& loop);

// As above for drivers without a BdmaWorkspace (the sim::pipeline P2-B
// stage): the per-server loads come from the sqrt-chain overload of
// solve_p2b, which carries the same bits as the arena path.
void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      P2bWorkspace& p2b_workspace, P2bResult& p2b_result,
                      BdmaLoopState& loop);

// Derives the reported latency and Θ for loop.best after the last
// iteration (Algorithm 2's return values).
void bdma_finish_slot(const Instance& instance, const SlotState& state,
                      BdmaLoopState& loop);

// Solves P2 at one slot. `v` is the DPP weight V, `q` the current queue
// backlog Q(t).
[[nodiscard]] BdmaResult bdma(const Instance& instance, const SlotState& state,
                              double v, double q, const BdmaConfig& config,
                              util::Rng& rng);

// As above, reusing `workspace` allocations across calls.
[[nodiscard]] BdmaResult bdma(const Instance& instance, const SlotState& state,
                              double v, double q, const BdmaConfig& config,
                              util::Rng& rng, BdmaWorkspace& workspace);

}  // namespace eotora::core
