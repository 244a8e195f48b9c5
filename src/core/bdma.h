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

#include <cstdint>
#include <vector>

#include "core/cgba.h"
#include "core/components.h"
#include "core/counters.h"
#include "core/instance.h"
#include "core/mcba.h"
#include "core/p2b.h"
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
// slot hands to the next. BDMA runs every phase of the slot per connected
// component of the WCG (core/components.h): iteration 0 builds the
// components on the shared pool, and each iteration's fan-out solves P2-A
// on every component and sums that component's P2-B loads. CGBA solves on
// the component's kept BestResponseEngine: iteration 0 binds it to the
// new build, inside the fan-out, and later iterations only reset it at
// their Ω. The calling
// thread then runs the per-server bisection and sums T and Θ in global
// resource order, so Algorithm 2's pick sees dpp_objective's bits. A caller
// that keeps one workspace across the simulation horizon pays no per-slot
// arena/index reallocation. Not thread-safe: use one workspace per
// concurrent caller.
struct BdmaWorkspace {
  // The slot's WCG, as its components, planned once per instance;
  // num_options() is the option count of the last build, which iteration 0
  // of bdma_p2a_iterate runs.
  WcgComponents problem;
  // The assignment of the previous slot's last P2-A solve, written by
  // bdma_finish_slot. At the next slot's iteration 0, CGBA starts from it:
  // each device keeps its carried (bs, server) where that is still an
  // option (WcgComponents::keep_carried). Empty (a cold random start) in a
  // fresh workspace; only assigning a fresh workspace clears it, which is
  // what a policy reset() does. bdma() without a workspace therefore always
  // starts cold.
  Assignment carried;
  // Per component: the current iteration's P2-A profile, the best
  // iteration's, the current solve's moves, and the chain seeds of a
  // several-component MCBA solve.
  std::vector<Profile> profiles;
  std::vector<Profile> best_profiles;
  std::vector<std::size_t> iterations;
  std::vector<std::uint64_t> seeds;
  // P2-B: p2b.loads holds the load sums the P2-A fan-out leaves, by global
  // server and station id; the rest is the bisection's lanes.
  P2bWorkspace p2b;
  P2bResult p2b_result;
};

// The loop-carried state of Algorithm 2, exposed so the per-iteration
// halves below can be driven either by bdma() or one half at a time by the
// sim::pipeline P2-A / P2-B stages. bdma() and a stage-driven loop execute
// the exact same statements in the exact same order, so their results are
// bit-identical by construction.
struct BdmaLoopState {
  Frequencies omega;  // Ω fed into the next P2-A solve
  BdmaResult best;    // lines 5-8: running best by the P2 objective
  // Component count and per-component effort of the LAST
  // bdma_p2a_iterate call; overwritten each iterate so stage wrappers can
  // accumulate.
  std::size_t p2a_shards = 0;
  std::vector<counters::SolverCounters> p2a_shard_counters;
  // The workspace bdma_begin_slot started the slot in. The pipeline's P2-B
  // and decision stages reach the P2-A stage's components through it.
  BdmaWorkspace* workspace = nullptr;
};

// Line 1 of Algorithm 2: reset `loop` and set Ω = Ω^L; the slot's WCG is
// built by iteration 0 of bdma_p2a_iterate. The workspace's carried
// assignment survives: it is the previous slot's, and seeds iteration 0.
void bdma_begin_slot(const Instance& instance, const SlotState& state,
                     BdmaWorkspace& workspace, BdmaLoopState& loop);

// Line 3: one P2-A solve at the current Ω (`iteration` is 0-based).
// Iteration 0 builds the slot's components at Ω^L on the configured
// solver's shard_workers (WcgComponents::build, which plans them on an
// instance's first slot); later ones re-derive each component's compute
// weights from loop.omega first. CGBA runs cgba_from on
// WcgComponents::engine(c), which binds at iteration 0 and only resets
// afterwards (one engine_rebuilds per component per slot). Draws happen on the calling thread in
// global device order, so the rng stream is the global solve's: CGBA's
// iteration 0 draws random_profile and keeps workspace.carried's pairs,
// its later iterations start from the previous profile; MCBA runs one
// chain on the caller's rng for a one-component slot, else one per
// component seeded from the rng in component order; ROPT draws a random
// profile every iteration. Each component then sums its P2-B loads.
void bdma_p2a_iterate(const Instance& instance, const SlotState& state,
                      const BdmaConfig& config, std::size_t iteration,
                      util::Rng& rng, BdmaWorkspace& workspace,
                      BdmaLoopState& loop);

// Lines 4-8: one P2-B solve from the load sums the P2-A iterate left in
// `workspace` (the one bdma_begin_slot started the slot in), best-pair
// tracking by the P2 objective, and the Ω hand-off to the next iteration.
void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      BdmaWorkspace& workspace, BdmaLoopState& loop);

// Algorithm 2's return: writes loop.best's assignment (its latency and Θ
// are the best iteration's) and the workspace's carried assignment (the
// last iteration's) — the slot's only two global per-device writes.
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
