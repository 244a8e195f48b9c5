// CGBA — Congestion Game-Based Algorithm for P2-A (paper Algorithm 3).
//
// Best-response dynamics on the weighted congestion game: while some player
// can improve its cost by more than a factor (1 - λ), let the player with the
// LARGEST absolute improvement move to its best response. Because the game
// admits an exact potential (see wcg.h), every move strictly decreases the
// potential and the dynamics terminate; Theorem 2 gives the
// 2.62 / (1 - 8λ) approximation factor for λ in (0, 0.125), and λ = 0
// converges to a Nash equilibrium with factor 2.62.
#pragma once

#include <optional>
#include <vector>

#include "core/solve_result.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

// Which improving player moves next. Algorithm 3 (line 3) picks the player
// with the largest absolute improvement; round-robin sweeps players in index
// order and is cheaper per move (no global argmax) — both converge because
// the potential decreases either way.
enum class CgbaSelection { kMaxGap, kRoundRobin };

struct CgbaConfig {
  // λ in [0, 0.125): relative improvement threshold. Larger λ terminates
  // earlier at the price of a looser approximation factor.
  double lambda = 0.0;
  CgbaSelection selection = CgbaSelection::kMaxGap;
  // Safety cap on best-response moves; the dynamics terminate well before
  // this on every realistic instance (Theorem 2 bounds the count).
  std::size_t max_moves = 200000;
  // Absolute floor that protects λ = 0 from floating-point livelock: a move
  // must improve the player's cost by more than rel_epsilon * player_cost.
  double rel_epsilon = 1e-12;
  // Correctness oracle: rescan every player's best response from the
  // LoadTracker on every move instead of using the incremental
  // BestResponseEngine cache. Both paths produce bit-identical move
  // sequences, profiles, and costs (tests/test_wcg_incremental.cpp); the
  // naive path exists only as the reference the fast path is checked
  // against and for the micro-benchmark baseline.
  bool naive_scan = false;
  // How many pool workers the slot's per-component work runs on
  // (core/components.h): the build, the solves and the P2-B load sums.
  // 0 and 1 run every component inline. Results are the same for every
  // value; cgba()/cgba_from() themselves ignore it.
  std::size_t shard_workers = 0;
};

// Runs CGBA from a uniformly random initial profile (a cold start).
[[nodiscard]] SolveResult cgba(const WcgProblem& problem,
                               const CgbaConfig& config, util::Rng& rng);

// Runs CGBA from a caller-supplied initial profile. The controllers start
// every slot's first solve from WcgComponents::draw_profiles with the
// assignment they carried over from the previous slot kept by
// WcgComponents::keep_carried, and BDMA's later iterations from the
// previous iteration's profile. When `final_loads` is non-null it
// receives the solver's final tracked per-resource loads P_r — the exact
// bits result.cost was summed from. WcgComponents::total_cost scatters a
// slot's per-component loads into the global layout to reproduce the global
// solve's cost summation without a from-scratch re-evaluation.
[[nodiscard]] SolveResult cgba_from(const WcgProblem& problem,
                                    const CgbaConfig& config, Profile initial,
                                    std::vector<double>* final_loads = nullptr);

// As above, on a caller-kept engine (unused with naive_scan): the engine is
// bound to `problem` when it is not bound to its current build
// (BestResponseEngine::bound_to; counted as
// counters::active().engine_rebuilds) and reset for this solve. BDMA keeps
// one engine per WCG component, so a slot binds each engine once and its
// later solves, at new frequencies on the same build, only reset it. The
// result is bit-identical to the engine-less overload's.
[[nodiscard]] SolveResult cgba_from(const WcgProblem& problem,
                                    const CgbaConfig& config, Profile initial,
                                    BestResponseEngine& engine,
                                    std::vector<double>* final_loads = nullptr);

}  // namespace eotora::core
