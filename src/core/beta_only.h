// β-only slot oracle (the policy class of Lemma 2).
//
// A β-only policy decides from the current state alone. The natural best
// member of that class spends exactly the per-slot budget: minimize T_t
// subject to C_t(Ω, p_t) <= target. We solve it by dualizing the cost
// constraint — bisect the multiplier q in the per-slot problem
//     min_{x,y,Ω}  T_t + q·C_t     (solved by BDMA with V = 1, Q = q)
// until the resulting cost meets the target. This gives:
//   * a strong per-slot reference point for DPP evaluations (how well can
//     ANY queue-free policy do at this budget?), and
//   * the ρ*-style baseline used in the analysis of Theorem 4.
#pragma once

#include "core/bdma.h"
#include "core/instance.h"

namespace eotora::core {

struct BetaOnlyResult {
  Assignment assignment;
  Frequencies frequencies;
  double latency = 0.0;
  double energy_cost = 0.0;
  double multiplier = 0.0;  // the dual price q the bisection settled on
};

struct BetaOnlyConfig {
  // Bisection on the multiplier: [0, q_max] with `iterations` halvings.
  double max_multiplier = 1e6;
  int iterations = 40;
  // Accept costs within this relative band of the target.
  double cost_tolerance = 1e-3;
  BdmaConfig bdma;
};

// Minimizes latency subject to C_t <= target_cost (a per-slot budget).
// When even the all-minimum-frequency cost exceeds the target, returns that
// floor decision (the constraint is infeasible at this price). Every
// multiplier probe draws from the same fixed seed, so the result is a pure
// function of its arguments.
[[nodiscard]] BetaOnlyResult solve_beta_only(const Instance& instance,
                                             const SlotState& state,
                                             double target_cost,
                                             const BetaOnlyConfig& config);

}  // namespace eotora::core
