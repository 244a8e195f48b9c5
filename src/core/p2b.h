// P2-B — optimal clock frequencies for a fixed assignment (paper §V-A).
//
// The objective  V·T_t(x̄, ȳ, Ω, β) + Q·Θ(Ω, p)  separates over servers:
//   min_{ω ∈ [F^L_n, F^U_n]}  V·A_n / (cores_n ω 1e9)
//                             + Q·p·watts_n(ω)·slot_h/1e6
// with A_n = (Σ_{i on n} sqrt(f_i/σ_{i,n}))². Each piece is convex (1/ω plus
// a convex energy model), so a derivative bisection solves it to tolerance —
// this replaces the paper's CVX call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace eotora::core {

struct P2bResult {
  Frequencies frequencies;
  // Full drift-plus-penalty objective f(x, y, Ω) = V·T_t + Q·Θ at the
  // optimal frequencies (includes the frequency-independent communication
  // latency and the -Q·C̄ term), with the same bits as dpp_objective.
  double objective = 0.0;
  // Its two parts: T_t(x, y, Ω, β) with reduced_latency's bits and
  // Θ(Ω, p) with Instance::theta's.
  double latency = 0.0;
  double theta = 0.0;
};

// The per-resource load sums of one assignment, by global id — what
// Eqs. (18)-(19) square. Each sum runs in ascending device order, as
// reduced_latency_breakdown accumulates it.
struct P2bLoads {
  std::vector<double> compute;    // Σ_{i on n} sqrt(f_i / σ_{i,n})
  std::vector<double> access;     // Σ_{i on k} sqrt(d_i / h_{i,k})
  std::vector<double> fronthaul;  // Σ_{i on k} sqrt(d_i / h^F_k)
};

// Reusable buffers for solve_p2b: the load sums plus the SoA lanes of the
// batched bisection (servers whose energy model has an affine power
// derivative — the quadratic and linear models — solve as lockstep kernel
// lanes; other models stay on the per-server scalar path).
struct P2bWorkspace {
  P2bLoads loads;
  std::vector<double> neg_va, cores, lo, hi, d_slope, d_intercept, x;
  std::vector<std::uint32_t> lane_server;  // lane -> server index
};

// Solves P2-B for the given assignment. Requires V >= 0, Q >= 0.
[[nodiscard]] P2bResult solve_p2b(const Instance& instance,
                                  const SlotState& state,
                                  const Assignment& assignment, double v,
                                  double q, double tolerance = 1e-7);

// Allocation-free overload (same result bits as the wrapper above).
void solve_p2b(const Instance& instance, const SlotState& state,
               const Assignment& assignment, double v, double q,
               double tolerance, P2bWorkspace& workspace, P2bResult& out);

// Load-sum overload: solves from `loads` (one entry per server and per
// station of the instance) instead of re-deriving them from an assignment.
// Loads summed in the same order as the sqrt chain give the same bits —
// BDMA sums its components' loads from the WCG option arena, whose p-values
// carry the sqrt chain's bits.
void solve_p2b(const Instance& instance, const SlotState& state,
               const P2bLoads& loads, double v, double q, double tolerance,
               P2bWorkspace& workspace, P2bResult& out);

// f(x, y, Ω) = V·T_t(x, y, Ω, β) + Q·Θ(Ω, p) — the P2 objective (paper §V).
[[nodiscard]] double dpp_objective(const Instance& instance,
                                   const SlotState& state,
                                   const Assignment& assignment,
                                   const Frequencies& frequencies, double v,
                                   double q);

}  // namespace eotora::core
