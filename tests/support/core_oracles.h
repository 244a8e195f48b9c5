// Core-layer oracles: from-scratch evaluations the tests certify the
// solvers against. Each reads only the public views of WcgProblem and
// Instance, independently of the incremental machinery it checks.
#pragma once

#include <cstddef>

#include "core/instance.h"
#include "core/p2b.h"
#include "core/types.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

// Player i's cost T_i(z) = Σ_{r ∈ R(z_i)} m_r p_{i,r} P_r(z), evaluated
// from scratch (the solvers evaluate it incrementally through LoadTracker).
[[nodiscard]] double player_cost(const WcgProblem& problem, const Profile& z,
                                 std::size_t device);

// The WCG's exact potential
//   Φ(z) = ½ Σ_r m_r (P_r(z)² + Σ_{i∈I_r} p_{i,r}²):
// ΔΦ equals the mover's cost change for every unilateral deviation.
[[nodiscard]] double potential(const WcgProblem& problem, const Profile& z);

// Encodes an Assignment back into a profile. Throws if the assignment uses
// a pair that is not a feasible option.
[[nodiscard]] Profile to_profile(const WcgProblem& problem,
                                 const Assignment& assignment);

// A start profile seeded from `carried`, an assignment decided on an
// earlier build. Draws problem.random_profile(rng) first, then every device
// whose carried (bs, server) pair is still one of its options keeps that
// option; the others keep their draw. An empty `carried` returns the draw
// unchanged. Throws if `carried` is non-empty and does not cover exactly
// num_devices() devices. The controllers carry through
// WcgComponents::keep_carried, which keeps this contract per component.
[[nodiscard]] Profile warm_profile(const WcgProblem& problem,
                                   const Assignment& carried, util::Rng& rng);

// The pre-kernel per-server scalar P2-B path, the differential oracle
// tests/test_kernels.cpp compares solve_p2b's batched path against.
[[nodiscard]] P2bResult solve_p2b_reference(const Instance& instance,
                                            const SlotState& state,
                                            const Assignment& assignment,
                                            double v, double q,
                                            double tolerance = 1e-7);

// Whether an allocation satisfies constraints (4)-(6): per-resource shares
// sum to at most 1 (within `tolerance`) and lie in [0, 1].
[[nodiscard]] bool allocation_feasible(const Instance& instance,
                                       const Assignment& assignment,
                                       const ResourceAllocation& allocation,
                                       double tolerance = 1e-9);

}  // namespace eotora::core
