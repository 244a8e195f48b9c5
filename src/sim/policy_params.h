// PolicyParams — the sweepable policy knobs — and the ONE translation from
// them into per-policy solver configs. sim/registry.cpp builds every
// registry name through the *_config_from helpers below, so a default or
// mapping changed here changes every name at once.
#pragma once

#include <cstddef>

#include "core/beta_only.h"
#include "core/bdma.h"
#include "core/dpp.h"
#include "sim/mpc_policy.h"

namespace eotora::sim {

// The constructor knobs a sweep varies. Defaults match the paper scenario
// (V = 100, z = 5) with a cold virtual queue.
struct PolicyParams {
  double v = 100.0;                  // Lyapunov penalty weight
  double initial_queue = 0.0;        // Q(1) warm start
  std::size_t bdma_iterations = 5;   // the paper's z
  std::size_t mcba_iterations = 3000;
  double fixed_fraction = 1.0;       // for "fixed-frequency"
  // How many pool workers a slot's per-component work runs on: the WCG
  // build, the CGBA / MCBA P2-A solves and the P2-B load sums of every
  // connected component (core/components.h). 0 and 1 run every component
  // inline on the calling thread. Results are bit-identical for every
  // value; only wall-clock changes. dpp_config_from throws for ROPT, which
  // has no solve to spread over workers.
  std::size_t shard_workers = 0;
  MpcConfig mpc;                     // for "mpc"
};

// DppConfig for the "dpp-*" family with the given inner P2-A solver.
[[nodiscard]] core::DppConfig dpp_config_from(const PolicyParams& params,
                                              core::P2aSolverKind solver);

// BetaOnlyConfig for "beta-only".
[[nodiscard]] core::BetaOnlyConfig beta_only_config_from(
    const PolicyParams& params);

// CgbaConfig for the CGBA-assignment baselines ("greedy-budget",
// "fixed-*"): the registry has always used the plain defaults here.
[[nodiscard]] core::CgbaConfig baseline_cgba_config_from(
    const PolicyParams& params);

// MpcConfig for "mpc": params.mpc, with its CGBA assignment on
// shard_workers workers like the other CGBA baselines.
[[nodiscard]] MpcConfig mpc_config_from(const PolicyParams& params);

}  // namespace eotora::sim
