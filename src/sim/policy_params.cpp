#include "sim/policy_params.h"

#include <stdexcept>

namespace eotora::sim {

core::DppConfig dpp_config_from(const PolicyParams& params,
                                core::P2aSolverKind solver) {
  if (params.shard_workers > 0 && solver == core::P2aSolverKind::kRopt) {
    throw std::invalid_argument(
        "shard_workers requires a P2-A solver that runs on workers (CGBA "
        "or MCBA); ROPT only draws a random profile");
  }
  core::DppConfig config;
  config.v = params.v;
  config.initial_queue = params.initial_queue;
  config.bdma.iterations = params.bdma_iterations;
  config.bdma.solver = solver;
  config.bdma.mcba.iterations = params.mcba_iterations;
  config.bdma.cgba.shard_workers = params.shard_workers;
  config.bdma.mcba.shard_workers = params.shard_workers;
  return config;
}

core::BetaOnlyConfig beta_only_config_from(const PolicyParams& params) {
  core::BetaOnlyConfig config;
  config.bdma.iterations = params.bdma_iterations;
  return config;
}

core::CgbaConfig baseline_cgba_config_from(const PolicyParams& params) {
  core::CgbaConfig config;
  config.shard_workers = params.shard_workers;
  return config;
}

MpcConfig mpc_config_from(const PolicyParams& params) {
  MpcConfig config = params.mpc;
  config.cgba.shard_workers = params.shard_workers;
  return config;
}

}  // namespace eotora::sim
