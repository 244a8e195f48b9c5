// MCBA — Markov chain Monte Carlo-Based Algorithm, the baseline of [36]
// (Ma et al., INFOCOM 2020) as described in the paper §VI-B:
// "a probabilistic algorithm that randomly moves between neighboring
// decisions with a probability related to the objective values of the
// decisions". We implement it as Metropolis sampling with geometric cooling:
// propose a random single-device reassignment, always accept improvements,
// accept a worsening of Δ with probability exp(-Δ / temperature).
#pragma once

#include "core/solve_result.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

struct McbaConfig {
  std::size_t iterations = 20000;
  // Initial temperature as a fraction of the initial social cost; geometric
  // cooling reaches `final_temperature_fraction` at the last iteration.
  double initial_temperature_fraction = 0.1;
  double final_temperature_fraction = 1e-4;
  // Correctness oracle: evaluate each proposal with the O(num_resources)
  // LoadTracker::total_cost_if_moved sweep instead of the O(1)
  // delta_cost. Kept as the reference the fast path is checked against
  // (tests/test_wcg_incremental.cpp) and for the micro-benchmark baseline.
  bool naive_scan = false;
  // How many pool workers BDMA's per-component chains run on
  // (core/components.h); 0 and 1 run them inline. Results are the same for
  // every value. mcba() itself ignores it.
  std::size_t shard_workers = 0;
};

// Runs one annealing chain from a uniformly random initial profile and
// returns the best profile visited. The chain ignores the problem's
// connected components: BDMA runs one chain per component of the slot
// (core/bdma.h), each on that component's own problem.
[[nodiscard]] SolveResult mcba(const WcgProblem& problem,
                               const McbaConfig& config, util::Rng& rng);

}  // namespace eotora::core
