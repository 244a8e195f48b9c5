#include "core/mcba.h"

#include <cmath>
#include <cstdint>

#include "core/counters.h"
#include "util/check.h"

namespace eotora::core {

SolveResult mcba(const WcgProblem& problem, const McbaConfig& config,
                 util::Rng& rng) {
  EOTORA_REQUIRE(config.iterations > 0);
  EOTORA_REQUIRE(config.initial_temperature_fraction > 0.0);
  EOTORA_REQUIRE(config.final_temperature_fraction > 0.0);
  EOTORA_REQUIRE(config.final_temperature_fraction <=
                 config.initial_temperature_fraction);

  LoadTracker tracker(problem, problem.random_profile(rng));
  double current_cost = tracker.total_cost();

  SolveResult best;
  best.profile = tracker.profile();
  best.cost = current_cost;

  const double t0 = config.initial_temperature_fraction * current_cost;
  const double t1 = config.final_temperature_fraction * current_cost;
  const double cooling =
      config.iterations > 1
          ? std::pow(t1 / t0, 1.0 / static_cast<double>(config.iterations - 1))
          : 1.0;
  double temperature = t0;

  // Accumulated locally, flushed once after the annealing loop so the hot
  // path touches no TLS.
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const std::size_t device = rng.index(problem.num_devices());
    const std::size_t option = rng.index(problem.options(device).size());
    const std::size_t previous = tracker.profile()[device];
    if (option != previous) {
      ++proposals;
      // Evaluate before moving: the fast path gets Δ from the O(1)
      // per-resource delta, the oracle from a full sweep that reproduces
      // { move(); total_cost(); } bit-for-bit. Rejecting is then free — no
      // undo, so a rejected proposal leaves every tracked load's bits
      // untouched.
      const double delta =
          config.naive_scan
              ? tracker.total_cost_if_moved(device, option) - current_cost
              : tracker.delta_cost(device, option);
      const bool accept =
          delta <= 0.0 ||
          (temperature > 0.0 && rng.uniform(0.0, 1.0) <
                                    std::exp(-delta / temperature));
      if (accept) {
        ++accepted;
        tracker.move(device, option);
        // Re-derive the running cost from the tracked loads rather than
        // accumulating deltas, so both paths carry identical cost bits.
        current_cost = tracker.total_cost();
        if (current_cost < best.cost) {
          best.cost = current_cost;
          best.profile = tracker.profile();
        }
      }
    }
    temperature *= cooling;
    ++best.iterations;
  }
  counters::active().mcba_proposals += proposals;
  counters::active().mcba_accepted += accepted;
  return best;
}

}  // namespace eotora::core
