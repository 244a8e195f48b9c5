#include "core/beta_only.h"

#include "core/latency.h"
#include "util/check.h"
#include "util/rng.h"

namespace eotora::core {

BetaOnlyResult solve_beta_only(const Instance& instance,
                               const SlotState& state, double target_cost,
                               const BetaOnlyConfig& config) {
  EOTORA_REQUIRE(target_cost > 0.0);
  EOTORA_REQUIRE(config.max_multiplier > 0.0);
  EOTORA_REQUIRE(config.iterations > 0);

  // One workspace for every probe of the slot, so the probes share the
  // slot's component plan and arenas; each starts cold, as a fresh one would.
  BdmaWorkspace workspace;
  auto run = [&](double q) {
    // Identical randomization across multiplier probes keeps the bisection
    // monotone in q (the only thing that changes is the energy pressure).
    util::Rng probe_rng(12345);
    workspace.carried = Assignment{};
    return bdma(instance, state, /*v=*/1.0, q, config.bdma, probe_rng,
                workspace);
  };

  BetaOnlyResult result;
  // q = 0: pure latency minimization. If it already fits, done.
  BdmaResult best = run(0.0);
  double cost = instance.energy_cost(best.frequencies, state.price_per_mwh);
  if (cost <= target_cost) {
    result.multiplier = 0.0;
  } else {
    // Check feasibility at the largest multiplier (≈ minimum frequencies).
    BdmaResult floor = run(config.max_multiplier);
    const double floor_cost =
        instance.energy_cost(floor.frequencies, state.price_per_mwh);
    if (floor_cost > target_cost) {
      // Even the cheapest operating point busts the target: return it.
      result.assignment = floor.assignment;
      result.frequencies = floor.frequencies;
      result.latency = floor.latency;
      result.energy_cost = floor_cost;
      result.multiplier = config.max_multiplier;
      return result;
    }
    double lo = 0.0;
    double hi = config.max_multiplier;
    best = floor;
    result.multiplier = hi;
    for (int iter = 0; iter < config.iterations; ++iter) {
      const double mid = 0.5 * (lo + hi);
      const BdmaResult probe = run(mid);
      const double probe_cost =
          instance.energy_cost(probe.frequencies, state.price_per_mwh);
      if (probe_cost <= target_cost) {
        // Feasible: keep it (it has a smaller multiplier, hence weakly
        // better latency than the previous feasible point) and relax q.
        best = probe;
        result.multiplier = mid;
        hi = mid;
        if (probe_cost >= target_cost * (1.0 - config.cost_tolerance)) break;
      } else {
        lo = mid;
      }
    }
  }
  result.assignment = best.assignment;
  result.frequencies = best.frequencies;
  result.latency = best.latency;
  result.energy_cost =
      instance.energy_cost(best.frequencies, state.price_per_mwh);
  return result;
}

}  // namespace eotora::core
