#include "sim/policy.h"

namespace eotora::sim {

core::Frequencies frequencies_at_fraction(const core::Instance& instance,
                                          double fraction) {
  const auto lo = instance.min_frequencies();
  const auto hi = instance.max_frequencies();
  core::Frequencies freq(lo.size());
  for (std::size_t n = 0; n < lo.size(); ++n) {
    freq[n] = lo[n] + fraction * (hi[n] - lo[n]);
  }
  return freq;
}

double greedy_budget_fraction(const core::Instance& instance, double price) {
  const double budget = instance.budget_per_slot();
  double fraction = 0.0;
  if (instance.energy_cost(frequencies_at_fraction(instance, 1.0), price) <=
      budget) {
    fraction = 1.0;
  } else if (instance.energy_cost(frequencies_at_fraction(instance, 0.0),
                                  price) < budget) {
    double lo = 0.0;
    double hi = 1.0;
    for (int iter = 0; iter < 50; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (instance.energy_cost(frequencies_at_fraction(instance, mid),
                               price) <= budget) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    fraction = lo;
  }  // else: even F^L busts the budget — run at the floor.
  return fraction;
}

}  // namespace eotora::sim
