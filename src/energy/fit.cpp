#include "energy/fit.h"

#include <algorithm>

#include "math/polyfit.h"
#include "util/check.h"

namespace eotora::energy {

QuadraticEnergy fit_quadratic(const std::vector<PowerSample>& samples) {
  EOTORA_REQUIRE(samples.size() >= 3);
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const auto& s : samples) {
    xs.push_back(s.ghz);
    ys.push_back(s.watts);
  }
  const math::Polynomial poly = math::polyfit(xs, ys, 2);
  EOTORA_ASSERT(poly.coefficients.size() == 3);
  return QuadraticEnergy(poly.coefficients[2], poly.coefficients[1],
                         poly.coefficients[0]);
}

QuadraticEnergy reference_cpu_fit() {
  return fit_quadratic(i7_3770k_samples());
}

QuadraticEnergy perturbed_model(const QuadraticEnergy& base, util::Rng& rng) {
  // Clamp |e| <= 3 so a(1 + 0.01e) stays positive and the family remains a
  // physically plausible spread around the reference part.
  const double e = std::clamp(rng.normal(), -3.0, 3.0);
  return QuadraticEnergy(base.a() * (1.0 + 0.01 * e),
                         base.b() * (1.0 + 0.1 * e),
                         base.c() * (1.0 + 0.1 * e));
}

}  // namespace eotora::energy
