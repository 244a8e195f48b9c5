// Fitting energy models from measured samples and generating the paper's
// randomized per-server model family.
//
// §VI-A: fit a quadratic a w^2 + b w + c to the i7-3770K power dots, then for
// each server draw a standard normal e and use coefficients a(1+0.01e),
// b(1+0.1e), c(1+0.1e).
#pragma once

#include <memory>
#include <vector>

#include "energy/cpu_power_data.h"
#include "energy/quadratic_energy.h"
#include "util/rng.h"

namespace eotora::energy {

// Least-squares quadratic fit of the samples. Requires >= 3 samples and a
// convex fit (a >= 0), which holds for the embedded CPU data.
[[nodiscard]] QuadraticEnergy fit_quadratic(
    const std::vector<PowerSample>& samples);

// The reference fit of the embedded i7-3770K dataset.
[[nodiscard]] QuadraticEnergy reference_cpu_fit();

// One randomly perturbed server model per the paper's recipe. A single
// standard-normal draw perturbs all three coefficients coherently; `e` is
// clamped to keep the quadratic coefficient positive.
[[nodiscard]] QuadraticEnergy perturbed_model(const QuadraticEnergy& base,
                                              util::Rng& rng);

}  // namespace eotora::energy
