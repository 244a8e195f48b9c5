#include <gtest/gtest.h>

#include "energy/cpu_power_data.h"
#include "energy/fit.h"
#include "energy/linear_energy.h"
#include "energy/piecewise_energy.h"
#include "energy/quadratic_energy.h"
#include "math/numderiv.h"
#include "util/rng.h"

namespace eotora::energy {
namespace {

TEST(QuadraticEnergy, EvaluatesPolynomial) {
  const QuadraticEnergy model(2.0, 3.0, 5.0);
  EXPECT_DOUBLE_EQ(model.power(0.0), 5.0);
  EXPECT_DOUBLE_EQ(model.power(2.0), 2.0 * 4.0 + 3.0 * 2.0 + 5.0);
  EXPECT_DOUBLE_EQ(model.power_derivative(2.0), 2.0 * 2.0 * 2.0 + 3.0);
}

TEST(QuadraticEnergy, DerivativeMatchesNumeric) {
  const QuadraticEnergy model(1.7, -0.4, 10.0);
  for (double w : {1.8, 2.5, 3.6}) {
    EXPECT_NEAR(model.power_derivative(w),
                math::numeric_derivative(
                    [&](double x) { return model.power(x); }, w),
                1e-5);
  }
}

TEST(QuadraticEnergy, RejectsConcave) {
  EXPECT_THROW(QuadraticEnergy(-1.0, 0.0, 0.0), std::invalid_argument);
}

TEST(QuadraticEnergy, CloneIsDeepEqual) {
  const QuadraticEnergy model(1.0, 2.0, 3.0);
  const auto copy = model.clone();
  EXPECT_DOUBLE_EQ(copy->power(2.2), model.power(2.2));
}

TEST(LinearEnergy, EvaluatesLine) {
  const LinearEnergy model(4.0, 10.0);
  EXPECT_DOUBLE_EQ(model.power(2.0), 18.0);
  EXPECT_DOUBLE_EQ(model.power_derivative(99.0), 4.0);
  EXPECT_THROW(LinearEnergy(-1.0, 0.0), std::invalid_argument);
}

TEST(PiecewiseEnergy, InterpolatesBetweenSamples) {
  const PiecewiseLinearEnergy model({1.0, 2.0, 3.0}, {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(model.power(1.5), 15.0);
  EXPECT_DOUBLE_EQ(model.power(2.5), 30.0);
  EXPECT_DOUBLE_EQ(model.power(2.0), 20.0);
}

TEST(PiecewiseEnergy, ExtrapolatesWithEndSlopes) {
  const PiecewiseLinearEnergy model({1.0, 2.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(model.power(0.5), 5.0);
  EXPECT_DOUBLE_EQ(model.power(3.0), 30.0);
}

TEST(PiecewiseEnergy, DerivativeIsSegmentSlope) {
  const PiecewiseLinearEnergy model({1.0, 2.0, 3.0}, {10.0, 20.0, 40.0});
  EXPECT_DOUBLE_EQ(model.power_derivative(1.5), 10.0);
  EXPECT_DOUBLE_EQ(model.power_derivative(2.5), 20.0);
}

TEST(PiecewiseEnergy, RejectsNonConvexSamples) {
  // Slopes 20 then 5: concave.
  EXPECT_THROW(PiecewiseLinearEnergy({1.0, 2.0, 3.0}, {0.0, 20.0, 25.0}),
               std::invalid_argument);
}

TEST(PiecewiseEnergy, RejectsUnsortedFrequencies) {
  EXPECT_THROW(PiecewiseLinearEnergy({2.0, 1.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseLinearEnergy({1.0}, {1.0}), std::invalid_argument);
}

TEST(CpuPowerData, SamplesAreConvexIncreasingInPaperRange) {
  const auto& samples = i7_3770k_samples();
  ASSERT_GE(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples.front().ghz, 1.8);
  EXPECT_DOUBLE_EQ(samples.back().ghz, 3.6);
  double last_slope = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].ghz, samples[i - 1].ghz);
    EXPECT_GT(samples[i].watts, samples[i - 1].watts);
    const double slope = (samples[i].watts - samples[i - 1].watts) /
                         (samples[i].ghz - samples[i - 1].ghz);
    EXPECT_GE(slope, last_slope - 1e-9) << "non-convex at sample " << i;
    last_slope = slope;
  }
}

TEST(Fit, QuadraticFitsCpuDataTightly) {
  const QuadraticEnergy fit = reference_cpu_fit();
  EXPECT_GT(fit.a(), 0.0);  // convex, as Fig. 3 shows
  // The fit should track every sample within a watt or two.
  for (const auto& s : i7_3770k_samples()) {
    EXPECT_NEAR(fit.power(s.ghz), s.watts, 2.0) << "at " << s.ghz << " GHz";
  }
}

TEST(Fit, PerturbedModelFollowsPaperRecipe) {
  const QuadraticEnergy base = reference_cpu_fit();
  util::Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const QuadraticEnergy perturbed = perturbed_model(base, rng);
    // Coefficients scale by (1 + 0.01e), (1 + 0.1e), (1 + 0.1e) with |e|<=3.
    EXPECT_GE(perturbed.a(), base.a() * 0.97 - 1e-9);
    EXPECT_LE(perturbed.a(), base.a() * 1.03 + 1e-9);
    const double eb = perturbed.b() / base.b() - 1.0;
    const double ec = perturbed.c() / base.c() - 1.0;
    EXPECT_LE(std::abs(eb), 0.3 + 1e-9);
    // The same e drives all three coefficients.
    EXPECT_NEAR(eb, ec, 1e-9);
    const double ea = (perturbed.a() / base.a() - 1.0) * 10.0;
    EXPECT_NEAR(ea, eb, 1e-9);
    // Perturbed model remains positive over the DVFS range.
    for (double w : {1.8, 2.7, 3.6}) EXPECT_GT(perturbed.power(w), 0.0);
  }
}

TEST(Fit, RejectsTooFewSamples) {
  EXPECT_THROW((void)fit_quadratic({{1.0, 1.0}, {2.0, 2.0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::energy
