#include "support/projgrad.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace eotora::math {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(SimplexProjection, PointAlreadyInSimplex) {
  const auto p = project_to_simplex({0.2, 0.3, 0.5});
  EXPECT_NEAR(p[0], 0.2, 1e-12);
  EXPECT_NEAR(p[1], 0.3, 1e-12);
  EXPECT_NEAR(p[2], 0.5, 1e-12);
}

TEST(SimplexProjection, ProjectionSumsToRadius) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> v(5);
    for (double& x : v) x = rng.uniform(-2.0, 2.0);
    const auto p = project_to_simplex(v, 1.0);
    EXPECT_NEAR(sum(p), 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
  }
}

TEST(SimplexProjection, CustomRadius) {
  const auto p = project_to_simplex({10.0, 0.0}, 2.0);
  EXPECT_NEAR(sum(p), 2.0, 1e-9);
  EXPECT_NEAR(p[0], 2.0, 1e-9);
}

TEST(SimplexProjection, IsIdempotent) {
  const auto p = project_to_simplex({0.9, -0.4, 0.8});
  const auto q = project_to_simplex(p);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(p[i], q[i], 1e-9);
}

TEST(SimplexProjection, RejectsBadArgs) {
  EXPECT_THROW((void)project_to_simplex({}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)project_to_simplex({1.0}, 0.0), std::invalid_argument);
}

// The closed-form optimum of min Σ c_i/x_i over the simplex is
// x_i = sqrt(c_i) / Σ sqrt(c_j) — exactly Lemma 1's shape. The projected
// gradient solver must land on it.
TEST(InverseOverSimplex, MatchesClosedForm) {
  const std::vector<double> costs = {1.0, 4.0, 9.0};
  const auto r = minimize_inverse_over_simplex(costs);
  const double denom = 1.0 + 2.0 + 3.0;
  EXPECT_NEAR(r.x[0], 1.0 / denom, 1e-3);
  EXPECT_NEAR(r.x[1], 2.0 / denom, 1e-3);
  EXPECT_NEAR(r.x[2], 3.0 / denom, 1e-3);
  // Objective within a hair of the closed-form optimum (Σ sqrt(c))².
  EXPECT_NEAR(r.value, denom * denom, denom * denom * 1e-4);
}

TEST(InverseOverSimplex, SingleVariableGetsEverything) {
  const auto r = minimize_inverse_over_simplex({7.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.value, 7.0, 1e-6);
}

TEST(InverseOverSimplex, RandomInstancesBeatUniform) {
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.index(6);
    std::vector<double> costs(n);
    for (double& c : costs) c = rng.uniform(0.1, 10.0);
    const auto r = minimize_inverse_over_simplex(costs);
    double uniform_value = 0.0;
    for (double c : costs) uniform_value += c * static_cast<double>(n);
    EXPECT_LE(r.value, uniform_value + 1e-9);
    // Closed-form optimum as the floor.
    double sqrt_sum = 0.0;
    for (double c : costs) sqrt_sum += std::sqrt(c);
    EXPECT_GE(r.value, sqrt_sum * sqrt_sum - 1e-9);
    EXPECT_NEAR(r.value, sqrt_sum * sqrt_sum, sqrt_sum * sqrt_sum * 1e-3);
  }
}

TEST(InverseOverSimplex, RejectsNonPositiveCosts) {
  EXPECT_THROW((void)minimize_inverse_over_simplex({1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)minimize_inverse_over_simplex({}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::math
