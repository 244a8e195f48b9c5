#include "math/minimize1d.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eotora::math {
namespace {

double quadratic(double x) { return (x - 2.0) * (x - 2.0) + 1.0; }
double dquadratic(double x) { return 2.0 * (x - 2.0); }

TEST(DerivativeBisection, FindsInteriorMinimum) {
  const auto r = derivative_bisection(quadratic, dquadratic, 0.0, 5.0, 1e-12);
  EXPECT_NEAR(r.x, 2.0, 1e-9);
}

TEST(DerivativeBisection, ClampsWhenMonotone) {
  // Increasing on the interval: minimum at lo.
  const auto lo = derivative_bisection(quadratic, dquadratic, 3.0, 5.0);
  EXPECT_DOUBLE_EQ(lo.x, 3.0);
  // Decreasing on the interval: minimum at hi.
  const auto hi = derivative_bisection(quadratic, dquadratic, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(hi.x, 1.0);
}

TEST(DerivativeBisection, HandlesNonSymmetricConvexFunction) {
  // The P2-B per-server shape: A/w + c*w^2 on [1, 4].
  auto f = [](double w) { return 10.0 / w + 0.8 * w * w; };
  auto df = [](double w) { return -10.0 / (w * w) + 1.6 * w; };
  // Stationary point: -10/w^2 + 1.6 w = 0  =>  w = (10/1.6)^(1/3).
  const double expected = std::cbrt(10.0 / 1.6);
  const auto r = derivative_bisection(f, df, 1.0, 4.0, 1e-10);
  EXPECT_NEAR(r.x, expected, 1e-6);
}

}  // namespace
}  // namespace eotora::math
