#include "math/polyfit.h"

#include <gtest/gtest.h>

#include "math/linsolve.h"
#include "util/rng.h"

namespace eotora::math {
namespace {

TEST(Matrix, AccessAndBounds) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
  EXPECT_THROW((void)m.at(2, 0), std::invalid_argument);
  EXPECT_THROW(Matrix(0, 1), std::invalid_argument);
}

TEST(SolveLinear, SolvesKnownSystem) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 3.0;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a(2, 2);
  a.at(0, 0) = 0.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 0.0;
  const auto x = solve_linear(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_THROW((void)solve_linear(a, {1.0, 2.0}), std::runtime_error);
}

TEST(SolveLinear, RejectsShapeMismatch) {
  Matrix a(2, 3);
  EXPECT_THROW((void)solve_linear(a, {1.0, 2.0}), std::invalid_argument);
}

TEST(Polynomial, Evaluation) {
  // p(x) = 1 + 2x + 3x^2
  const Polynomial p{{1.0, 2.0, 3.0}};
  EXPECT_DOUBLE_EQ(p(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p(2.0), 17.0);
  EXPECT_EQ(p.degree(), 2);
}

TEST(Polyfit, ExactOnPolynomialData) {
  const std::vector<double> xs = {-2.0, -1.0, 0.0, 1.0, 2.0, 3.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(4.0 - 3.0 * x + 0.5 * x * x);
  const Polynomial p = polyfit(xs, ys, 2);
  ASSERT_EQ(p.coefficients.size(), 3u);
  EXPECT_NEAR(p.coefficients[0], 4.0, 1e-9);
  EXPECT_NEAR(p.coefficients[1], -3.0, 1e-9);
  EXPECT_NEAR(p.coefficients[2], 0.5, 1e-9);
  EXPECT_NEAR(fit_rmse(p, xs, ys), 0.0, 1e-9);
}

TEST(Polyfit, NoisyDataRecoversCoefficients) {
  util::Rng rng(17);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    xs.push_back(x);
    ys.push_back(2.0 + 1.5 * x - 0.8 * x * x + rng.normal(0.0, 0.05));
  }
  const Polynomial p = polyfit(xs, ys, 2);
  EXPECT_NEAR(p.coefficients[0], 2.0, 0.05);
  EXPECT_NEAR(p.coefficients[1], 1.5, 0.05);
  EXPECT_NEAR(p.coefficients[2], -0.8, 0.02);
}

TEST(Polyfit, DegreeZeroIsMean) {
  const Polynomial p = polyfit({1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}, 0);
  ASSERT_EQ(p.coefficients.size(), 1u);
  EXPECT_NEAR(p.coefficients[0], 4.0, 1e-12);
}

TEST(Polyfit, RejectsBadInput) {
  EXPECT_THROW((void)polyfit({1.0}, {1.0, 2.0}, 1), std::invalid_argument);
  EXPECT_THROW((void)polyfit({1.0, 2.0}, {1.0, 2.0}, 2),
               std::invalid_argument);
  EXPECT_THROW((void)polyfit({1.0, 2.0}, {1.0, 2.0}, -1),
               std::invalid_argument);
}

TEST(FitRmse, MeasuresResiduals) {
  const Polynomial p{{0.0, 1.0}};  // y = x
  EXPECT_NEAR(fit_rmse(p, {0.0, 1.0}, {1.0, 2.0}), 1.0, 1e-12);
}

}  // namespace
}  // namespace eotora::math
