#include "trace/online_trend.h"

#include <gtest/gtest.h>

#include "trace/price_trace.h"
#include "util/rng.h"

namespace eotora::trace {
namespace {

TEST(OnlineTrend, LearnsPureSineExactlyWithAlphaOne) {
  const auto truth = PeriodicTrend::diurnal(24, 10.0, 50.0);
  OnlineTrendEstimator estimator(24, /*alpha=*/1.0);
  for (int t = 0; t < 48; ++t) estimator.observe(truth.at(t));
  ASSERT_TRUE(estimator.ready());
  for (std::size_t p = 0; p < 24; ++p) {
    EXPECT_DOUBLE_EQ(estimator.trend_at(p), truth.at(p));
  }
  // Residuals of a noiseless periodic stream are zero.
  EXPECT_NEAR(estimator.residuals().mean(), 0.0, 1e-12);
  EXPECT_NEAR(estimator.residuals().stddev(), 0.0, 1e-12);
}

TEST(OnlineTrend, NotReadyBeforeFullPeriod) {
  OnlineTrendEstimator estimator(10);
  for (int t = 0; t < 9; ++t) estimator.observe(1.0);
  EXPECT_FALSE(estimator.ready());
  estimator.observe(1.0);
  EXPECT_TRUE(estimator.ready());
  EXPECT_EQ(estimator.observations(), 10u);
}

TEST(OnlineTrend, ConvergesOnNoisyPeriodicStream) {
  PriceTraceConfig config;
  config.spike_probability = 0.0;
  PriceTrace trace(config, util::Rng(9));
  OnlineTrendEstimator estimator(24, 0.1);
  for (int t = 0; t < 24 * 120; ++t) estimator.observe(trace.next());
  ASSERT_TRUE(estimator.ready());
  // The learned trend tracks the generator's trend within a few $/MWh.
  for (std::size_t p = 0; p < 24; ++p) {
    EXPECT_NEAR(estimator.trend_at(p), trace.trend_at(p), 5.0)
        << "phase " << p;
  }
  // Residual spread is on the order of the injected noise.
  EXPECT_NEAR(estimator.residuals().stddev(), config.noise_stddev,
              config.noise_stddev);
}

TEST(OnlineTrend, RejectsBadConstruction) {
  EXPECT_THROW(OnlineTrendEstimator(0), std::invalid_argument);
  EXPECT_THROW(OnlineTrendEstimator(24, 0.0), std::invalid_argument);
  EXPECT_THROW(OnlineTrendEstimator(24, 1.5), std::invalid_argument);
}

TEST(OnlineTrend, PhaseAccessorBoundsChecked) {
  OnlineTrendEstimator estimator(4);
  EXPECT_THROW((void)estimator.trend_at(4), std::invalid_argument);
}

}  // namespace
}  // namespace eotora::trace
