#include <gtest/gtest.h>

#include "trace/decompose.h"
#include "trace/noise.h"
#include "trace/periodic.h"
#include "trace/price_trace.h"
#include "trace/workload_trace.h"
#include "util/rng.h"
#include "util/stats.h"

namespace eotora::trace {
namespace {

TEST(PeriodicTrend, FoldsModuloPeriod) {
  const PeriodicTrend trend({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(trend.at(0), 1.0);
  EXPECT_DOUBLE_EQ(trend.at(4), 2.0);
  EXPECT_DOUBLE_EQ(trend.at(300), 1.0);
  EXPECT_EQ(trend.period(), 3u);
}

TEST(PeriodicTrend, MinMax) {
  const PeriodicTrend trend({2.0, 6.0, 4.0});
  EXPECT_DOUBLE_EQ(trend.min(), 2.0);
  EXPECT_DOUBLE_EQ(trend.max(), 6.0);
}

TEST(PeriodicTrend, DiurnalSpansRangeAndPeaksWherePlaced) {
  const auto trend = PeriodicTrend::diurnal(24, 10.0, 90.0, 0.75);
  EXPECT_NEAR(trend.min(), 10.0, 1e-9);
  EXPECT_NEAR(trend.max(), 90.0, 1e-9);
  EXPECT_NEAR(trend.at(18), 90.0, 1e-9);  // peak at 0.75 * 24 = slot 18
}

TEST(PeriodicTrend, RejectsBadArguments) {
  EXPECT_THROW(PeriodicTrend({}), std::invalid_argument);
  EXPECT_THROW((void)PeriodicTrend::diurnal(1, 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)PeriodicTrend::diurnal(24, 2.0, 1.0),
               std::invalid_argument);
}

TEST(NoiseModel, ZeroSpreadIsZero) {
  util::Rng rng(1);
  const NoiseModel noise(NoiseModel::Kind::kGaussian, 0.0);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(noise.sample(rng), 0.0);
}

TEST(NoiseModel, GaussianIsClampedAndRoughlyZeroMean) {
  util::Rng rng(2);
  const NoiseModel noise(NoiseModel::Kind::kGaussian, 2.0);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const double x = noise.sample(rng);
    EXPECT_LE(std::abs(x), 6.0 + 1e-12);
    sum += x;
  }
  EXPECT_NEAR(sum / 5000.0, 0.0, 0.15);
}

TEST(NoiseModel, UniformRespectsSupport) {
  util::Rng rng(3);
  const NoiseModel noise(NoiseModel::Kind::kUniform, 1.5);
  for (int i = 0; i < 1000; ++i) {
    const double x = noise.sample(rng);
    EXPECT_GE(x, -1.5);
    EXPECT_LE(x, 1.5);
  }
}

TEST(PriceTrace, PricesPositiveAndBounded) {
  PriceTraceConfig config;
  PriceTrace trace(config, util::Rng(5));
  for (int t = 0; t < 24 * 30; ++t) {
    const double p = trace.next();
    EXPECT_GE(p, config.floor_price);
    EXPECT_LE(p, config.peak_price * config.spike_multiplier + 30.0);
  }
}

TEST(PriceTrace, HasDiurnalStructure) {
  PriceTraceConfig config;
  config.spike_probability = 0.0;
  config.noise_stddev = 0.0;
  const auto prices = PriceTrace::generate(config, 48, util::Rng(1));
  // Pure trend: day 2 repeats day 1.
  for (int t = 0; t < 24; ++t) EXPECT_DOUBLE_EQ(prices[t], prices[t + 24]);
  // Peak hour is more expensive than trough hour.
  EXPECT_GT(prices[18], prices[6]);
}

TEST(PriceTrace, DecompositionRecoversPeriodicTrend) {
  PriceTraceConfig config;
  config.spike_probability = 0.0;
  const auto prices = PriceTrace::generate(config, 24 * 60, util::Rng(9));
  const auto decomposition = decompose(prices, 24);
  // The folded trend tracks the configured diurnal shape.
  PriceTrace reference(config, util::Rng(9));
  for (std::size_t hour = 0; hour < 24; ++hour) {
    EXPECT_NEAR(decomposition.trend.at(hour), reference.trend_at(hour), 4.0);
  }
  EXPECT_NEAR(decomposition.residual_mean, 0.0, 1.0);
}

TEST(PriceTrace, RejectsBadConfig) {
  PriceTraceConfig config;
  config.peak_price = config.off_peak_price - 1.0;
  EXPECT_THROW(PriceTrace(config, util::Rng(1)), std::invalid_argument);
}

TEST(WorkloadTrace, DrawsStayInRange) {
  WorkloadTraceConfig config;
  config.devices = 5;
  config.low = 50e6;
  config.high = 200e6;
  WorkloadTrace trace(config, util::Rng(4));
  for (int t = 0; t < 200; ++t) {
    const auto values = trace.next();
    ASSERT_EQ(values.size(), 5u);
    for (double v : values) {
      EXPECT_GE(v, 50e6);
      EXPECT_LE(v, 200e6);
    }
  }
}

TEST(WorkloadTrace, FullTrendIsDeterministicAndPeriodic) {
  WorkloadTraceConfig config;
  config.trend_weight = 1.0;
  config.period = 12;
  WorkloadTrace trace(config, util::Rng(4));
  std::vector<double> series;
  for (int t = 0; t < 24; ++t) series.push_back(trace.next()[0]);
  for (int t = 0; t < 12; ++t) EXPECT_DOUBLE_EQ(series[t], series[t + 12]);
}

TEST(WorkloadTrace, ZeroTrendWeightIsIidUniform) {
  WorkloadTraceConfig config;
  config.trend_weight = 0.0;
  config.low = 10.0;
  config.high = 20.0;
  WorkloadTrace trace(config, util::Rng(8));
  util::RunningStats stats;
  for (int t = 0; t < 5000; ++t) stats.add(trace.next()[0]);
  EXPECT_NEAR(stats.mean(), 15.0, 0.3);
  EXPECT_GT(stats.min(), 10.0 - 1e-9);
  EXPECT_LT(stats.max(), 20.0 + 1e-9);
}

TEST(WorkloadTrace, RejectsBadConfig) {
  WorkloadTraceConfig config;
  config.low = 10.0;
  config.high = 5.0;
  EXPECT_THROW(WorkloadTrace(config, util::Rng(1)), std::invalid_argument);
}

TEST(Decompose, RecoversExactPeriodicSeries) {
  std::vector<double> series;
  for (int t = 0; t < 40; ++t) {
    series.push_back(static_cast<double>(t % 4));
  }
  const auto d = decompose(series, 4);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(d.trend.at(p), static_cast<double>(p));
  }
  EXPECT_NEAR(d.residual_stddev, 0.0, 1e-12);
}

TEST(Decompose, ResidualOfNoisySeriesHasNoiseStats) {
  util::Rng rng(6);
  std::vector<double> series;
  for (int t = 0; t < 24 * 100; ++t) {
    series.push_back(10.0 + 5.0 * (t % 24 == 12 ? 1.0 : 0.0) +
                     rng.normal(0.0, 0.5));
  }
  const auto d = decompose(series, 24);
  EXPECT_NEAR(d.residual_stddev, 0.5, 0.05);
  EXPECT_NEAR(d.residual_mean, 0.0, 0.05);
}

TEST(Decompose, RejectsShortSeries) {
  EXPECT_THROW((void)decompose({1.0, 2.0}, 3), std::invalid_argument);
}

TEST(Autocorrelation, PeriodicSeriesPeaksAtPeriod) {
  std::vector<double> series;
  for (int t = 0; t < 240; ++t) {
    series.push_back(t % 24 < 12 ? 1.0 : -1.0);
  }
  EXPECT_GT(autocorrelation(series, 24), 0.8);
  EXPECT_LT(autocorrelation(series, 12), -0.5);
}

TEST(Autocorrelation, LagZeroIsOne) {
  const std::vector<double> series = {1.0, 3.0, 2.0, 5.0};
  EXPECT_NEAR(autocorrelation(series, 0), 1.0, 1e-12);
}

TEST(Autocorrelation, RejectsLagOutOfRange) {
  EXPECT_THROW((void)autocorrelation({1.0, 2.0}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace eotora::trace
