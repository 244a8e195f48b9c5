#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace eotora::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, MatchesBatchFormulas) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), mean(xs));
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_DOUBLE_EQ(s.sum(), 31.0);
}

TEST(BatchStats, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);  // classic example
}

TEST(BatchStats, RejectEmpty) {
  EXPECT_THROW((void)mean({}), std::invalid_argument);
  EXPECT_THROW((void)stddev({}), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(Percentile, Endpoints) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, RejectsOutOfRangeQ) {
  EXPECT_THROW((void)percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Correlation, PerfectPositiveAndNegative) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(correlation(xs, zs), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesGivesZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(correlation(xs, ys), 0.0);
}

TEST(Correlation, RejectsMismatchedLengths) {
  EXPECT_THROW((void)correlation({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace eotora::util
