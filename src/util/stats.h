// Streaming and batch statistics used by metrics collection and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace eotora::util {

// Single-pass running statistics (Welford). O(1) memory; numerically stable.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  // Population variance / stddev (divides by n). Zero when count < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch helpers over a sample vector (the vector is copied for percentiles).
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double stddev(const std::vector<double>& xs);
// Linear-interpolation percentile, q in [0, 100]. Requires non-empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
// The same over samples already sorted ascending, without a copy.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double q);
// Pearson correlation of two equal-length, non-empty vectors.
[[nodiscard]] double correlation(const std::vector<double>& xs,
                                 const std::vector<double>& ys);

}  // namespace eotora::util
