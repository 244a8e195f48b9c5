// Periodic trend component of the paper's non-iid system states.
//
// Section III-A models every state as  s_t = s̄_t + e_t  with s̄ a periodic
// trend of period D and e iid noise. PeriodicTrend stores one period of the
// trend and evaluates it at any slot index.
#pragma once

#include <cstddef>
#include <vector>

namespace eotora::trace {

class PeriodicTrend {
 public:
  // `one_period` holds the trend values for slots 0..D-1; D = size().
  explicit PeriodicTrend(std::vector<double> one_period);

  // Trend value at slot t (t is folded modulo the period).
  [[nodiscard]] double at(std::size_t t) const;

  [[nodiscard]] std::size_t period() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // A smooth diurnal shape: trough in the early hours, peak in the evening.
  // `period` slots per day; values span [low, high]. Requires period >= 2 and
  // low <= high.
  static PeriodicTrend diurnal(std::size_t period, double low, double high,
                               double peak_position = 0.75);

  // Constant trend (degenerate period of 1).
  static PeriodicTrend constant(double value);

 private:
  std::vector<double> values_;
};

}  // namespace eotora::trace
