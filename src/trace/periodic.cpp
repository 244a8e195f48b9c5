#include "trace/periodic.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace eotora::trace {

PeriodicTrend::PeriodicTrend(std::vector<double> one_period)
    : values_(std::move(one_period)) {
  EOTORA_REQUIRE(!values_.empty());
}

double PeriodicTrend::at(std::size_t t) const {
  return values_[t % values_.size()];
}

double PeriodicTrend::min() const {
  return *std::min_element(values_.begin(), values_.end());
}

double PeriodicTrend::max() const {
  return *std::max_element(values_.begin(), values_.end());
}

PeriodicTrend PeriodicTrend::diurnal(std::size_t period, double low,
                                     double high, double peak_position) {
  EOTORA_REQUIRE(period >= 2);
  EOTORA_REQUIRE_MSG(low <= high, "low=" << low << " high=" << high);
  EOTORA_REQUIRE(peak_position >= 0.0 && peak_position <= 1.0);
  std::vector<double> values(period, 0.0);
  const double amplitude = 0.5 * (high - low);
  const double midpoint = 0.5 * (high + low);
  for (std::size_t t = 0; t < period; ++t) {
    const double phase = 2.0 * std::numbers::pi *
                         (static_cast<double>(t) / static_cast<double>(period) -
                          peak_position);
    // cos(phase) == 1 exactly at the peak position.
    values[t] = midpoint + amplitude * std::cos(phase);
  }
  return PeriodicTrend(std::move(values));
}

PeriodicTrend PeriodicTrend::constant(double value) {
  return PeriodicTrend({value});
}

}  // namespace eotora::trace
