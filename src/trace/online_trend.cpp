#include "trace/online_trend.h"

#include <algorithm>

#include "util/check.h"

namespace eotora::trace {

OnlineTrendEstimator::OnlineTrendEstimator(std::size_t period, double alpha)
    : alpha_(alpha),
      phase_value_(period, 0.0),
      phase_seen_(period, false) {
  EOTORA_REQUIRE(period >= 1);
  EOTORA_REQUIRE_MSG(alpha > 0.0 && alpha <= 1.0, "alpha=" << alpha);
}

void OnlineTrendEstimator::observe(double value) {
  const std::size_t phase = count_ % phase_value_.size();
  if (!phase_seen_[phase]) {
    phase_value_[phase] = value;
    phase_seen_[phase] = true;
  } else {
    // Residual against the pre-update estimate (what a forecaster would
    // have predicted for this slot).
    residuals_.add(value - phase_value_[phase]);
    phase_value_[phase] =
        (1.0 - alpha_) * phase_value_[phase] + alpha_ * value;
  }
  ++count_;
}

double OnlineTrendEstimator::trend_at(std::size_t phase) const {
  EOTORA_REQUIRE(phase < phase_value_.size());
  return phase_value_[phase];
}

bool OnlineTrendEstimator::ready() const {
  return std::all_of(phase_seen_.begin(), phase_seen_.end(),
                     [](bool seen) { return seen; });
}

}  // namespace eotora::trace
