// Online estimation of the periodic trend s̄_t from a live stream.
//
// The paper's model treats the periodic trends as given; a deployed
// controller has to LEARN them. OnlineTrendEstimator maintains per-phase
// exponential moving averages (one cell per slot-of-period), giving an
// anytime estimate of the trend plus the residual's running statistics —
// enough to sanity-check the "trend + iid noise" assumption online and to
// feed forecast-aware extensions.
#pragma once

#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace eotora::trace {

class OnlineTrendEstimator {
 public:
  // `period` D >= 1; `alpha` in (0, 1]: EMA weight of the newest sample
  // (1.0 = keep only the latest value per phase).
  OnlineTrendEstimator(std::size_t period, double alpha = 0.2);

  // Feeds the slot-t observation (slots must arrive in order, one per call).
  void observe(double value);

  [[nodiscard]] std::size_t observations() const { return count_; }
  [[nodiscard]] std::size_t period() const { return phase_value_.size(); }

  // Current estimate of the trend at phase p (0-based). Phases that have
  // never been observed return 0 and report ready() == false.
  [[nodiscard]] double trend_at(std::size_t phase) const;

  // True once every phase has at least one observation.
  [[nodiscard]] bool ready() const;

  // Residual statistics (observation minus current trend estimate at
  // observation time), updated from the second pass over each phase on.
  [[nodiscard]] const util::RunningStats& residuals() const {
    return residuals_;
  }

 private:
  double alpha_;
  std::vector<double> phase_value_;
  std::vector<bool> phase_seen_;
  std::size_t count_ = 0;
  util::RunningStats residuals_;
};

}  // namespace eotora::trace
