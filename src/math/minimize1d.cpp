#include "math/minimize1d.h"

#include "util/check.h"

namespace eotora::math {

Minimize1DResult derivative_bisection(const std::function<double(double)>& f,
                                      const std::function<double(double)>& df,
                                      double lo, double hi, double tolerance,
                                      int max_iterations) {
  EOTORA_REQUIRE_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
  EOTORA_REQUIRE(tolerance > 0.0);
  Minimize1DResult result;
  int evals = 0;
  const double dlo = df(lo);
  const double dhi = df(hi);
  evals += 2;
  if (dlo >= 0.0) {
    // Function is nondecreasing on the whole interval: minimum at lo.
    result.x = lo;
  } else if (dhi <= 0.0) {
    // Nonincreasing everywhere: minimum at hi.
    result.x = hi;
  } else {
    double a = lo;
    double b = hi;
    for (int iter = 0; iter < max_iterations && (b - a) > tolerance; ++iter) {
      const double mid = 0.5 * (a + b);
      const double dm = df(mid);
      ++evals;
      if (dm < 0.0) {
        a = mid;
      } else {
        b = mid;
      }
    }
    result.x = 0.5 * (a + b);
  }
  result.value = f(result.x);
  result.evaluations = evals + 1;
  return result;
}

}  // namespace eotora::math
