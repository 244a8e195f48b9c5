// One-dimensional minimization of convex functions on a closed interval.
//
// This is the library's replacement for the paper's CVX call: after the P2-B
// subproblem is decomposed per server (see core/p2b.h), each piece is a 1-D
// convex problem  min_{w in [lo, hi]}  V*A/w + Q*p*g(w), which these routines
// solve to a guaranteed tolerance.
#pragma once

#include <functional>

namespace eotora::math {

struct Minimize1DResult {
  double x = 0.0;       // arg min within [lo, hi]
  double value = 0.0;   // f(x)
  int evaluations = 0;  // number of function (or derivative) calls
};

// Bisection on a nondecreasing derivative (valid for convex f). Returns the
// point where df crosses zero, clamped to the interval ends when the
// derivative does not change sign. `f` is only used to report `value`.
[[nodiscard]] Minimize1DResult derivative_bisection(
    const std::function<double(double)>& f,
    const std::function<double(double)>& df, double lo, double hi,
    double tolerance = 1e-10, int max_iterations = 200);

}  // namespace eotora::math
