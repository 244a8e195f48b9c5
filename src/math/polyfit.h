// Least-squares polynomial fitting.
//
// Used to reproduce the paper's Fig. 3: a quadratic fit of measured CPU power
// versus clock frequency for the i7-3770K samples.
#pragma once

#include <vector>

namespace eotora::math {

// Coefficients in ascending-power order: p(x) = c[0] + c[1] x + ... c[d] x^d.
struct Polynomial {
  std::vector<double> coefficients;

  [[nodiscard]] double operator()(double x) const;
  [[nodiscard]] int degree() const {
    return static_cast<int>(coefficients.size()) - 1;
  }
};

// Fits a degree-`degree` polynomial minimizing sum of squared residuals via
// the normal equations. Requires xs.size() == ys.size() > degree.
[[nodiscard]] Polynomial polyfit(const std::vector<double>& xs,
                                 const std::vector<double>& ys, int degree);

// Root-mean-square residual of a fit over the sample points.
[[nodiscard]] double fit_rmse(const Polynomial& poly,
                              const std::vector<double>& xs,
                              const std::vector<double>& ys);

}  // namespace eotora::math
