#include "math/polyfit.h"

#include <cmath>

#include "math/linsolve.h"
#include "util/check.h"

namespace eotora::math {

double Polynomial::operator()(double x) const {
  double value = 0.0;
  // Horner evaluation from the highest power down.
  for (std::size_t i = coefficients.size(); i-- > 0;) {
    value = value * x + coefficients[i];
  }
  return value;
}

Polynomial polyfit(const std::vector<double>& xs, const std::vector<double>& ys,
                   int degree) {
  EOTORA_REQUIRE(degree >= 0);
  EOTORA_REQUIRE(xs.size() == ys.size());
  EOTORA_REQUIRE_MSG(xs.size() > static_cast<std::size_t>(degree),
                     "need more samples than the polynomial degree");
  const auto n = static_cast<std::size_t>(degree) + 1;
  // Normal equations: (X^T X) c = X^T y with X the Vandermonde matrix.
  Matrix ata(n, n);
  std::vector<double> aty(n, 0.0);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    double xi = 1.0;  // xs[s]^row as the row loop progresses
    std::vector<double> powers(2 * n - 1, 0.0);
    double p = 1.0;
    for (std::size_t k = 0; k < 2 * n - 1; ++k) {
      powers[k] = p;
      p *= xs[s];
    }
    (void)xi;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        ata.at(r, c) += powers[r + c];
      }
      aty[r] += powers[r] * ys[s];
    }
  }
  Polynomial poly;
  poly.coefficients = solve_linear(std::move(ata), std::move(aty));
  return poly;
}

double fit_rmse(const Polynomial& poly, const std::vector<double>& xs,
                const std::vector<double>& ys) {
  EOTORA_REQUIRE(!xs.empty());
  EOTORA_REQUIRE(xs.size() == ys.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = poly(xs[i]) - ys[i];
    sum += r * r;
  }
  return std::sqrt(sum / static_cast<double>(xs.size()));
}

}  // namespace eotora::math
