#include "math/linsolve.h"

#include <cmath>
#include <stdexcept>

#include "util/check.h"

namespace eotora::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  EOTORA_REQUIRE(rows > 0 && cols > 0);
}

double& Matrix::at(std::size_t r, std::size_t c) {
  EOTORA_REQUIRE_MSG(r < rows_ && c < cols_, "r=" << r << " c=" << c);
  return data_[r * cols_ + c];
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  EOTORA_REQUIRE(a.cols() == n);
  EOTORA_REQUIRE(b.size() == n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest-magnitude entry to the diagonal.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a.at(r, col)) > std::fabs(a.at(pivot, col))) pivot = r;
    }
    if (std::fabs(a.at(pivot, col)) < 1e-14) {
      throw std::runtime_error("solve_linear: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.at(col, c), a.at(pivot, c));
      }
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a.at(r, col) / a.at(col, col);
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) {
        a.at(r, c) -= factor * a.at(col, c);
      }
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum -= a.at(ri, c) * x[c];
    }
    x[ri] = sum / a.at(ri, ri);
  }
  return x;
}

}  // namespace eotora::math
