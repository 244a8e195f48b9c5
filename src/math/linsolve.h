// Dense linear-system solving (Gaussian elimination with partial pivoting).
//
// Small systems only (polynomial fitting normal equations are 3x3 here), so a
// simple O(n^3) dense solver is the right tool.
#pragma once

#include <vector>

namespace eotora::math {

// Row-major dense matrix with minimal functionality.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

// Solves A x = b. Requires A square with A.rows() == b.size(). Throws
// std::invalid_argument on dimension mismatch and std::runtime_error when the
// matrix is (numerically) singular.
[[nodiscard]] std::vector<double> solve_linear(Matrix a,
                                               std::vector<double> b);

}  // namespace eotora::math
