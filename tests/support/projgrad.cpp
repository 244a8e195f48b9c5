#include "support/projgrad.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace eotora::math {

std::vector<double> project_to_simplex(std::vector<double> v, double radius) {
  EOTORA_REQUIRE(radius > 0.0);
  EOTORA_REQUIRE(!v.empty());
  // Duchi et al.: sort descending, find the largest rho with
  // u[rho] - (cumsum(u[0..rho]) - radius) / (rho + 1) > 0.
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<>());
  double cumsum = 0.0;
  // i = 0 always satisfies the condition in exact arithmetic
  // (u[0] - (u[0] - radius) = radius > 0), so initialize from it and let
  // later indices improve; this keeps the routine robust to the FP edge case
  // where u[0] - theta rounds to zero for huge inputs.
  double best_theta = u[0] - radius;
  cumsum = u[0];
  for (std::size_t i = 1; i < u.size(); ++i) {
    cumsum += u[i];
    const double theta = (cumsum - radius) / static_cast<double>(i + 1);
    if (u[i] - theta > 0.0) {
      best_theta = theta;
    }
  }
  for (double& x : v) x = std::max(0.0, x - best_theta);
  return v;
}

SimplexMinResult minimize_inverse_over_simplex(const std::vector<double>& costs,
                                               double radius,
                                               int max_iterations,
                                               double floor_eps) {
  EOTORA_REQUIRE(!costs.empty());
  EOTORA_REQUIRE(radius > 0.0);
  for (double c : costs) EOTORA_REQUIRE_MSG(c > 0.0, "cost=" << c);

  const std::size_t n = costs.size();
  SimplexMinResult result;
  // Start from the uniform interior point.
  result.x.assign(n, radius / static_cast<double>(n));

  auto objective = [&](const std::vector<double>& x) {
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) v += costs[i] / x[i];
    return v;
  };
  auto interiorize = [&](std::vector<double> x) {
    x = project_to_simplex(std::move(x), radius);
    for (double& xi : x) xi = std::max(xi, floor_eps);
    return x;
  };

  double value = objective(result.x);
  double step = radius;  // backtracking shrinks this as needed
  std::vector<double> grad(n, 0.0);
  std::vector<double> candidate(n, 0.0);
  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    double grad_norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = -costs[i] / (result.x[i] * result.x[i]);
      grad_norm += grad[i] * grad[i];
    }
    grad_norm = std::sqrt(grad_norm);
    if (grad_norm == 0.0) break;

    // Backtracking: accept the first step that strictly improves the
    // objective; monotone descent keeps iterates well-behaved despite the
    // 1/x barrier.
    bool improved = false;
    double trial_step = step;
    for (int halving = 0; halving < 60; ++halving) {
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = result.x[i] - trial_step / grad_norm * grad[i];
      }
      candidate = interiorize(std::move(candidate));
      const double candidate_value = objective(candidate);
      if (candidate_value < value) {
        result.x = candidate;
        value = candidate_value;
        improved = true;
        // Gentle growth so the step adapts upward after easy progress.
        step = trial_step * 2.0;
        break;
      }
      trial_step *= 0.5;
    }
    if (!improved) break;  // stationary to line-search resolution
  }
  result.value = value;
  result.iterations = iter;
  return result;
}

}  // namespace eotora::math
