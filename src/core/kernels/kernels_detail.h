// Shared per-lane routines for the kernel backends. Every SIMD backend falls
// back to these for scan/bisection tails, so the scalar semantics live in
// exactly one place.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/kernels/kernels.h"

namespace eotora::core::kernels::detail {

// Backend factories (each TU registers its backend here; a factory returns
// nullptr when the backend is not compiled in on this target).
[[nodiscard]] const Backend* scalar_backend();
[[nodiscard]] const Backend* avx2_backend();

inline void sqrt_div_scalar(const double* num, const double* den, double* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::sqrt(num[i] / den[i]);
}

inline void div_gather_scalar(const double* num, const double* den,
                              const std::uint32_t* key, double* out,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = num[i] / den[key[i]];
}

// One scan step: candidate entry a with cost c against the running champion.
// Mirrors LoadTracker::best_response's strict-< update (first occurrence of
// the minimum wins).
inline void scan_consider(std::uint32_t a, double c, double& best_cost,
                          std::uint32_t& best_entry) {
  if (c < best_cost) {
    best_cost = c;
    best_entry = a;
  }
}

inline ScanHit scan_scalar(const double* tc,
                           const std::uint32_t* server_of_entry,
                           const ScanGroup* groups, std::size_t num_groups,
                           const double* ta, const double* tf,
                           std::uint32_t skip_entry, double bound) {
  double best_cost = bound;
  std::uint32_t best_entry = kNoEntry;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const ScanGroup& grp = groups[g];
    const double a_term = ta[grp.bs];
    const double f_term = tf[grp.bs];
    for (std::uint32_t a = grp.begin; a < grp.end; ++a) {
      if (a == skip_entry) continue;
      // cost_if_moved's left-associated (t_compute + t_access) + t_fronthaul.
      const double c = (tc[server_of_entry[a]] + a_term) + f_term;
      scan_consider(a, c, best_cost, best_entry);
    }
  }
  return {best_entry, best_cost};
}

// d/dw of the per-server P2-B objective with the affine energy-model
// derivative slope·w + intercept. Operation order matches the open-coded
// lambda in core/p2b.cpp exactly:
//   -V·A / (cores·w·w·1e9) + scale · ((slope·w + intercept) · cores / 4.0)
// (the trailing · cores / 4.0 is Server::power_derivative_watts' scaling).
inline double p2b_derivative_affine(double neg_va, double cores, double scale,
                                    double d_slope, double d_intercept,
                                    double w) {
  const double den = cores * w * w * 1e9;
  const double pd = d_slope * w + d_intercept;
  const double watts = pd * cores / 4.0;
  return neg_va / den + scale * watts;
}

// One derivative bisection, reproducing math::derivative_bisection's
// endpoint tests, midpoint updates, and iteration cutoff bit-for-bit.
template <typename DerivFn>
inline double p2b_bisect_lane(DerivFn&& df, double lo, double hi,
                              double tolerance, int max_iterations) {
  const double dlo = df(lo);
  if (dlo >= 0.0) return lo;
  const double dhi = df(hi);
  if (dhi <= 0.0) return hi;
  double a = lo;
  double b = hi;
  for (int iter = 0; iter < max_iterations && (b - a) > tolerance; ++iter) {
    const double mid = 0.5 * (a + b);
    if (df(mid) < 0.0) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return 0.5 * (a + b);
}

inline void p2b_bisect_scalar(const P2bBatchView& batch, double* out_x) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    const double neg_va = batch.neg_va[i];
    const double cores = batch.cores[i];
    const double slope = batch.d_slope[i];
    const double icept = batch.d_intercept[i];
    const double scale = batch.scale;
    out_x[i] = p2b_bisect_lane(
        [=](double w) {
          return p2b_derivative_affine(neg_va, cores, scale, slope, icept, w);
        },
        batch.lo[i], batch.hi[i], batch.tolerance, batch.max_iterations);
  }
}

}  // namespace eotora::core::kernels::detail
