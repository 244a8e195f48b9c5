// NEON (aarch64) backend. Two-lane float64 vectorization of the elementwise
// kernels; the grouped scan runs 2-wide with a scalar champion merge, and
// the lockstep bisection shares the scalar routine (NEON's win on this
// code is the sqrt/divide sweeps). Lane
// arithmetic is IEEE-754 correctly rounded, so every kernel stays
// bit-identical to scalar, same as AVX2.
#include "core/kernels/kernels_detail.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <limits>

namespace eotora::core::kernels::detail {

namespace {

bool neon_supported() { return true; }  // baseline on aarch64

void sqrt_div_neon(const double* num, const double* den, double* out,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t q = vdivq_f64(vld1q_f64(num + i), vld1q_f64(den + i));
    vst1q_f64(out + i, vsqrtq_f64(q));
  }
  for (; i < n; ++i) out[i] = std::sqrt(num[i] / den[i]);
}

void div_gather_neon(const double* num, const double* den,
                     const std::uint32_t* key, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // No hardware gather on NEON: assemble the denominator pair manually,
    // keep the divide vectorized.
    const float64x2_t d = {den[key[i]], den[key[i + 1]]};
    vst1q_f64(out + i, vdivq_f64(vld1q_f64(num + i), d));
  }
  for (; i < n; ++i) out[i] = num[i] / den[key[i]];
}

ScanHit scan_neon(const double* tc, const std::uint32_t* server_of_entry,
                  const ScanGroup* groups, std::size_t num_groups,
                  const double* ta, const double* tf, std::uint32_t skip_entry,
                  double bound) {
  double best_cost = bound;
  std::uint32_t best_entry = kNoEntry;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const ScanGroup& grp = groups[g];
    const double a_term = ta[grp.bs];
    const double f_term = tf[grp.bs];
    const float64x2_t av = vdupq_n_f64(a_term);
    const float64x2_t fv = vdupq_n_f64(f_term);
    std::uint32_t a = grp.begin;
    for (; a + 2 <= grp.end; a += 2) {
      const float64x2_t t = {tc[server_of_entry[a]],
                             tc[server_of_entry[a + 1]]};
      float64x2_t c = vaddq_f64(vaddq_f64(t, av), fv);
      if (skip_entry - a < 2) {
        double lanes[2];
        vst1q_f64(lanes, c);
        lanes[skip_entry - a] = std::numeric_limits<double>::infinity();
        c = vld1q_f64(lanes);
      }
      const double c0 = vgetq_lane_f64(c, 0);
      const double c1 = vgetq_lane_f64(c, 1);
      // Same strict-< first-wins order a scalar scan applies.
      scan_consider(a, c0, best_cost, best_entry);
      scan_consider(a + 1, c1, best_cost, best_entry);
    }
    for (; a < grp.end; ++a) {
      if (a == skip_entry) continue;
      const double c = (tc[server_of_entry[a]] + a_term) + f_term;
      scan_consider(a, c, best_cost, best_entry);
    }
  }
  return {best_entry, best_cost};
}

constexpr Backend kNeon{
    "neon",
    "aarch64 NEON lanes (bit-identical to scalar)",
    &neon_supported,
    &sqrt_div_neon,
    &div_gather_neon,
    &scan_neon,
    // Two lanes don't amortize the lockstep masking; scalar bisection.
    &p2b_bisect_scalar,
};

}  // namespace

const Backend* neon_backend() { return &kNeon; }

}  // namespace eotora::core::kernels::detail

#else  // !aarch64 NEON

namespace eotora::core::kernels::detail {
const Backend* neon_backend() { return nullptr; }
}  // namespace eotora::core::kernels::detail

#endif
