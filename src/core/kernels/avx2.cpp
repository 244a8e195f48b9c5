// AVX2 backend. Compiled with -mavx2 (see src/core/CMakeLists.txt) but
// registered only when the CPU reports AVX2 at runtime; every entry point is
// reached through detail::avx2_backend(), never directly.
//
// Bit-identity: all vector arithmetic is lane-wise IEEE-754
// correctly-rounded (vaddpd/vsubpd/vmulpd/vdivpd/vsqrtpd) in the same
// per-element order as the scalar backend, the TU is built with
// -ffp-contract=off so no mul+add pair can fuse, and the order-sensitive
// accumulations (Lemma-1 scatter, weighted_sumsq) stay in shared scalar
// code outside the backends.
#include "core/kernels/kernels_detail.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace eotora::core::kernels::detail {

namespace {

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

// All-lanes i32 gather. The masked form takes an explicit source vector,
// sidestepping _mm256_undefined_pd (GCC flags its intentionally
// uninitialized read under -Wmaybe-uninitialized, which CI promotes).
inline __m256d gather_pd(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}

void sqrt_div_avx2(const double* num, const double* den, double* out,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d q =
        _mm256_div_pd(_mm256_loadu_pd(num + i), _mm256_loadu_pd(den + i));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(q));
  }
  for (; i < n; ++i) out[i] = std::sqrt(num[i] / den[i]);
}

void div_gather_avx2(const double* num, const double* den,
                     const std::uint32_t* key, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + i));
    const __m256d d = gather_pd(den, idx);
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_loadu_pd(num + i), d));
  }
  for (; i < n; ++i) out[i] = num[i] / den[key[i]];
}

// First lane (lowest index) of `costs` equal to the block minimum `hmin`.
// min() is commutative for non-NaN inputs, so equality against the reduced
// minimum recovers the first occurrence — the same entry a strict-< running
// scan would keep.
inline std::uint32_t first_min_lane(__m256d costs, double hmin) {
  const int eq = _mm256_movemask_pd(
      _mm256_cmp_pd(costs, _mm256_set1_pd(hmin), _CMP_EQ_OQ));
  return static_cast<std::uint32_t>(__builtin_ctz(static_cast<unsigned>(eq)));
}

inline double horizontal_min(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
}

ScanHit scan_avx2(const double* tc, const std::uint32_t* server_of_entry,
                  const ScanGroup* groups, std::size_t num_groups,
                  const double* ta, const double* tf, std::uint32_t skip_entry,
                  double bound) {
  double best_cost = bound;
  std::uint32_t best_entry = kNoEntry;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const ScanGroup& grp = groups[g];
    const double a_term = ta[grp.bs];
    const double f_term = tf[grp.bs];
    const __m256d av = _mm256_set1_pd(a_term);
    const __m256d fv = _mm256_set1_pd(f_term);
    std::uint32_t a = grp.begin;
    for (; a + 4 <= grp.end; a += 4) {
      const __m128i idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(server_of_entry + a));
      const __m256d t = gather_pd(tc, idx);
      // Keeps cost_if_moved's left-associated two additions.
      __m256d c = _mm256_add_pd(_mm256_add_pd(t, av), fv);
      if (skip_entry - a < 4) {
        // Knock the skipped current option out with +inf: it can never win
        // a strict-< comparison against the finite bound.
        alignas(32) double lanes[4];
        _mm256_store_pd(lanes, c);
        lanes[skip_entry - a] = std::numeric_limits<double>::infinity();
        c = _mm256_load_pd(lanes);
      }
      const double hmin = horizontal_min(c);
      // Block minimum vs. running champion uses the same strict < a scalar
      // scan would apply to each entry; ties keep the earlier entry.
      if (hmin < best_cost) {
        best_cost = hmin;
        best_entry = a + first_min_lane(c, hmin);
      }
    }
    for (; a < grp.end; ++a) {
      if (a == skip_entry) continue;
      const double c = (tc[server_of_entry[a]] + a_term) + f_term;
      scan_consider(a, c, best_cost, best_entry);
    }
  }
  return {best_entry, best_cost};
}

// Lane-wise p2b_derivative_affine: identical operation order, four lanes at
// a time (see kernels_detail.h for the scalar form it mirrors).
inline __m256d p2b_derivative_avx2(__m256d neg_va, __m256d cores,
                                   __m256d scale, __m256d slope, __m256d icept,
                                   __m256d w) {
  const __m256d den = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_mul_pd(cores, w), w), _mm256_set1_pd(1e9));
  const __m256d pd = _mm256_add_pd(_mm256_mul_pd(slope, w), icept);
  const __m256d watts =
      _mm256_div_pd(_mm256_mul_pd(pd, cores), _mm256_set1_pd(4.0));
  return _mm256_add_pd(_mm256_div_pd(neg_va, den), _mm256_mul_pd(scale, watts));
}

void p2b_bisect_avx2(const P2bBatchView& batch, double* out_x) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d tolv = _mm256_set1_pd(batch.tolerance);
  const __m256d scale = _mm256_set1_pd(batch.scale);
  std::size_t i = 0;
  for (; i + 4 <= batch.n; i += 4) {
    const __m256d neg_va = _mm256_loadu_pd(batch.neg_va + i);
    const __m256d cores = _mm256_loadu_pd(batch.cores + i);
    const __m256d slope = _mm256_loadu_pd(batch.d_slope + i);
    const __m256d icept = _mm256_loadu_pd(batch.d_intercept + i);
    const __m256d lo = _mm256_loadu_pd(batch.lo + i);
    const __m256d hi = _mm256_loadu_pd(batch.hi + i);
    const __m256d dlo =
        p2b_derivative_avx2(neg_va, cores, scale, slope, icept, lo);
    const __m256d dhi =
        p2b_derivative_avx2(neg_va, cores, scale, slope, icept, hi);
    const __m256d at_lo = _mm256_cmp_pd(dlo, zero, _CMP_GE_OQ);
    const __m256d at_hi =
        _mm256_andnot_pd(at_lo, _mm256_cmp_pd(dhi, zero, _CMP_LE_OQ));
    const __m256d interior = _mm256_andnot_pd(_mm256_or_pd(at_lo, at_hi),
                                              _mm256_castsi256_pd(
                                                  _mm256_set1_epi64x(-1)));
    __m256d a = lo;
    __m256d b = hi;
    // Lockstep bisection: each still-active lane takes exactly the update
    // its scalar bisection would take at the same iteration index; lanes
    // freeze (masked blend) once their bracket is within tolerance, so
    // per-lane results — including the max_iterations cutoff — match the
    // scalar path bit-for-bit.
    for (int iter = 0; iter < batch.max_iterations; ++iter) {
      const __m256d width = _mm256_sub_pd(b, a);
      const __m256d cont = _mm256_and_pd(
          interior, _mm256_cmp_pd(width, tolv, _CMP_GT_OQ));
      if (_mm256_movemask_pd(cont) == 0) break;
      const __m256d mid = _mm256_mul_pd(half, _mm256_add_pd(a, b));
      const __m256d dm =
          p2b_derivative_avx2(neg_va, cores, scale, slope, icept, mid);
      const __m256d neg = _mm256_cmp_pd(dm, zero, _CMP_LT_OQ);
      a = _mm256_blendv_pd(a, mid, _mm256_and_pd(cont, neg));
      b = _mm256_blendv_pd(b, mid, _mm256_andnot_pd(neg, cont));
    }
    __m256d x = _mm256_mul_pd(half, _mm256_add_pd(a, b));
    x = _mm256_blendv_pd(x, lo, at_lo);
    x = _mm256_blendv_pd(x, hi, at_hi);
    _mm256_storeu_pd(out_x + i, x);
  }
  if (i < batch.n) {
    P2bBatchView tail = batch;
    tail.n = batch.n - i;
    tail.neg_va = batch.neg_va + i;
    tail.cores = batch.cores + i;
    tail.lo = batch.lo + i;
    tail.hi = batch.hi + i;
    tail.d_slope = batch.d_slope + i;
    tail.d_intercept = batch.d_intercept + i;
    p2b_bisect_scalar(tail, out_x + i);
  }
}

constexpr Backend kAvx2{
    "avx2",
    "x86-64 AVX2 lanes (bit-identical to scalar)",
    &avx2_supported,
    &sqrt_div_avx2,
    &div_gather_avx2,
    &scan_avx2,
    &p2b_bisect_avx2,
};

}  // namespace

const Backend* avx2_backend() { return &kAvx2; }

}  // namespace eotora::core::kernels::detail

#else  // !defined(__AVX2__)

namespace eotora::core::kernels::detail {
const Backend* avx2_backend() { return nullptr; }
}  // namespace eotora::core::kernels::detail

#endif
