// Portable scalar backend — the reference semantics every SIMD backend must
// reproduce bit-for-bit.
#include "core/kernels/kernels_detail.h"

namespace eotora::core::kernels::detail {

namespace {

bool scalar_supported() { return true; }

constexpr Backend kScalar{
    "scalar",
    "portable reference backend (always available)",
    &scalar_supported,
    &sqrt_div_scalar,
    &div_gather_scalar,
    &scan_scalar,
    &p2b_bisect_scalar,
};

}  // namespace

const Backend* scalar_backend() { return &kScalar; }

}  // namespace eotora::core::kernels::detail
