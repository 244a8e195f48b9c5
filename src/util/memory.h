// Process memory introspection for the benchmarks.
//
// Linux-only by implementation (/proc/self/status); degrades gracefully
// elsewhere (0) so callers can emit "unknown" instead of failing. Peak RSS
// (VmHWM) is process-global and monotone.
#pragma once

#include <cstddef>

namespace eotora::util {

// Peak resident set size (VmHWM) in bytes; 0 when unavailable.
[[nodiscard]] std::size_t peak_rss_bytes();

}  // namespace eotora::util
