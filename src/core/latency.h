// Latency evaluators (paper Eqs. (7)-(12) and (18)-(20)).
//
// Two evaluation paths exist on purpose:
//   - latency_under_allocation:  L_t for ARBITRARY (Ψ, Φ) — used to verify
//     Lemma 1 and to score non-optimal allocations;
//   - reduced_latency:           T_t, the closed form after substituting the
//     optimal allocation (what every P2-A solver optimizes).
// Tests assert  reduced_latency == latency_under_allocation(optimal alloc).
#pragma once

#include "core/instance.h"
#include "core/types.h"

namespace eotora::core {

// Per-device latency breakdown in seconds.
struct DeviceLatency {
  double processing = 0.0;  // L^P_i
  double access = 0.0;      // L^{C,A}_i
  double fronthaul = 0.0;   // L^{C,F}_i

  [[nodiscard]] double total() const { return processing + access + fronthaul; }
};

// L_{i,t} under an explicit allocation. Shares must be positive for every
// device (a zero share would mean infinite latency); throws otherwise.
[[nodiscard]] DeviceLatency device_latency_under_allocation(
    const Instance& instance, const SlotState& state,
    const Assignment& assignment, const Frequencies& frequencies,
    const ResourceAllocation& allocation, std::size_t device);

// L_t = Σ_i L_{i,t} (Eqs. (8) + (11)).
[[nodiscard]] double latency_under_allocation(
    const Instance& instance, const SlotState& state,
    const Assignment& assignment, const Frequencies& frequencies,
    const ResourceAllocation& allocation);

// T_t(x, y, Ω, β): optimal-allocation latency via Eqs. (18)-(19).
[[nodiscard]] double reduced_latency(const Instance& instance,
                                     const SlotState& state,
                                     const Assignment& assignment,
                                     const Frequencies& frequencies);

// The processing / communication split of T_t (T^P_t and T^C_t).
struct ReducedLatencyBreakdown {
  double processing = 0.0;
  double communication = 0.0;

  [[nodiscard]] double total() const { return processing + communication; }
};
[[nodiscard]] ReducedLatencyBreakdown reduced_latency_breakdown(
    const Instance& instance, const SlotState& state,
    const Assignment& assignment, const Frequencies& frequencies);

}  // namespace eotora::core
