// DPP — the Drift-Plus-Penalty online controller (paper Algorithm 1): its
// configuration and the per-slot result every online policy reports.
//
// The controller maintains the virtual queue Q(t) that tracks cumulative
// budget violation:
//   Q(t+1) = max{Q(t) + Θ(Ω_t, p_t), 0}            (Eq. (21))
// and at each slot solves P2 (via BDMA) with penalty weight V. Larger V
// favors latency over budget compliance (Theorem 4: latency gap ~ B·D/V,
// backlog grows with V). It runs as the sim::pipeline "dpp-*" assembly
// (make_dpp_pipeline in sim/pipeline/assemblies.h).
#pragma once

#include "core/bdma.h"
#include "core/instance.h"
#include "core/lemma1.h"

namespace eotora::core {

struct DppConfig {
  double v = 100.0;           // the Lyapunov penalty weight V
  double initial_queue = 0.0; // Q(1)
  BdmaConfig bdma;
};

// Everything a slot produced, for metrics and tests.
struct DppSlotResult {
  Decision decision;          // (x, y, Ψ*, Φ*, Ω)
  double latency = 0.0;       // T_t (== L_t at the Lemma-1 allocation)
  double energy_cost = 0.0;   // C_t in dollars
  double theta = 0.0;         // C_t - C̄
  double queue_before = 0.0;  // Q(t)
  double queue_after = 0.0;   // Q(t+1)
  double objective = 0.0;     // V·T_t + Q(t)·Θ
  std::size_t p2a_iterations = 0;
};

}  // namespace eotora::core
