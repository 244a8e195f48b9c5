// The online-policy interface the simulator, runner and serve loop drive.
//
// Every registry policy implements it as a sim::pipeline::PolicyGraph
// (sim/pipeline/assemblies.h), built by name through sim::make_policy
// (sim/registry.h). The two frequency helpers below are the shared rules
// of the CGBA-assignment baselines' frequency stages.
#pragma once

#include <string>
#include <vector>

#include "core/dpp.h"
#include "core/instance.h"
#include "sim/pipeline/stage_stats.h"
#include "util/rng.h"

namespace eotora::sim {

class Policy {
 public:
  virtual ~Policy() = default;

  // Decides one slot. Implementations must not retain references to `state`.
  virtual core::DppSlotResult step(const core::SlotState& state,
                                   util::Rng& rng) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Clears online state (queue backlogs etc.) for a fresh run.
  virtual void reset() = 0;

  // Per-stage execution statistics since the last reset(), in stage order
  // (sim/pipeline/graph.h). Wrappers that do not forward it report none.
  [[nodiscard]] virtual std::vector<pipeline::StageStats> stage_stats()
      const {
    return {};
  }
};

// Frequencies at a uniform fraction of every server's range:
// Ω_n = F^L_n + fraction·(F^U_n − F^L_n).
[[nodiscard]] core::Frequencies frequencies_at_fraction(
    const core::Instance& instance, double fraction);

// The greedy per-slot-budget rule: the largest uniform fraction whose
// energy cost fits the per-slot budget at `price` (bisection — cost is
// monotone in the fraction; 0 when even F^L busts the budget).
[[nodiscard]] double greedy_budget_fraction(const core::Instance& instance,
                                            double price);

}  // namespace eotora::sim
