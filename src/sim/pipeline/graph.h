// PolicyGraph — an ordered list of stages run as a sim::Policy.
//
// The graph is linear with one optional loop region (BDMA's Algorithm 2
// alternates its P2-A and P2-B stages z times); stages hand each other
// values through the StageContext blackboard (sim/pipeline/stage.h).
//
// Execution maps the observability layer 1:1 onto stage boundaries: every
// stage invocation runs under its own trace span (Stage::span_name) and
// its own SolverCounters scope, whose delta is folded both into the
// per-stage StageStats and forward into the caller's active() sink — so a
// run's solver totals are the sum of its per-stage breakdown.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/pipeline/stage.h"
#include "sim/policy.h"

namespace eotora::sim::pipeline {

// The loop region: stages [first, last] (inclusive) run `iterations`
// times per slot. `span` wraps the whole region once per slot (the legacy
// "dpp/bdma" span), `iteration_span` each pass ("bdma/iteration"); both
// must be string literals or nullptr to disable.
struct LoopSpec {
  std::size_t first = 0;
  std::size_t last = 0;
  std::size_t iterations = 0;  // 0 = no loop region
  const char* span = nullptr;
  const char* iteration_span = nullptr;
};

class PolicyGraph final : public Policy {
 public:
  // `label` is the Policy::name() the graph reports (artifacts and golden
  // fixtures key on it). Throws std::invalid_argument on an empty
  // stage list or an out-of-range loop region.
  PolicyGraph(std::string label, const core::Instance& instance,
              std::vector<std::unique_ptr<Stage>> stages,
              LoopSpec loop = {});

  core::DppSlotResult step(const core::SlotState& state,
                           util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return label_; }
  void reset() override;

  // Per-stage execution statistics since the last reset(), in stage order.
  [[nodiscard]] std::vector<StageStats> stage_stats() const override;

 private:
  struct Slot {
    std::unique_ptr<Stage> stage;
    StageStats stats;
  };

  void run_slot(Slot& slot, StageContext& ctx);

  std::string label_;
  const core::Instance* instance_;
  std::vector<Slot> slots_;
  LoopSpec loop_;
  StageContext ctx_;
};

}  // namespace eotora::sim::pipeline
