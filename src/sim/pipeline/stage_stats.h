// StageStats — per-stage execution statistics of a pipeline policy.
//
// Lives in its own header (rather than sim/pipeline/stage.h) so the Policy
// base class can expose `stage_stats()` without pulling the whole stage
// machinery — and its solver headers — into every policy user.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.h"

namespace eotora::sim::pipeline {

// Captured by PolicyGraph around each stage invocation: the stage's share
// of the existing per-solve SolverCounters (deterministic; the per-stage
// counters of one step sum exactly to the step's total) and its wall-clock
// share of step time (not deterministic — stripped wherever artifacts are
// diffed).
struct StageStats {
  std::string name;
  std::uint64_t runs = 0;  // stage invocations (loop stages run z× per slot)
  double seconds = 0.0;
  core::counters::SolverCounters counters;
  // Per-component effort breakdown for stages that solve P2-A per
  // connected component of the WCG (core/components.h), accumulated by
  // component index across the stage's runs; empty for other stages.
  // Deterministic for every worker count, and the in-shard fields (cgba_*,
  // mcba_*, engine_*) sum exactly to this stage's `counters` totals.
  std::vector<core::counters::SolverCounters> shards;
};

}  // namespace eotora::sim::pipeline
