#include "sim/pipeline/graph.h"

#include <sstream>
#include <stdexcept>

#include "util/check.h"
#include "util/timer.h"
#include "util/trace.h"

namespace eotora::sim::pipeline {

PolicyGraph::PolicyGraph(std::string label, const core::Instance& instance,
                         std::vector<std::unique_ptr<Stage>> stages,
                         LoopSpec loop)
    : label_(std::move(label)), instance_(&instance), loop_(loop) {
  if (stages.empty()) {
    throw std::invalid_argument("policy graph \"" + label_ +
                                "\" has no stages");
  }
  for (const auto& stage : stages) {
    EOTORA_ASSERT(stage != nullptr);
  }
  if (loop_.iterations > 0) {
    if (loop_.first > loop_.last || loop_.last >= stages.size()) {
      std::ostringstream message;
      message << "policy graph \"" << label_ << "\": loop region ["
              << loop_.first << ", " << loop_.last
              << "] is out of range for " << stages.size() << " stages";
      throw std::invalid_argument(message.str());
    }
  }
  slots_.reserve(stages.size());
  for (auto& stage : stages) {
    Slot slot;
    slot.stats.name = stage->name();
    slot.stage = std::move(stage);
    slots_.push_back(std::move(slot));
  }
}

void PolicyGraph::run_slot(Slot& slot, StageContext& ctx) {
  util::trace::Span span(slot.stage->span_name());
  core::counters::SolverCounters delta;
  util::Timer timer;
  {
    const core::counters::Scope scope(delta);
    slot.stage->run(ctx);
  }
  slot.stats.seconds += timer.elapsed_seconds();
  slot.stats.runs += 1;
  slot.stats.counters.merge(delta);
  // Forward the stage's effort to whatever sink the caller installed, so
  // the per-solve totals the simulator captures are unchanged.
  core::counters::active().merge(delta);
}

core::DppSlotResult PolicyGraph::step(const core::SlotState& state,
                                      util::Rng& rng) {
  StageContext& ctx = ctx_;
  ctx.instance = instance_;
  ctx.state = &state;
  ctx.rng = &rng;
  ctx.loop_iteration = 0;
  ctx.result = core::DppSlotResult{};

  const bool has_loop = loop_.iterations > 0;
  const std::size_t loop_entry = has_loop ? loop_.first : slots_.size();
  for (std::size_t i = 0; i < loop_entry; ++i) run_slot(slots_[i], ctx);
  if (has_loop) {
    util::trace::Span loop_span(loop_.span);
    for (std::size_t iter = 0; iter < loop_.iterations; ++iter) {
      util::trace::Span iteration_span(loop_.iteration_span);
      ctx.loop_iteration = iter;
      for (std::size_t i = loop_.first; i <= loop_.last; ++i) {
        run_slot(slots_[i], ctx);
      }
    }
    ctx.loop_iteration = 0;
    for (std::size_t i = loop_.last + 1; i < slots_.size(); ++i) {
      run_slot(slots_[i], ctx);
    }
  }
  // Commit pass: fold downstream results back into stage scratch (the
  // virtual-queue update reads the emitted Θ).
  for (auto& slot : slots_) {
    util::Timer timer;
    slot.stage->commit(ctx);
    slot.stats.seconds += timer.elapsed_seconds();
  }
  return ctx.result;
}

void PolicyGraph::reset() {
  for (auto& slot : slots_) {
    slot.stage->reset();
    slot.stats.runs = 0;
    slot.stats.seconds = 0.0;
    slot.stats.counters.reset();
  }
}

std::vector<StageStats> PolicyGraph::stage_stats() const {
  std::vector<StageStats> stats;
  stats.reserve(slots_.size());
  for (const auto& slot : slots_) {
    stats.push_back(slot.stats);
    // Per-component breakdowns live in the stage (it owns the solves);
    // attach them at read time so run_slot's hot path stays untouched.
    stats.back().shards = slot.stage->shard_counters();
  }
  return stats;
}

}  // namespace eotora::sim::pipeline
