#include "sim/pipeline/stages.h"

#include <algorithm>
#include <utility>

#include "core/cgba.h"
#include "core/latency.h"
#include "core/lemma1.h"
#include "sim/policy.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::sim::pipeline {

namespace {

// Folds one solve's per-component counters into a stage-lifetime
// accumulator, by component index. Component ids are stable for a stable
// coverage structure; if the count changes across slots the accumulator
// simply grows (every increment still lands in exactly one slot, so the
// per-component sums keep matching the stage totals).
void fold_shards(const std::vector<core::counters::SolverCounters>& delta,
                 std::vector<core::counters::SolverCounters>& into) {
  if (delta.size() > into.size()) into.resize(delta.size());
  for (std::size_t c = 0; c < delta.size(); ++c) into[c].merge(delta[c]);
}

}  // namespace

QueueUpdateStage::QueueUpdateStage(double initial_queue)
    : initial_queue_(initial_queue), queue_(initial_queue) {
  EOTORA_REQUIRE_MSG(initial_queue >= 0.0, "Q(1)=" << initial_queue);
}

void QueueUpdateStage::run(StageContext& ctx) { ctx.queue_before = queue_; }

void QueueUpdateStage::commit(StageContext& ctx) {
  // Eq. (21): queue update, from the Θ the decision stage emitted.
  queue_ = std::max(queue_ + ctx.result.theta, 0.0);
  ctx.result.queue_after = queue_;
}

void P2aSolveStage::run(StageContext& ctx) {
  if (ctx.loop_iteration == 0) {
    core::bdma_begin_slot(*ctx.instance, *ctx.state, workspace_, ctx.bdma);
  }
  core::bdma_p2a_iterate(*ctx.instance, *ctx.state, config_,
                         ctx.loop_iteration, *ctx.rng, workspace_, ctx.bdma);
  fold_shards(ctx.bdma.p2a_shard_counters, shard_counters_);
}

void P2bSolveStage::run(StageContext& ctx) {
  EOTORA_REQUIRE(ctx.bdma.workspace != nullptr);
  core::bdma_p2b_iterate(*ctx.instance, *ctx.state, v_, ctx.queue_before,
                         config_, *ctx.bdma.workspace, ctx.bdma);
}

void DppDecisionOutStage::run(StageContext& ctx) {
  core::bdma_finish_slot(*ctx.instance, *ctx.state, ctx.bdma);
  const core::BdmaResult& best = ctx.bdma.best;
  ctx.result.queue_before = ctx.queue_before;
  ctx.result.decision.assignment = best.assignment;
  ctx.result.decision.frequencies = best.frequencies;
  core::optimal_allocation(*ctx.instance, *ctx.state, best.assignment,
                           lemma1_, ctx.result.decision.allocation);
  ctx.result.latency = best.latency;
  ctx.result.theta = best.theta;
  ctx.result.energy_cost = best.theta + ctx.instance->budget_per_slot();
  ctx.result.objective = best.objective;
  ctx.result.p2a_iterations = best.p2a_iterations;
}

void BudgetFrequencyStage::run(StageContext& ctx) {
  const double fraction =
      greedy_budget_fraction(*ctx.instance, ctx.state->price_per_mwh);
  ctx.frequencies = frequencies_at_fraction(*ctx.instance, fraction);
}

FixedFrequencyStage::FixedFrequencyStage(const core::Instance& instance,
                                         double fraction) {
  EOTORA_REQUIRE_MSG(fraction >= 0.0 && fraction <= 1.0,
                     "fraction=" << fraction);
  frequencies_ = frequencies_at_fraction(instance, fraction);
}

void FixedFrequencyStage::run(StageContext& ctx) {
  ctx.frequencies = frequencies_;
}

void CgbaAssignStage::run(StageContext& ctx) {
  const std::size_t workers = config_.shard_workers;
  wcg_.build(*ctx.instance, *ctx.state, ctx.frequencies, workers);
  {
    EOTORA_TRACE_SPAN("p2a/draw");
    wcg_.draw_profiles(*ctx.rng, profiles_);
  }
  const std::size_t count = wcg_.count();
  loads_.resize(count);
  moves_.resize(count);
  converged_.resize(count);
  {
    EOTORA_TRACE_SPAN("shard/solve");
    wcg_.solve(workers, slot_counters_, [&](std::size_t c) {
      wcg_.keep_carried(c, carried_, profiles_[c]);
      core::SolveResult result =
          core::cgba_from(wcg_.problem(c), config_, std::move(profiles_[c]),
                          wcg_.engine(c), &loads_[c]);
      profiles_[c] = std::move(result.profile);
      moves_[c] = result.iterations;
      converged_[c] = result.converged ? 1 : 0;
    });
  }
  fold_shards(slot_counters_, shard_counters_);
  {
    EOTORA_TRACE_SPAN("p2a/reduce");
    ctx.p2a = core::SolveResult{};
    ctx.p2a.cost = wcg_.total_cost(loads_);
    ctx.p2a.converged = true;
    for (std::size_t c = 0; c < count; ++c) {
      ctx.p2a.iterations += moves_[c];
      ctx.p2a.converged = ctx.p2a.converged && converged_[c] != 0;
    }
    wcg_.to_assignment(profiles_, ctx.assignment);
    carried_ = ctx.assignment;
  }
}

void CgbaDecisionOutStage::run(StageContext& ctx) {
  ctx.result.decision.assignment = ctx.assignment;
  ctx.result.decision.frequencies = ctx.frequencies;
  core::optimal_allocation(*ctx.instance, *ctx.state, ctx.assignment,
                           lemma1_, ctx.result.decision.allocation);
  ctx.result.latency = ctx.p2a.cost;
  ctx.result.energy_cost =
      ctx.instance->energy_cost(ctx.frequencies, ctx.state->price_per_mwh);
  ctx.result.theta =
      ctx.result.energy_cost - ctx.instance->budget_per_slot();
  ctx.result.p2a_iterations = ctx.p2a.iterations;
}

void BetaOracleStage::run(StageContext& ctx) {
  ctx.oracle = core::solve_beta_only(*ctx.instance, *ctx.state,
                                     ctx.instance->budget_per_slot(), config_);
}

void BetaDecisionOutStage::run(StageContext& ctx) {
  const double budget = ctx.instance->budget_per_slot();
  ctx.result.decision.assignment = ctx.oracle.assignment;
  ctx.result.decision.frequencies = ctx.oracle.frequencies;
  core::optimal_allocation(*ctx.instance, *ctx.state, ctx.oracle.assignment,
                           lemma1_, ctx.result.decision.allocation);
  ctx.result.latency = ctx.oracle.latency;
  ctx.result.energy_cost = ctx.oracle.energy_cost;
  ctx.result.theta = ctx.oracle.energy_cost - budget;
}

TrendObserveStage::TrendObserveStage(MpcConfig config)
    : config_(config),
      price_trend_(config.period, config.trend_alpha),
      demand_trend_(config.period, config.trend_alpha) {}

void TrendObserveStage::run(StageContext& ctx) {
  price_trend_.observe(ctx.state->price_per_mwh);
  double mean_demand = 0.0;
  for (double f : ctx.state->task_cycles) mean_demand += f;
  mean_demand /= static_cast<double>(ctx.state->task_cycles.size());
  demand_trend_.observe(mean_demand);
  ctx.forecast = mpc_plan_inputs(config_, *ctx.instance, *ctx.state,
                                 price_trend_, demand_trend_);
}

void TrendObserveStage::reset() {
  price_trend_ =
      trace::OnlineTrendEstimator(config_.period, config_.trend_alpha);
  demand_trend_ =
      trace::OnlineTrendEstimator(config_.period, config_.trend_alpha);
}

void MpcPlanStage::run(StageContext& ctx) {
  const std::vector<double> compute_load =
      mpc_compute_load(*ctx.instance, *ctx.state, ctx.assignment);
  const double lambda =
      mpc_plan_multiplier(config_, *ctx.instance, compute_load, ctx.forecast);
  ctx.frequencies = mpc_frequencies_for(*ctx.instance, compute_load, lambda,
                                        ctx.state->price_per_mwh);
}

void MpcDecisionOutStage::run(StageContext& ctx) {
  ctx.result.decision.assignment = ctx.assignment;
  ctx.result.decision.frequencies = ctx.frequencies;
  core::optimal_allocation(*ctx.instance, *ctx.state, ctx.assignment,
                           lemma1_, ctx.result.decision.allocation);
  ctx.result.latency = core::reduced_latency(*ctx.instance, *ctx.state,
                                             ctx.assignment, ctx.frequencies);
  ctx.result.energy_cost =
      ctx.instance->energy_cost(ctx.frequencies, ctx.state->price_per_mwh);
  ctx.result.theta =
      ctx.result.energy_cost - ctx.instance->budget_per_slot();
  ctx.result.p2a_iterations = ctx.p2a.iterations;
}

}  // namespace eotora::sim::pipeline
