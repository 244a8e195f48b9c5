#include "sim/pipeline/assemblies.h"

#include <utility>
#include <vector>

#include "sim/pipeline/graph.h"
#include "sim/pipeline/stages.h"
#include "util/check.h"
#include "util/table.h"

namespace eotora::sim::pipeline {

namespace {

std::string dpp_label(core::P2aSolverKind solver) {
  switch (solver) {
    case core::P2aSolverKind::kCgba:
      return "BDMA-based DPP";
    case core::P2aSolverKind::kMcba:
      return "MCBA-based DPP";
    case core::P2aSolverKind::kRopt:
      return "ROPT-based DPP";
  }
  return "DPP";
}

}  // namespace

std::unique_ptr<Policy> make_dpp_pipeline(const core::Instance& instance,
                                          const core::DppConfig& config) {
  // Algorithm 1 needs V > 0, Q(1) >= 0 and z >= 1.
  EOTORA_REQUIRE_MSG(config.v > 0.0, "V=" << config.v);
  EOTORA_REQUIRE_MSG(config.initial_queue >= 0.0,
                     "Q(1)=" << config.initial_queue);
  EOTORA_REQUIRE(config.bdma.iterations >= 1);

  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<QueueUpdateStage>(config.initial_queue));
  stages.push_back(std::make_unique<P2aSolveStage>(config.bdma));
  stages.push_back(std::make_unique<P2bSolveStage>(config.v, config.bdma));
  stages.push_back(std::make_unique<DppDecisionOutStage>());
  LoopSpec loop;
  loop.first = 1;  // P2aSolve
  loop.last = 2;   // P2bSolve
  loop.iterations = config.bdma.iterations;
  loop.span = "dpp/bdma";
  loop.iteration_span = "bdma/iteration";
  return std::make_unique<PolicyGraph>(dpp_label(config.bdma.solver),
                                       instance, std::move(stages), loop);
}

std::unique_ptr<Policy> make_greedy_budget_pipeline(
    const core::Instance& instance, const core::CgbaConfig& cgba) {
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<BudgetFrequencyStage>());
  stages.push_back(std::make_unique<CgbaAssignStage>(cgba));
  stages.push_back(std::make_unique<CgbaDecisionOutStage>());
  return std::make_unique<PolicyGraph>("Greedy per-slot budget", instance,
                                       std::move(stages));
}

std::unique_ptr<Policy> make_fixed_frequency_pipeline(
    const core::Instance& instance, double fraction,
    const core::CgbaConfig& cgba) {
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<FixedFrequencyStage>(instance, fraction));
  stages.push_back(std::make_unique<CgbaAssignStage>(cgba));
  stages.push_back(std::make_unique<CgbaDecisionOutStage>());
  return std::make_unique<PolicyGraph>(
      "Fixed-frequency CGBA (fraction=" + util::format_double(fraction, 2) +
          ")",
      instance, std::move(stages));
}

std::unique_ptr<Policy> make_beta_only_pipeline(
    const core::Instance& instance, const core::BetaOnlyConfig& config) {
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<BetaOracleStage>(config));
  stages.push_back(std::make_unique<BetaDecisionOutStage>());
  return std::make_unique<PolicyGraph>("Beta-only (per-slot budget)",
                                       instance, std::move(stages));
}

std::unique_ptr<Policy> make_mpc_pipeline(const core::Instance& instance,
                                          const MpcConfig& config) {
  // The MPC plan needs a non-empty window and period, at least one
  // bisection step and a positive multiplier bracket.
  EOTORA_REQUIRE(config.window >= 1);
  EOTORA_REQUIRE(config.period >= 1);
  EOTORA_REQUIRE(config.bisection_iterations >= 1);
  EOTORA_REQUIRE(config.max_multiplier > 0.0);

  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<TrendObserveStage>(config));
  // Fraction 0.0 is the floor Ω^L, which the plan then replaces.
  stages.push_back(std::make_unique<FixedFrequencyStage>(instance, 0.0));
  stages.push_back(std::make_unique<CgbaAssignStage>(config.cgba));
  stages.push_back(std::make_unique<MpcPlanStage>(config));
  stages.push_back(std::make_unique<MpcDecisionOutStage>());
  return std::make_unique<PolicyGraph>("Receding-horizon MPC", instance,
                                       std::move(stages));
}

}  // namespace eotora::sim::pipeline
