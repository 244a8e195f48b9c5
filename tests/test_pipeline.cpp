// The pipeline contract (each registry policy's per-slot decisions are
// pinned by its golden fixture, tests/golden/):
//  * reset() restores every policy's construction state;
//  * the per-stage SolverCounters of a run sum exactly to the run totals;
//  * loop stages run z times a slot, and a bad loop region fails
//    construction.
#include "sim/pipeline/graph.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eotora::sim::pipeline {
namespace {

ScenarioConfig tiny(std::uint64_t seed) {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = seed;
  return config;
}

PolicyParams fast_params() {
  PolicyParams params;
  params.bdma_iterations = 2;
  params.mcba_iterations = 50;
  params.mpc.period = 4;   // reach the forecasting branch within the run
  params.mpc.window = 4;
  return params;
}

TEST(Pipeline, ResetRestartsTheGraphExactly) {
  // A budget low enough that Q(t) and the MPC plan both bind, over a run
  // long enough for MPC to start forecasting, so a stage whose reset()
  // keeps cross-slot state changes the second drain.
  ScenarioConfig config = tiny(7);
  config.budget_per_slot = 0.10;
  Scenario scenario(config);
  const PolicyParams params = fast_params();
  const auto states = scenario.generate_states(2 * params.mpc.period + 1);
  MaterializedSource source(states);
  for (const auto& name : registered_policies()) {
    auto policy = make_policy(name, scenario.instance(), params);
    source.reset();
    const auto first = run_policy(*policy, source, 3);
    source.reset();
    // run_policy calls policy.reset() itself.
    const auto second = run_policy(*policy, source, 3);
    EXPECT_EQ(first.metrics.latency_series(), second.metrics.latency_series())
        << name;
    EXPECT_EQ(first.metrics.cost_series(), second.metrics.cost_series())
        << name;
    EXPECT_EQ(first.metrics.queue_series(), second.metrics.queue_series())
        << name;
    EXPECT_EQ(first.counters, second.counters) << name;
  }
}

TEST(Pipeline, StageCountersSumExactlyToRunTotals) {
  Scenario scenario(tiny(5));
  const auto states = scenario.generate_states(5);
  const PolicyParams params = fast_params();
  for (const auto& name : registered_policies()) {
    auto policy = make_policy(name, scenario.instance(), params);
    MaterializedSource source(states);
    const auto result = run_policy(*policy, source, 2);
    ASSERT_FALSE(result.stages.empty()) << name;
    core::counters::SolverCounters sum;
    for (const auto& stage : result.stages) sum.merge(stage.counters);
    EXPECT_EQ(sum, result.counters) << name;
  }
}

TEST(Pipeline, LoopStagesRunOncePerBdmaIterationPerSlot) {
  ScenarioSource source(tiny(5), 5);
  PolicyParams params = fast_params();
  params.bdma_iterations = 3;
  auto policy = make_policy("dpp-bdma", source.instance(), params);
  const auto result = run_policy(*policy, source, 2);
  for (const auto& stage : result.stages) {
    const bool in_loop = stage.name == "p2a_solve" || stage.name == "p2b_solve";
    const std::uint64_t expected =
        source.horizon() * (in_loop ? params.bdma_iterations : 1);
    EXPECT_EQ(stage.runs, expected) << stage.name;
  }
}

// A stage that does nothing, for the construction-time check.
class MockStage final : public Stage {
 public:
  [[nodiscard]] const char* name() const override { return "mock"; }
  [[nodiscard]] const char* span_name() const override { return "stage/mock"; }
  void run(StageContext&) override {}
};

TEST(Pipeline, OutOfRangeLoopRegionFailsConstruction) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>());
  LoopSpec loop;
  loop.first = 0;
  loop.last = 5;
  loop.iterations = 2;
  try {
    PolicyGraph graph("test-graph", scenario.instance(), std::move(stages),
                      loop);
    FAIL() << "an out-of-range loop region constructed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("loop region"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace eotora::sim::pipeline
