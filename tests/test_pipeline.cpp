// The pipeline contract (each registry policy's per-slot decisions are
// pinned by its golden fixture, tests/golden/):
//  * typed-port mismatches fail at construction with descriptive errors;
//  * the per-stage SolverCounters of a run sum exactly to the run totals;
//  * the AuditTap hook fires once per slot.
#include "sim/pipeline/graph.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/pipeline/stages.h"
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
  Scenario scenario(tiny(7));
  MaterializedSource source(scenario.generate_states(4));
  auto policy = make_policy("dpp-bdma", scenario.instance(), fast_params());
  const auto first = run_policy(*policy, source, 3);
  source.reset();
  // run_policy calls policy.reset() itself.
  const auto second = run_policy(*policy, source, 3);
  EXPECT_EQ(first.metrics.average_latency(), second.metrics.average_latency());
  EXPECT_EQ(first.counters, second.counters);
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

TEST(Pipeline, AuditTapFiresOncePerSlot) {
  Scenario scenario(tiny(9));
  const auto states = scenario.generate_states(4);
  auto policy = make_policy("greedy-budget", scenario.instance());
  auto* graph = dynamic_cast<PolicyGraph*>(policy.get());
  ASSERT_NE(graph, nullptr);
  auto* tap_stage = dynamic_cast<AuditTapStage*>(graph->find_stage("audit_tap"));
  ASSERT_NE(tap_stage, nullptr);
  std::size_t taps = 0;
  tap_stage->set_tap([&](const StageContext& ctx) {
    ++taps;
    EXPECT_NE(ctx.state, nullptr);
    EXPECT_FALSE(ctx.frequencies.empty());
  });
  util::Rng rng(1);
  for (const auto& state : states) (void)policy->step(state, rng);
  EXPECT_EQ(taps, states.size());
}

// ---- Typed-port validation ------------------------------------------------

// A configurable mock stage for exercising the construction-time checks.
class MockStage final : public Stage {
 public:
  MockStage(const char* name, std::vector<PortSpec> inputs,
            std::vector<PortSpec> outputs)
      : name_(name), inputs_(std::move(inputs)), outputs_(std::move(outputs)) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] const char* span_name() const override { return "stage/mock"; }
  [[nodiscard]] std::vector<PortSpec> inputs() const override {
    return inputs_;
  }
  [[nodiscard]] std::vector<PortSpec> outputs() const override {
    return outputs_;
  }
  void run(StageContext&) override {}

 private:
  const char* name_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
};

std::string construction_error(std::vector<std::unique_ptr<Stage>> stages,
                               const core::Instance& instance,
                               LoopSpec loop = {}) {
  try {
    PolicyGraph graph("test-graph", instance, std::move(stages), loop);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Pipeline, MissingInputPortFailsConstructionDescriptively) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "producer", std::vector<PortSpec>{},
      std::vector<PortSpec>{{"queue", PortType::kQueue}}));
  stages.push_back(std::make_unique<MockStage>(
      "consumer",
      std::vector<PortSpec>{{"frequencies", PortType::kFrequencies}},
      std::vector<PortSpec>{}));
  const std::string message =
      construction_error(std::move(stages), scenario.instance());
  // Names the graph, the failing stage, the missing port, and what exists.
  EXPECT_NE(message.find("test-graph"), std::string::npos) << message;
  EXPECT_NE(message.find("consumer"), std::string::npos) << message;
  EXPECT_NE(message.find("frequencies"), std::string::npos) << message;
  EXPECT_NE(message.find("not produced"), std::string::npos) << message;
  EXPECT_NE(message.find("queue (Queue)"), std::string::npos) << message;
}

TEST(Pipeline, TypeMismatchFailsConstructionDescriptively) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "producer", std::vector<PortSpec>{},
      std::vector<PortSpec>{{"payload", PortType::kQueue}}));
  stages.push_back(std::make_unique<MockStage>(
      "consumer", std::vector<PortSpec>{{"payload", PortType::kFrequencies}},
      std::vector<PortSpec>{}));
  const std::string message =
      construction_error(std::move(stages), scenario.instance());
  EXPECT_NE(message.find("consumer"), std::string::npos) << message;
  EXPECT_NE(message.find("payload"), std::string::npos) << message;
  EXPECT_NE(message.find("mismatched type"), std::string::npos) << message;
  EXPECT_NE(message.find("Queue"), std::string::npos) << message;
  EXPECT_NE(message.find("Frequencies"), std::string::npos) << message;
}

TEST(Pipeline, OrderMattersOutsideTheLoopRegion) {
  // The same two stages connect fine producer-first and fail consumer-first
  // (no loop region to carry the dependency backwards).
  Scenario scenario(tiny(3));
  auto producer = [] {
    return std::make_unique<MockStage>(
        "producer", std::vector<PortSpec>{},
        std::vector<PortSpec>{{"queue", PortType::kQueue}});
  };
  auto consumer = [] {
    return std::make_unique<MockStage>(
        "consumer", std::vector<PortSpec>{{"queue", PortType::kQueue}},
        std::vector<PortSpec>{});
  };
  std::vector<std::unique_ptr<Stage>> good;
  good.push_back(producer());
  good.push_back(consumer());
  EXPECT_NO_THROW(PolicyGraph("test-graph", scenario.instance(),
                              std::move(good)));
  std::vector<std::unique_ptr<Stage>> bad;
  bad.push_back(consumer());
  bad.push_back(producer());
  EXPECT_FALSE(
      construction_error(std::move(bad), scenario.instance()).empty());
}

TEST(Pipeline, LoopRegionAllowsLoopCarriedDependencies) {
  // Inside [first, last] a later stage may feed an earlier one (P2-B's Ω
  // into the next P2-A pass); the identical wiring fails without the loop.
  Scenario scenario(tiny(3));
  auto forward = [] {
    return std::make_unique<MockStage>(
        "forward", std::vector<PortSpec>{{"omega", PortType::kFrequencies}},
        std::vector<PortSpec>{{"plan", PortType::kAssignment}});
  };
  auto backward = [] {
    return std::make_unique<MockStage>(
        "backward", std::vector<PortSpec>{{"plan", PortType::kAssignment}},
        std::vector<PortSpec>{{"omega", PortType::kFrequencies}});
  };
  LoopSpec loop;
  loop.first = 0;
  loop.last = 1;
  loop.iterations = 2;
  std::vector<std::unique_ptr<Stage>> looped;
  looped.push_back(forward());
  looped.push_back(backward());
  EXPECT_NO_THROW(PolicyGraph("test-graph", scenario.instance(),
                              std::move(looped), loop));
  std::vector<std::unique_ptr<Stage>> straight;
  straight.push_back(forward());
  straight.push_back(backward());
  EXPECT_FALSE(
      construction_error(std::move(straight), scenario.instance()).empty());
}

TEST(Pipeline, OutOfRangeLoopRegionFailsConstruction) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "only", std::vector<PortSpec>{}, std::vector<PortSpec>{}));
  LoopSpec loop;
  loop.first = 0;
  loop.last = 5;
  loop.iterations = 2;
  const std::string message =
      construction_error(std::move(stages), scenario.instance(), loop);
  EXPECT_NE(message.find("loop region"), std::string::npos) << message;
}

}  // namespace
}  // namespace eotora::sim::pipeline
