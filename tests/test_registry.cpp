#include "sim/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eotora::sim {
namespace {

ScenarioConfig tiny() {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 100;
  return config;
}

PolicyParams fast_params() {
  PolicyParams params;
  params.bdma_iterations = 1;
  params.mcba_iterations = 50;
  return params;
}

TEST(Registry, ListsTheExpectedNames) {
  const auto names = registered_policies();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"beta-only", "dpp-bdma", "dpp-mcba", "dpp-ropt", "greedy-budget",
        "fixed-frequency", "fixed-max", "fixed-min", "mpc"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(names.size(), 9u);
}

TEST(Registry, PolicyTracksQueueOnlyForTheDppFamily) {
  for (const auto& name : registered_policies()) {
    const bool expected = name.rfind("dpp-", 0) == 0;
    EXPECT_EQ(policy_tracks_queue(name), expected) << name;
  }
  EXPECT_FALSE(policy_tracks_queue("beta-only"));
  EXPECT_TRUE(policy_tracks_queue("dpp-bdma"));
}

TEST(Registry, BetaOnlyPolicyRespectsTheBudgetOracleShape) {
  ScenarioSource source(tiny(), 3);
  auto policy = make_policy("beta-only", source.instance(), fast_params());
  EXPECT_EQ(policy->name(), "Beta-only (per-slot budget)");
  const auto result = run_policy(*policy, source, 5);
  EXPECT_EQ(result.metrics.slots(), 3u);
  EXPECT_GT(result.metrics.average_latency(), 0.0);
  // Queue-free: the backlog series stays identically zero.
  EXPECT_DOUBLE_EQ(result.metrics.average_queue(), 0.0);
}

TEST(Registry, EveryRegisteredNameBuildsAWorkingPolicy) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(3);
  for (const auto& name : registered_policies()) {
    auto policy = make_policy(name, scenario.instance(), fast_params());
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_FALSE(policy->name().empty()) << name;
    // The policy actually decides slots: positive latency, finite cost.
    MaterializedSource source(states);
    const auto result = run_policy(*policy, source, 7);
    EXPECT_EQ(result.metrics.slots(), 3u) << name;
    EXPECT_GT(result.metrics.average_latency(), 0.0) << name;
  }
}

TEST(Registry, UnknownNameThrowsListingKnownOnes) {
  Scenario scenario(tiny());
  try {
    (void)make_policy("no-such-policy", scenario.instance());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos);
    EXPECT_NE(message.find("dpp-bdma"), std::string::npos);
  }
}

TEST(Registry, ParamsReachTheConstructedPolicy) {
  Scenario scenario(tiny());
  PolicyParams params = fast_params();
  params.v = 77.0;
  params.initial_queue = 12.5;
  auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  // The warm-started queue is visible in the first slot's Q(t).
  const auto states = scenario.generate_states(1);
  util::Rng rng(9);
  const auto slot = policy->step(states.front(), rng);
  EXPECT_DOUBLE_EQ(slot.queue_before, 12.5);

  params.fixed_fraction = 0.25;
  auto fixed =
      make_policy("fixed-frequency", scenario.instance(), params);
  EXPECT_NE(fixed->name().find("0.25"), std::string::npos)
      << fixed->name();
}

TEST(Registry, SolverKindSelectsDistinctPolicies) {
  Scenario scenario(tiny());
  const auto bdma =
      make_policy("dpp-bdma", scenario.instance(), fast_params());
  const auto mcba =
      make_policy("dpp-mcba", scenario.instance(), fast_params());
  const auto ropt =
      make_policy("dpp-ropt", scenario.instance(), fast_params());
  EXPECT_NE(bdma->name(), mcba->name());
  EXPECT_NE(bdma->name(), ropt->name());
  EXPECT_NE(mcba->name(), ropt->name());
}

// A 4-district metro world: the WCG splits into one component per district.
ScenarioConfig metro() {
  ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 32;
  config.servers_per_cluster = 2;
  return config;
}

// Every name eotora_cli accepts --shards for (all but dpp-ropt and
// beta-only) gives the same decisions with its components on pool workers
// as inline, and its P2-A stage reports one component per district.
TEST(Registry, ShardWorkersShardEveryCgbaOrMcbaPolicy) {
  Scenario scenario(metro());
  const auto states = scenario.generate_states(3);
  for (const auto& name : registered_policies()) {
    if (name == "dpp-ropt" || name == "beta-only") continue;
    PolicyParams params = fast_params();
    const auto global = make_policy(name, scenario.instance(), params);
    params.shard_workers = 2;
    const auto sharded = make_policy(name, scenario.instance(), params);
    util::Rng global_rng(5);
    util::Rng sharded_rng(5);
    for (std::size_t t = 0; t < states.size(); ++t) {
      const auto a = global->step(states[t], global_rng);
      const auto b = sharded->step(states[t], sharded_rng);
      const std::string where = name + " slot " + std::to_string(t);
      EXPECT_EQ(a.decision.assignment.bs_of, b.decision.assignment.bs_of)
          << where;
      EXPECT_EQ(a.decision.assignment.server_of,
                b.decision.assignment.server_of)
          << where;
      EXPECT_EQ(a.decision.frequencies, b.decision.frequencies) << where;
      EXPECT_EQ(a.latency, b.latency) << where;
      EXPECT_EQ(a.energy_cost, b.energy_cost) << where;
    }
    const std::string p2a_stage =
        name.rfind("dpp-", 0) == 0 ? "p2a_solve" : "cgba_assign";
    std::size_t shards = 0;
    for (const auto& stage : sharded->stage_stats()) {
      if (stage.name == p2a_stage) shards = stage.shards.size();
    }
    EXPECT_EQ(shards, 4u) << name;
  }
}

}  // namespace
}  // namespace eotora::sim
