#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/decision_log.h"
#include "sim/registry.h"

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

PolicyFactory dpp_factory(double v = 50.0) {
  PolicyParams params;
  params.v = v;
  params.bdma_iterations = 1;
  return policy_factory("dpp-bdma", params);
}

TEST(Replicate, RunsRequestedReplications) {
  const auto summary = replicate(tiny(), dpp_factory(), /*horizon=*/12,
                                 /*replications=*/4);
  EXPECT_EQ(summary.replications, 4u);
  EXPECT_EQ(summary.latency.count(), 4u);
  EXPECT_EQ(summary.policy_name, "BDMA-based DPP");
  EXPECT_GT(summary.latency.mean(), 0.0);
  EXPECT_GT(summary.cost.mean(), 0.0);
}

TEST(Replicate, SeedsProduceVariation) {
  const auto summary = replicate(tiny(), dpp_factory(), 12, 5);
  // Five different topologies/traces: some spread in the outcomes.
  EXPECT_GT(summary.latency.stddev(), 0.0);
}

TEST(Replicate, DeterministicGivenBaseConfig) {
  const auto a = replicate(tiny(), dpp_factory(), 10, 3);
  const auto b = replicate(tiny(), dpp_factory(), 10, 3);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.cost.mean(), b.cost.mean());
}

TEST(Replicate, ConfidenceIntervalMatchesFormula) {
  const auto summary = replicate(tiny(), dpp_factory(), 10, 6);
  const double n = 6.0;
  const double sample_stddev =
      summary.latency.stddev() * std::sqrt(n / (n - 1.0));
  EXPECT_NEAR(summary.latency_ci_halfwidth(),
              1.96 * sample_stddev / std::sqrt(n), 1e-12);
  EXPECT_GT(summary.latency_ci_halfwidth(), 0.0);
}

TEST(Replicate, SingleReplicationHasZeroCi) {
  const auto one = replicate(tiny(), dpp_factory(), 8, 1);
  EXPECT_DOUBLE_EQ(one.latency_ci_halfwidth(), 0.0);
}

TEST(Replicate, RejectsBadArguments) {
  EXPECT_THROW((void)replicate(tiny(), dpp_factory(), 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)replicate(tiny(), dpp_factory(), 1, 0),
               std::invalid_argument);
}

TEST(DecisionLog, RecordsAndSerializes) {
  Scenario scenario(tiny());
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  DecisionLog log;
  util::Rng rng(1);
  for (int t = 0; t < 5; ++t) {
    const auto state = scenario.next_state();
    log.record(state, policy->step(state, rng));
  }
  EXPECT_EQ(log.rows(), 5u);
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("slot,price,latency"), std::string::npos);
  // Header + 5 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
}

TEST(DecisionLog, EmptyLogRejectsSerialization) {
  DecisionLog log;
  EXPECT_THROW((void)log.to_csv(), std::invalid_argument);
}

TEST(DecisionLog, SaveWritesFile) {
  Scenario scenario(tiny());
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  DecisionLog log;
  util::Rng rng(2);
  const auto state = scenario.next_state();
  log.record(state, policy->step(state, rng));
  const std::string path = "/tmp/eotora_test_decision_log.csv";
  log.save(path);
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
  std::string header;
  std::getline(file, header);
  EXPECT_NE(header.find("mean_ghz"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eotora::sim

namespace eotora::sim {
namespace {

TEST(ReplicateParallel, MatchesSerialExactly) {
  const auto serial = replicate(tiny(), dpp_factory(), 10, 6);
  const auto parallel = replicate_parallel(tiny(), dpp_factory(), 10, 6, 3);
  EXPECT_EQ(parallel.replications, serial.replications);
  EXPECT_DOUBLE_EQ(parallel.latency.mean(), serial.latency.mean());
  EXPECT_DOUBLE_EQ(parallel.latency.stddev(), serial.latency.stddev());
  EXPECT_DOUBLE_EQ(parallel.cost.mean(), serial.cost.mean());
  EXPECT_EQ(parallel.policy_name, serial.policy_name);
}

TEST(ReplicateParallel, MoreThreadsThanReplicationsIsFine) {
  const auto summary = replicate_parallel(tiny(), dpp_factory(), 8, 2, 16);
  EXPECT_EQ(summary.replications, 2u);
  EXPECT_GT(summary.latency.mean(), 0.0);
}

TEST(ReplicateParallel, RejectsZeroThreads) {
  EXPECT_THROW((void)replicate_parallel(tiny(), dpp_factory(), 8, 2, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::sim
