// Integration tests: scenario factory, state generation, policies, and the
// full simulation loop on a (reduced) paper scenario.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/registry.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eotora::sim {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 3) {
  ScenarioConfig config;
  config.devices = 12;
  config.mid_band_stations = 3;
  config.low_band_stations = 2;
  config.clusters = 2;
  config.servers_per_cluster = 3;
  config.seed = seed;
  config.budget_per_slot = 0.8;
  return config;
}

TEST(Scenario, BuildsPaperShapedTopology) {
  const Scenario scenario(ScenarioConfig{});
  const auto& topo = scenario.topology();
  EXPECT_EQ(topo.num_base_stations(), 6u);
  EXPECT_EQ(topo.num_clusters(), 2u);
  EXPECT_EQ(topo.num_servers(), 16u);
  EXPECT_EQ(topo.num_devices(), 100u);
  // Half 64-core, half 128-core.
  int cores64 = 0;
  int cores128 = 0;
  for (const auto& server : topo.servers()) {
    if (server.cores == 64) ++cores64;
    if (server.cores == 128) ++cores128;
    EXPECT_DOUBLE_EQ(server.freq_min_ghz, 1.8);
    EXPECT_DOUBLE_EQ(server.freq_max_ghz, 3.6);
  }
  EXPECT_EQ(cores64, 8);
  EXPECT_EQ(cores128, 8);
  // Bandwidths within the paper's draw ranges.
  for (const auto& bs : topo.base_stations()) {
    EXPECT_GE(bs.access_bandwidth_hz, 50e6);
    EXPECT_LE(bs.access_bandwidth_hz, 100e6);
    EXPECT_GE(bs.fronthaul_bandwidth_hz, 0.5e9);
    EXPECT_LE(bs.fronthaul_bandwidth_hz, 1e9);
    EXPECT_DOUBLE_EQ(bs.fronthaul_spectral_efficiency, 10.0);
  }
}

TEST(Scenario, StatesHaveValidShapeAndRanges) {
  Scenario scenario(small_config());
  for (int t = 0; t < 48; ++t) {
    const auto state = scenario.next_state();
    EXPECT_EQ(state.slot, static_cast<std::size_t>(t));
    ASSERT_EQ(state.task_cycles.size(), 12u);
    ASSERT_EQ(state.data_bits.size(), 12u);
    ASSERT_EQ(state.channel.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_GE(state.task_cycles[i], 50e6);
      EXPECT_LE(state.task_cycles[i], 200e6);
      EXPECT_GE(state.data_bits[i], 3e6);
      EXPECT_LE(state.data_bits[i], 10e6);
      bool any_usable = false;
      for (double h : state.channel[i]) {
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, 50.0);
        any_usable = any_usable || h >= 15.0;
      }
      // Low-band stations cover the whole region: always an option.
      EXPECT_TRUE(any_usable);
    }
    EXPECT_GT(state.price_per_mwh, 0.0);
  }
}

TEST(Scenario, SameSeedSameStates) {
  Scenario a(small_config(11));
  Scenario b(small_config(11));
  const auto sa = a.generate_states(10);
  const auto sb = b.generate_states(10);
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(sa[t].task_cycles, sb[t].task_cycles);
    EXPECT_EQ(sa[t].data_bits, sb[t].data_bits);
    EXPECT_EQ(sa[t].channel, sb[t].channel);
    EXPECT_DOUBLE_EQ(sa[t].price_per_mwh, sb[t].price_per_mwh);
  }
}

TEST(Scenario, DifferentSeedsDiffer) {
  Scenario a(small_config(1));
  Scenario b(small_config(2));
  const auto sa = a.generate_states(3);
  const auto sb = b.generate_states(3);
  EXPECT_NE(sa[0].task_cycles, sb[0].task_cycles);
}

TEST(Simulator, RunsAllPolicyKinds) {
  Scenario scenario(small_config());
  const auto states = scenario.generate_states(24);
  std::vector<SimulationResult> results;
  PolicyParams params;
  params.v = 50.0;
  params.bdma_iterations = 2;
  params.mcba_iterations = 300;
  for (const char* name : {"dpp-bdma", "dpp-mcba", "dpp-ropt"}) {
    const auto policy = make_policy(name, scenario.instance(), params);
    MaterializedSource source(states);
    results.push_back(run_policy(*policy, source));
    EXPECT_EQ(results.back().metrics.slots(), 24u);
    EXPECT_GT(results.back().metrics.average_latency(), 0.0);
  }
  // Names distinguish the variants.
  EXPECT_EQ(results[0].policy_name, "BDMA-based DPP");
  EXPECT_EQ(results[1].policy_name, "MCBA-based DPP");
  EXPECT_EQ(results[2].policy_name, "ROPT-based DPP");
  // BDMA-based DPP wins on latency (the paper's Fig. 9 ranking).
  EXPECT_LT(results[0].metrics.average_latency(),
            results[2].metrics.average_latency());
}

// Forwards to a policy and keeps every slot's assignment; reset() forwards
// too and starts a new recording.
class AssignmentRecorder final : public Policy {
 public:
  explicit AssignmentRecorder(Policy& inner) : inner_(inner) {}

  core::DppSlotResult step(const core::SlotState& state,
                           util::Rng& rng) override {
    core::DppSlotResult result = inner_.step(state, rng);
    bs_of.push_back(result.decision.assignment.bs_of);
    server_of.push_back(result.decision.assignment.server_of);
    return result;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override {
    inner_.reset();
    bs_of.clear();
    server_of.clear();
  }

  std::vector<std::vector<std::size_t>> bs_of;
  std::vector<std::vector<std::size_t>> server_of;

 private:
  Policy& inner_;
};

// Two drains of one policy object with the same seed decide every slot the
// same. The names below carry their last CGBA assignment into the next
// slot's start, so this also pins that reset() clears that carry: a stale
// one would start the second drain's first slot from the first drain's
// last assignment.
TEST(Simulator, DeterministicGivenSeed) {
  Scenario scenario(small_config());
  const auto states = scenario.generate_states(12);
  PolicyParams params;
  params.bdma_iterations = 2;
  for (const char* name :
       {"dpp-bdma", "greedy-budget", "fixed-max", "fixed-min", "mpc"}) {
    SCOPED_TRACE(name);
    const auto policy = make_policy(name, scenario.instance(), params);
    AssignmentRecorder recorder(*policy);
    MaterializedSource source(states);
    const auto a = run_policy(recorder, source, 5);
    const auto first_bs = recorder.bs_of;
    const auto first_server = recorder.server_of;
    source.reset();
    const auto b = run_policy(recorder, source, 5);
    EXPECT_EQ(a.metrics.latency_series(), b.metrics.latency_series());
    EXPECT_EQ(a.metrics.queue_series(), b.metrics.queue_series());
    ASSERT_EQ(first_bs.size(), states.size());
    EXPECT_EQ(recorder.bs_of, first_bs);
    EXPECT_EQ(recorder.server_of, first_server);
  }
}

TEST(Simulator, ResetHappensBetweenRuns) {
  ScenarioConfig tight = small_config();
  tight.budget_per_slot = 0.05;  // infeasibly tight: queue definitely grows
  Scenario tight_scenario(tight);
  const auto states = tight_scenario.generate_states(12);
  MaterializedSource source(states);
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy =
      make_policy("dpp-bdma", tight_scenario.instance(), params);
  const auto first = run_policy(*policy, source);
  // Queue grew during the first run...
  EXPECT_GT(first.metrics.queue_series().back(), 0.0);
  source.reset();
  const auto second = run_policy(*policy, source);
  // ...but the policy's reset() gave the second run the same trajectory.
  EXPECT_EQ(first.metrics.queue_series(), second.metrics.queue_series());
}

TEST(Simulator, TailAveragesMatchManualComputation) {
  ScenarioSource source(small_config(), 10);
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", source.instance(), params);
  const auto result = run_policy(*policy, source);
  const auto tail = tail_averages(result, 4);
  const auto& series = result.metrics.latency_series();
  double expected = 0.0;
  for (std::size_t t = 6; t < 10; ++t) expected += series[t];
  EXPECT_NEAR(tail.latency, expected / 4.0, 1e-12);
  EXPECT_THROW((void)tail_averages(result, 11), std::invalid_argument);
  EXPECT_THROW((void)tail_averages(result, 0), std::invalid_argument);
}

TEST(FixedFrequency, RunsAndRespectsFraction) {
  Scenario scenario(small_config());
  const auto states = scenario.generate_states(6);
  const auto max_policy = make_policy("fixed-max", scenario.instance());
  const auto min_policy = make_policy("fixed-min", scenario.instance());
  MaterializedSource source(states);
  const auto fast = run_policy(*max_policy, source);
  source.reset();
  const auto slow = run_policy(*min_policy, source);
  // Full frequency: lower latency, higher energy cost.
  EXPECT_LT(fast.metrics.average_latency(), slow.metrics.average_latency());
  EXPECT_GT(fast.metrics.average_energy_cost(),
            slow.metrics.average_energy_cost());
  PolicyParams params;
  params.fixed_fraction = 1.5;
  EXPECT_THROW(
      (void)make_policy("fixed-frequency", scenario.instance(), params),
      std::invalid_argument);
}

TEST(Report, PrintsComparisonAndScenario) {
  ScenarioSource source(small_config(), 4);
  const Scenario& scenario = source.scenario();
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", source.instance(), params);
  const auto result = run_policy(*policy, source);
  std::ostringstream oss;
  print_comparison(oss, {result}, scenario.config().budget_per_slot);
  EXPECT_NE(oss.str().find("BDMA-based DPP"), std::string::npos);
  EXPECT_NE(oss.str().find("avg latency"), std::string::npos);
  EXPECT_NE(oss.str().find("cost/budget"), std::string::npos);
  std::ostringstream oss2;
  print_scenario(oss2, scenario);
  EXPECT_NE(oss2.str().find("MEC scenario"), std::string::npos);
  EXPECT_NE(oss2.str().find("\n  servers: 3 x 64c, 3 x 128c\n"),
            std::string::npos)
      << oss2.str();
}

}  // namespace
}  // namespace eotora::sim

namespace eotora::sim {
namespace {

TEST(ScenarioVariants, GaussMarkovAndLogDistanceChannelWork) {
  ScenarioConfig config;
  config.devices = 8;
  config.mid_band_stations = 2;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 31;
  config.mobility = ScenarioConfig::Mobility::kGaussMarkov;
  config.channel.attenuation =
      topology::ChannelConfig::Attenuation::kLogDistance;
  ScenarioSource source(config, 24);
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", source.instance(), params);
  const auto result = run_policy(*policy, source);
  EXPECT_EQ(result.metrics.slots(), 24u);
  EXPECT_GT(result.metrics.average_latency(), 0.0);
}

TEST(ScenarioVariants, MobilityModelsProduceDifferentChannels) {
  ScenarioConfig a;
  a.devices = 6;
  a.mid_band_stations = 2;
  a.clusters = 1;
  a.servers_per_cluster = 2;
  a.seed = 32;
  ScenarioConfig b = a;
  b.mobility = ScenarioConfig::Mobility::kGaussMarkov;
  Scenario sa(a);
  Scenario sb(b);
  // Skip a few slots so positions diverge, then compare channels.
  for (int t = 0; t < 5; ++t) {
    (void)sa.next_state();
    (void)sb.next_state();
  }
  EXPECT_NE(sa.next_state().channel, sb.next_state().channel);
}

}  // namespace
}  // namespace eotora::sim
