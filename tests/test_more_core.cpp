// Additional behavioral edge cases across core/trace/util that the
// module-focused suites do not cover.
#include <gtest/gtest.h>

#include <thread>

#include "core/bnb.h"
#include "core/brute_force.h"
#include "core/cgba.h"
#include "core/wcg.h"
#include "sim/decision_log.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "support/decision_log.h"
#include "test_helpers.h"
#include "trace/price_trace.h"
#include "util/rng.h"
#include "util/timer.h"

namespace eotora::core {
namespace {

TEST(WcgOptions, TwoBaseStationsToSameServerAreDistinctOptions) {
  // tiny_topology: bs0 reaches servers {0,1,2}, bs1 reaches {2}. Device can
  // reach server 2 via either station -> two options with the same server
  // but different access/fronthaul resources.
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  int server2_options = 0;
  std::size_t first_access = 0;
  bool saw_two_access_resources = false;
  for (const auto& opt : problem.options(0)) {
    if (opt.server == 2) {
      if (server2_options == 0) {
        first_access = opt.r_access;
      } else if (opt.r_access != first_access) {
        saw_two_access_resources = true;
      }
      ++server2_options;
    }
  }
  EXPECT_EQ(server2_options, 2);
  EXPECT_TRUE(saw_two_access_resources);
}

TEST(WcgOptions, WeightsMatchBandwidths) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  const Frequencies freq = instance.max_frequencies();
  const WcgProblem problem(instance, state, freq);
  const auto& topo = instance.topology();
  for (const auto& opt : problem.options(0)) {
    const auto& bs = topo.base_station(topology::BaseStationId{opt.bs});
    EXPECT_DOUBLE_EQ(problem.weight(opt.r_access),
                     1.0 / bs.access_bandwidth_hz);
    EXPECT_DOUBLE_EQ(problem.weight(opt.r_fronthaul),
                     1.0 / bs.fronthaul_bandwidth_hz);
    const auto& server = topo.server(topology::ServerId{opt.server});
    EXPECT_DOUBLE_EQ(problem.weight(opt.r_compute),
                     1.0 / server.capacity_hz(freq[opt.server]));
  }
}

TEST(Bnb, NeverExploresMoreNodesThanBruteForceProfiles) {
  util::Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t devices = 4 + rng.index(3);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    const WcgProblem problem(instance, state, instance.max_frequencies());
    const auto exact = brute_force(problem);
    const auto bnb = branch_and_bound(problem);
    // Node count counts internal nodes too, but pruning keeps it below the
    // leaf count of exhaustive search on all tested instances.
    EXPECT_LT(bnb.iterations, exact.iterations * 3);
    EXPECT_TRUE(bnb.optimal);
  }
}

TEST(Bnb, OptimalWarmStartMakesSearchCheap) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(7);
  const SlotState state = test::random_state(7, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const auto exact = branch_and_bound(problem);
  BnbConfig warm;
  warm.initial_incumbent = exact.profile;
  const auto rerun = branch_and_bound(problem, warm);
  EXPECT_LE(rerun.iterations, exact.iterations);
  EXPECT_NEAR(rerun.cost, exact.cost, 1e-12);
}

TEST(Instance, ServerCostMonotoneInFrequencyAndPrice) {
  const Instance instance = test::tiny_instance(1);
  EXPECT_LT(instance.server_cost(0, 2.0, 50.0),
            instance.server_cost(0, 3.0, 50.0));
  EXPECT_LT(instance.server_cost(0, 2.0, 50.0),
            instance.server_cost(0, 2.0, 80.0));
}

}  // namespace
}  // namespace eotora::core

namespace eotora::trace {
namespace {

TEST(PriceSpikes, OccurAtRoughlyConfiguredRate) {
  PriceTraceConfig config;
  config.noise_stddev = 0.0;
  config.spike_probability = 0.2;
  config.spike_multiplier = 5.0;
  PriceTrace trace(config, util::Rng(6));
  int spikes = 0;
  const int horizon = 5000;
  for (int t = 0; t < horizon; ++t) {
    const double trend = trace.trend_at(static_cast<std::size_t>(t));
    const double price = trace.next();
    if (price > trend * 2.0) ++spikes;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / horizon, 0.2, 0.03);
}

}  // namespace
}  // namespace eotora::trace

namespace eotora::sim {
namespace {

// A real policy's log parses back row for row, and each row's frequency
// summary is ordered: min <= mean <= max.
TEST(DecisionLogCsv, ParsesBackThroughFromCsv) {
  ScenarioConfig config;
  config.devices = 4;
  config.mid_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 21;
  Scenario scenario(config);
  PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  DecisionLog log;
  util::Rng rng(1);
  for (int t = 0; t < 6; ++t) {
    const auto state = scenario.next_state();
    log.record(state, policy->step(state, rng));
  }
  const DecisionLog back = DecisionLog::from_csv(log.to_csv());
  ASSERT_EQ(back.rows(), 6u);
  for (std::size_t t = 0; t < 6; ++t) {
    const DecisionLog::Row& row = back.entries()[t];
    EXPECT_EQ(row, log.entries()[t]);
    EXPECT_EQ(row.slot, t);
    EXPECT_GE(row.mean_ghz, row.min_ghz);
    EXPECT_LE(row.mean_ghz, row.max_ghz);
  }
}

TEST(GreedyBudget, InfeasibleBudgetRunsAtFloor) {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 22;
  config.budget_per_slot = 1e-6;  // impossible
  Scenario scenario(config);
  const auto policy = make_policy("greedy-budget", scenario.instance());
  util::Rng rng(2);
  const auto state = scenario.next_state();
  const auto slot = policy->step(state, rng);
  const auto floor = scenario.instance().min_frequencies();
  for (std::size_t n = 0; n < floor.size(); ++n) {
    EXPECT_DOUBLE_EQ(slot.decision.frequencies[n], floor[n]);
  }
}

}  // namespace
}  // namespace eotora::sim

namespace eotora::util {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = timer.elapsed_ms();
  EXPECT_GE(elapsed, 15.0);
  EXPECT_LT(elapsed, 2000.0);
  timer.reset();
  EXPECT_LT(timer.elapsed_ms(), elapsed);
  EXPECT_NEAR(timer.elapsed_seconds() * 1e6, timer.elapsed_us(),
              timer.elapsed_us());
}

}  // namespace
}  // namespace eotora::util
