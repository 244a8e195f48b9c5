// The receding-horizon "mpc" policy, as the registry builds it.
#include "sim/mpc_policy.h"

#include <gtest/gtest.h>

#include "core/latency.h"
#include "sim/pipeline/stages.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "support/core_oracles.h"

namespace eotora::sim {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.devices = 12;
  config.mid_band_stations = 2;
  config.low_band_stations = 2;
  config.clusters = 2;
  config.servers_per_cluster = 3;
  config.seed = 17;
  config.budget_per_slot = 1.2;
  return config;
}

// Runs MPC's trend stage on the scenario's next `slots` states and returns
// each slot's forecast length: one price while bootstrapping, `window`
// prices once the trends have seen a period.
std::vector<std::size_t> forecast_lengths(pipeline::TrendObserveStage& stage,
                                          Scenario& scenario, int slots) {
  pipeline::StageContext ctx;
  ctx.instance = &scenario.instance();
  std::vector<std::size_t> lengths;
  for (int t = 0; t < slots; ++t) {
    const core::SlotState state = scenario.next_state();
    ctx.state = &state;
    stage.run(ctx);
    lengths.push_back(ctx.forecast.prices.size());
  }
  return lengths;
}

TEST(Mpc, ProducesFeasibleDecisionsFromSlotOne) {
  Scenario scenario(small_config());
  const auto policy = make_policy("mpc", scenario.instance());
  util::Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    const auto state = scenario.next_state();
    const auto slot = policy->step(state, rng);
    EXPECT_TRUE(
        scenario.instance().frequencies_feasible(slot.decision.frequencies));
    EXPECT_TRUE(core::allocation_feasible(scenario.instance(),
                                          slot.decision.assignment,
                                          slot.decision.allocation));
    EXPECT_GT(slot.latency, 0.0);
  }
}

TEST(Mpc, StartsForecastingAfterOnePeriod) {
  Scenario scenario(small_config());
  pipeline::TrendObserveStage stage{MpcConfig{}};
  const auto lengths = forecast_lengths(stage, scenario, 24);
  ASSERT_EQ(lengths.size(), 24u);
  // The 24th observation completes the first period.
  for (std::size_t t = 0; t + 1 < lengths.size(); ++t) {
    EXPECT_EQ(lengths[t], 1u) << "slot " << t;
  }
  EXPECT_EQ(lengths.back(), MpcConfig{}.window);
}

TEST(Mpc, ResetForgetsTrends) {
  Scenario scenario(small_config());
  pipeline::TrendObserveStage stage{MpcConfig{}};
  EXPECT_EQ(forecast_lengths(stage, scenario, 30).back(), MpcConfig{}.window);
  stage.reset();
  EXPECT_EQ(forecast_lengths(stage, scenario, 1).back(), 1u);
}

TEST(Mpc, WindowBudgetRoughlyRespectedOnceForecasting) {
  ScenarioConfig config = small_config();
  Scenario scenario(config);
  const auto policy = make_policy("mpc", scenario.instance());
  const auto states = scenario.generate_states(24 * 8);
  util::Rng rng(4);
  double tail_cost = 0.0;
  int tail_slots = 0;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    if (state.slot >= 24 * 4) {  // trends converged
      tail_cost += slot.energy_cost;
      ++tail_slots;
    }
  }
  ASSERT_GT(tail_slots, 0);
  // Certainty-equivalence planning keeps the realized average near the
  // budget (forecast errors allow a modest band).
  EXPECT_LT(tail_cost / tail_slots, config.budget_per_slot * 1.15);
  EXPECT_GT(tail_cost / tail_slots, config.budget_per_slot * 0.5);
}

TEST(Mpc, SpendsMoreInCheapForecastHours) {
  // With a clean price cycle, the planned multiplier is shared across the
  // window, so realized frequencies must anti-correlate with price.
  ScenarioConfig config = small_config();
  config.price.noise_stddev = 1.0;
  config.price.spike_probability = 0.0;
  // A budget strictly between the floor and ceiling cost, so the planned
  // multiplier is positive and the clock actually moves with the price.
  config.budget_per_slot = 0.5;
  Scenario scenario(config);
  const auto policy = make_policy("mpc", scenario.instance());
  const auto states = scenario.generate_states(24 * 8);
  util::Rng rng(5);
  std::vector<double> prices;
  std::vector<double> clocks;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    if (state.slot >= 24 * 4) {
      prices.push_back(state.price_per_mwh);
      double mean = 0.0;
      for (double w : slot.decision.frequencies) mean += w;
      clocks.push_back(mean / slot.decision.frequencies.size());
    }
  }
  EXPECT_LT(util::correlation(prices, clocks), -0.1);
}

TEST(Mpc, RejectsBadConfig) {
  Scenario scenario(small_config());
  PolicyParams params;
  params.mpc.window = 0;
  EXPECT_THROW((void)make_policy("mpc", scenario.instance(), params),
               std::invalid_argument);
  params = {};
  params.mpc.bisection_iterations = 0;
  EXPECT_THROW((void)make_policy("mpc", scenario.instance(), params),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::sim
