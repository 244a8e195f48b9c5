// The "greedy-budget" policy and cross-policy behavioural comparisons.
#include <gtest/gtest.h>

#include "core/latency.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "support/core_oracles.h"

namespace eotora::sim {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.devices = 10;
  config.mid_band_stations = 2;
  config.low_band_stations = 2;
  config.clusters = 2;
  config.servers_per_cluster = 3;
  config.seed = 8;
  config.budget_per_slot = 0.6;
  return config;
}

TEST(GreedyBudget, NeverExceedsBudgetInAnySlot) {
  Scenario scenario(small_config());
  const auto states = scenario.generate_states(24);
  const auto policy = make_policy("greedy-budget", scenario.instance());
  util::Rng rng(1);
  const double budget = scenario.instance().budget_per_slot();
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    const double floor_cost = scenario.instance().energy_cost(
        scenario.instance().min_frequencies(), state.price_per_mwh);
    if (floor_cost <= budget) {
      EXPECT_LE(slot.energy_cost, budget * (1.0 + 1e-9))
          << "slot " << state.slot;
    } else {
      // Even F^L busts the budget: greedy runs at the floor.
      EXPECT_NEAR(slot.energy_cost, floor_cost, 1e-9);
    }
  }
}

TEST(GreedyBudget, SpendsTheBudgetWhenBeneficial) {
  // With a budget between the F^L and F^U cost, greedy should sit close to
  // the budget (it always buys as much speed as it can afford).
  ScenarioConfig config = small_config();
  Scenario probe(config);
  const auto probe_states = probe.generate_states(24);
  // Calibrate a budget strictly between floor and ceiling cost at the
  // median price.
  const auto& instance = probe.instance();
  const double price = probe_states[12].price_per_mwh;
  const double lo = instance.energy_cost(instance.min_frequencies(), price);
  const double hi = instance.energy_cost(instance.max_frequencies(), price);
  ASSERT_LT(lo, hi);

  ScenarioConfig tuned = small_config();
  tuned.budget_per_slot = 0.5 * (lo + hi);
  Scenario scenario(tuned);
  const auto states = scenario.generate_states(24);
  const auto policy = make_policy("greedy-budget", scenario.instance());
  util::Rng rng(2);
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    const double floor_cost = scenario.instance().energy_cost(
        scenario.instance().min_frequencies(), state.price_per_mwh);
    const double ceil_cost = scenario.instance().energy_cost(
        scenario.instance().max_frequencies(), state.price_per_mwh);
    const double budget = tuned.budget_per_slot;
    if (ceil_cost <= budget) {
      EXPECT_NEAR(slot.energy_cost, ceil_cost, 1e-9);
    } else if (floor_cost < budget) {
      // Bisection should land within a hair of the budget.
      EXPECT_NEAR(slot.energy_cost, budget, budget * 1e-6);
    }
  }
}

TEST(GreedyBudget, ChoosesFeasibleAllocationsAndFrequencies) {
  Scenario scenario(small_config());
  const auto states = scenario.generate_states(6);
  const auto policy = make_policy("greedy-budget", scenario.instance());
  util::Rng rng(3);
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    EXPECT_TRUE(
        scenario.instance().frequencies_feasible(slot.decision.frequencies));
    EXPECT_TRUE(core::allocation_feasible(scenario.instance(),
                                          slot.decision.assignment,
                                          slot.decision.allocation));
  }
}

TEST(GreedyBudget, DppBeatsGreedyOnLatencyAtEqualAverageSpend) {
  // The headline behavioural claim: with the same average budget, the
  // Lyapunov controller shifts spend toward expensive/high-load slots and
  // achieves lower or equal latency than the myopic per-slot spender.
  ScenarioConfig config = small_config();
  config.devices = 30;
  config.budget_per_slot = 1.0;
  Scenario scenario(config);
  const auto states = scenario.generate_states(24 * 6);

  PolicyParams params;
  params.v = 100.0;
  params.initial_queue = 10.0;
  params.bdma_iterations = 3;
  const auto greedy =
      make_policy("greedy-budget", scenario.instance(), params);
  MaterializedSource source(states);
  const auto greedy_result = run_policy(*greedy, source, 4);
  const auto dpp_policy = make_policy("dpp-bdma", scenario.instance(), params);
  source.reset();
  const auto dpp_result = run_policy(*dpp_policy, source, 4);

  EXPECT_LT(dpp_result.metrics.average_latency(),
            greedy_result.metrics.average_latency() * 1.02);
}

TEST(GreedyBudget, NameIsStable) {
  Scenario scenario(small_config());
  const auto policy = make_policy("greedy-budget", scenario.instance());
  EXPECT_EQ(policy->name(), "Greedy per-slot budget");
}

}  // namespace
}  // namespace eotora::sim
