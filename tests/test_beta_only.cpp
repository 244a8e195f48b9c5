#include "core/beta_only.h"

#include <gtest/gtest.h>

#include "core/latency.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(BetaOnly, LooseTargetGivesPureLatencyMinimum) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const double max_cost =
      instance.energy_cost(instance.max_frequencies(), state.price_per_mwh);
  const auto result =
      solve_beta_only(instance, state, max_cost * 2.0, BetaOnlyConfig{});
  EXPECT_DOUBLE_EQ(result.multiplier, 0.0);
  // Loaded servers run at max frequency.
  std::vector<bool> loaded(instance.num_servers(), false);
  for (std::size_t n : result.assignment.server_of) loaded[n] = true;
  for (std::size_t n = 0; n < instance.num_servers(); ++n) {
    if (loaded[n]) {
      EXPECT_DOUBLE_EQ(result.frequencies[n],
                       instance.max_frequencies()[n]);
    }
  }
}

TEST(BetaOnly, BindingTargetIsRespectedAndNearlySpent) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const double lo_cost =
      instance.energy_cost(instance.min_frequencies(), state.price_per_mwh);
  const double hi_cost =
      instance.energy_cost(instance.max_frequencies(), state.price_per_mwh);
  const double target = 0.5 * (lo_cost + hi_cost);
  const auto result =
      solve_beta_only(instance, state, target, BetaOnlyConfig{});
  EXPECT_LE(result.energy_cost, target * (1.0 + 1e-9));
  // The oracle should not leave large amounts of budget unspent.
  EXPECT_GE(result.energy_cost, target * 0.95);
  EXPECT_GT(result.multiplier, 0.0);
}

TEST(BetaOnly, InfeasibleTargetFallsToFloor) {
  util::Rng rng(3);
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::random_state(4, 2, rng);
  const double lo_cost =
      instance.energy_cost(instance.min_frequencies(), state.price_per_mwh);
  const auto result =
      solve_beta_only(instance, state, lo_cost * 0.5, BetaOnlyConfig{});
  EXPECT_NEAR(result.energy_cost, lo_cost, lo_cost * 0.05);
  EXPECT_GT(result.energy_cost, lo_cost * 0.5);  // target truly infeasible
}

TEST(BetaOnly, LatencyMonotoneInTarget) {
  util::Rng rng(4);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const double lo_cost =
      instance.energy_cost(instance.min_frequencies(), state.price_per_mwh);
  const double hi_cost =
      instance.energy_cost(instance.max_frequencies(), state.price_per_mwh);
  double previous_latency = std::numeric_limits<double>::infinity();
  for (double frac : {0.2, 0.5, 0.8, 1.2}) {
    const double target = lo_cost + frac * (hi_cost - lo_cost);
    const auto result =
        solve_beta_only(instance, state, target, BetaOnlyConfig{});
    EXPECT_LE(result.latency, previous_latency * (1.0 + 1e-6))
        << "frac=" << frac;
    previous_latency = result.latency;
  }
}

TEST(BetaOnly, ReportedNumbersConsistent) {
  util::Rng rng(5);
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::random_state(4, 2, rng);
  const auto result = solve_beta_only(instance, state, 1.0, BetaOnlyConfig{});
  EXPECT_NEAR(result.latency,
              reduced_latency(instance, state, result.assignment,
                              result.frequencies),
              1e-9 * result.latency);
  EXPECT_NEAR(
      result.energy_cost,
      instance.energy_cost(result.frequencies, state.price_per_mwh),
      1e-12);
}

TEST(BetaOnly, RejectsBadArguments) {
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2);
  EXPECT_THROW((void)solve_beta_only(instance, state, 0.0, BetaOnlyConfig{}),
               std::invalid_argument);
  BetaOnlyConfig config;
  config.iterations = 0;
  EXPECT_THROW((void)solve_beta_only(instance, state, 1.0, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
