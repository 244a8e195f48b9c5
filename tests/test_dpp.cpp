#include "core/dpp.h"

#include <gtest/gtest.h>

#include "core/latency.h"
#include "core/metrics.h"
#include "sim/pipeline/assemblies.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

using sim::pipeline::make_dpp_pipeline;

SlotState priced_state(std::size_t devices, double price, util::Rng& rng) {
  SlotState state = test::random_state(devices, 2, rng);
  state.price_per_mwh = price;
  return state;
}

TEST(Dpp, QueueFollowsEquation21) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(4, /*budget=*/1.0);
  DppConfig config;
  config.v = 50.0;
  const auto controller = make_dpp_pipeline(instance, config);
  double expected_queue = 0.0;
  for (int t = 0; t < 20; ++t) {
    const SlotState state = priced_state(4, rng.uniform(20.0, 90.0), rng);
    const DppSlotResult result = controller->step(state, rng);
    EXPECT_DOUBLE_EQ(result.queue_before, expected_queue);
    expected_queue = std::max(expected_queue + result.theta, 0.0);
    EXPECT_DOUBLE_EQ(result.queue_after, expected_queue);
  }
}

TEST(Dpp, SlotResultInternallyConsistent) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(5, /*budget=*/2.0);
  const auto controller = make_dpp_pipeline(instance, DppConfig{});
  const SlotState state = priced_state(5, 60.0, rng);
  const DppSlotResult result = controller->step(state, rng);
  EXPECT_NEAR(result.energy_cost,
              instance.energy_cost(result.decision.frequencies,
                                   state.price_per_mwh),
              1e-12);
  EXPECT_NEAR(result.theta, result.energy_cost - 2.0, 1e-12);
  // Lemma-1 allocation attached and feasible.
  EXPECT_TRUE(allocation_feasible(instance, result.decision.assignment,
                                  result.decision.allocation));
  // Reported latency equals the explicit evaluation at the allocation.
  EXPECT_NEAR(result.latency,
              latency_under_allocation(instance, state,
                                       result.decision.assignment,
                                       result.decision.frequencies,
                                       result.decision.allocation),
              1e-9 * result.latency);
}

TEST(Dpp, HighPriceShrinksFrequencies) {
  util::Rng rng(3);
  const Instance instance = test::tiny_instance(6, /*budget=*/0.5);
  // V and Q(1) tuned so the cheap-price slot sits at/near full frequency
  // while the expensive slot is pushed down by the energy term.
  DppConfig config;
  config.v = 2000.0;
  config.initial_queue = 100.0;
  const auto cheap_controller = make_dpp_pipeline(instance, config);
  const auto pricey_controller = make_dpp_pipeline(instance, config);
  util::Rng rng_a(10);
  util::Rng rng_b(10);
  SlotState state = test::random_state(6, 2, rng);
  state.price_per_mwh = 15.0;
  const auto cheap = cheap_controller->step(state, rng_a);
  state.price_per_mwh = 150.0;
  const auto pricey = pricey_controller->step(state, rng_b);
  double cheap_sum = 0.0;
  double pricey_sum = 0.0;
  for (std::size_t n = 0; n < instance.num_servers(); ++n) {
    cheap_sum += cheap.decision.frequencies[n];
    pricey_sum += pricey.decision.frequencies[n];
  }
  EXPECT_LT(pricey_sum, cheap_sum);
}

TEST(Dpp, LongRunMeetsBudgetWhenFeasible) {
  util::Rng rng(4);
  // Budget chosen well above the minimum-possible cost so Assumption 1
  // (Slater) holds and Theorem 4's constraint guarantee applies.
  const Instance instance = test::tiny_instance(4, /*budget=*/10.0);
  const double min_possible =
      instance.energy_cost(instance.min_frequencies(), 90.0);
  ASSERT_LT(min_possible, 10.0);
  DppConfig config;
  config.v = 50.0;
  const auto controller = make_dpp_pipeline(instance, config);
  MetricsCollector metrics;
  for (int t = 0; t < 600; ++t) {
    const double price = 40.0 + 30.0 * ((t % 24) >= 12 ? 1.0 : -1.0) +
                         rng.uniform(-5.0, 5.0);
    metrics.record(controller->step(priced_state(4, price, rng), rng));
  }
  EXPECT_LE(metrics.average_energy_cost(), 10.0 * 1.02);
  // The queue stays bounded (stability).
  EXPECT_LT(metrics.queue_series().back(), 1000.0);
}

TEST(Dpp, LargerVGivesLowerLatencyAndBiggerQueue) {
  const Instance instance = test::tiny_instance(6, /*budget=*/1.0);
  auto run = [&](double v) {
    DppConfig config;
    config.v = v;
    const auto controller = make_dpp_pipeline(instance, config);
    util::Rng rng(99);  // identical streams across v
    MetricsCollector metrics;
    for (int t = 0; t < 300; ++t) {
      const double price =
          50.0 + 40.0 * std::sin(2.0 * 3.14159 * (t % 24) / 24.0);
      metrics.record(controller->step(priced_state(6, price, rng), rng));
    }
    return metrics;
  };
  const auto low_v = run(5.0);
  const auto high_v = run(500.0);
  EXPECT_LE(high_v.average_latency(), low_v.average_latency() * 1.001);
  EXPECT_GE(high_v.average_queue(), low_v.average_queue());
}

TEST(Dpp, ResetClearsQueue) {
  util::Rng rng(5);
  const Instance instance = test::tiny_instance(3, /*budget=*/0.1);
  const auto controller = make_dpp_pipeline(instance, DppConfig{});
  DppSlotResult slot;
  for (int t = 0; t < 5; ++t) {
    slot = controller->step(priced_state(3, 80.0, rng), rng);
  }
  EXPECT_GT(slot.queue_after, 0.0);
  controller->reset();
  slot = controller->step(priced_state(3, 80.0, rng), rng);
  EXPECT_DOUBLE_EQ(slot.queue_before, 0.0);
}

TEST(Dpp, RejectsBadConfig) {
  const Instance instance = test::tiny_instance(2);
  DppConfig config;
  config.v = 0.0;
  EXPECT_THROW((void)make_dpp_pipeline(instance, config),
               std::invalid_argument);
  config = {};
  config.initial_queue = -1.0;
  EXPECT_THROW((void)make_dpp_pipeline(instance, config),
               std::invalid_argument);
}

TEST(Metrics, AggregatesSeries) {
  MetricsCollector metrics;
  DppSlotResult slot;
  slot.latency = 2.0;
  slot.energy_cost = 1.0;
  slot.queue_after = 3.0;
  slot.theta = 0.5;
  metrics.record(slot);
  slot.latency = 4.0;
  slot.energy_cost = 3.0;
  slot.queue_after = 5.0;
  metrics.record(slot);
  EXPECT_EQ(metrics.slots(), 2u);
  EXPECT_DOUBLE_EQ(metrics.average_latency(), 3.0);
  EXPECT_DOUBLE_EQ(metrics.average_energy_cost(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.average_queue(), 4.0);
  EXPECT_DOUBLE_EQ(metrics.max_queue(), 5.0);
  ASSERT_EQ(metrics.latency_series().size(), 2u);
  EXPECT_DOUBLE_EQ(metrics.latency_series()[1], 4.0);
  EXPECT_DOUBLE_EQ(metrics.max_latency(), 4.0);
}

}  // namespace
}  // namespace eotora::core
