#include "core/alloc_rules.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/latency.h"
#include "core/lemma1.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace eotora::core {
namespace {

Assignment shared_assignment(std::size_t devices) {
  Assignment a;
  a.bs_of.assign(devices, 0);
  a.server_of.assign(devices, 0);
  return a;
}

TEST(EqualShare, SplitsEvenly) {
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::uniform_state(4, 2);
  const auto alloc =
      equal_share_allocation(instance, state, shared_assignment(4));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(alloc.phi[i], 0.25);
    EXPECT_DOUBLE_EQ(alloc.psi_access[i], 0.25);
    EXPECT_DOUBLE_EQ(alloc.psi_fronthaul[i], 0.25);
  }
  EXPECT_TRUE(allocation_feasible(instance, shared_assignment(4), alloc));
}

TEST(DemandProportional, WeightsFollowDemand) {
  const Instance instance = test::tiny_instance(2);
  SlotState state = test::uniform_state(2, 2);
  state.task_cycles = {1e8, 3e8};  // 1:3 demand
  const auto alloc = demand_proportional_allocation(instance, state,
                                                    shared_assignment(2));
  EXPECT_NEAR(alloc.phi[0], 0.25, 1e-12);
  EXPECT_NEAR(alloc.phi[1], 0.75, 1e-12);
}

TEST(AllocRules, AllRulesFeasibleOnRandomInstances) {
  util::Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t devices = 3 + rng.index(4);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    Assignment assignment;
    for (std::size_t i = 0; i < devices; ++i) {
      assignment.bs_of.push_back(0);
      assignment.server_of.push_back(rng.index(3));
    }
    for (const auto& alloc :
         {equal_share_allocation(instance, state, assignment),
          demand_proportional_allocation(instance, state, assignment),
          optimal_allocation(instance, state, assignment)}) {
      EXPECT_TRUE(allocation_feasible(instance, assignment, alloc));
    }
  }
}

// The ablation claim behind Lemma 1: the closed form dominates both straw-man
// rules on every instance.
class Lemma1Dominance : public ::testing::TestWithParam<int> {};

TEST_P(Lemma1Dominance, OptimalBeatsEqualAndProportional) {
  util::Rng rng(4000 + GetParam());
  const std::size_t devices = 3 + rng.index(4);
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(rng.index(3));
  }
  const Frequencies freq = instance.max_frequencies();
  const double optimal = latency_under_allocation(
      instance, state, assignment, freq,
      optimal_allocation(instance, state, assignment));
  const double equal = latency_under_allocation(
      instance, state, assignment, freq,
      equal_share_allocation(instance, state, assignment));
  const double proportional = latency_under_allocation(
      instance, state, assignment, freq,
      demand_proportional_allocation(instance, state, assignment));
  EXPECT_LE(optimal, equal * (1.0 + 1e-9));
  EXPECT_LE(optimal, proportional * (1.0 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Dominance, ::testing::Range(0, 10));

TEST(ReducedDeviceLatencies, SumToReducedTotal) {
  util::Rng rng(5);
  const std::size_t devices = 5;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(i % 3);
  }
  const Frequencies freq = instance.max_frequencies();
  const auto per_device =
      reduced_device_latencies(instance, state, assignment, freq);
  ASSERT_EQ(per_device.size(), devices);
  const double sum =
      std::accumulate(per_device.begin(), per_device.end(), 0.0);
  EXPECT_NEAR(sum, reduced_latency(instance, state, assignment, freq),
              1e-9 * sum);
  for (double latency : per_device) EXPECT_GT(latency, 0.0);
}

// The total-latency identity documented in alloc_rules.h: proportional and
// equal shares give EXACTLY the same total (n * sum(c) per resource), and
// proportional equalizes per-device latency within a shared resource.
TEST(AllocRules, ProportionalEqualsEqualShareInTotal) {
  util::Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t devices = 3 + rng.index(4);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    Assignment assignment;
    for (std::size_t i = 0; i < devices; ++i) {
      assignment.bs_of.push_back(0);
      assignment.server_of.push_back(rng.index(3));
    }
    const Frequencies freq = instance.max_frequencies();
    const double equal = latency_under_allocation(
        instance, state, assignment, freq,
        equal_share_allocation(instance, state, assignment));
    const double proportional = latency_under_allocation(
        instance, state, assignment, freq,
        demand_proportional_allocation(instance, state, assignment));
    EXPECT_NEAR(equal, proportional, 1e-9 * equal);
  }
}

TEST(AllocRules, ProportionalEqualizesPerDeviceLatencyOnSharedResource) {
  const Instance instance = test::tiny_instance(3);
  SlotState state = test::uniform_state(3, 2);
  state.task_cycles = {5e7, 1e8, 2e8};
  state.data_bits = {3e6, 6e6, 9e6};
  Assignment assignment = [&] {
    Assignment a;
    a.bs_of.assign(3, 0);
    a.server_of.assign(3, 0);
    return a;
  }();
  const Frequencies freq = instance.max_frequencies();
  const auto alloc =
      demand_proportional_allocation(instance, state, assignment);
  // All three devices share every resource, so each one's latency is the
  // same under proportional sharing.
  const auto l0 = device_latency_under_allocation(instance, state, assignment,
                                                  freq, alloc, 0);
  const auto l1 = device_latency_under_allocation(instance, state, assignment,
                                                  freq, alloc, 1);
  const auto l2 = device_latency_under_allocation(instance, state, assignment,
                                                  freq, alloc, 2);
  EXPECT_NEAR(l0.total(), l1.total(), 1e-9 * l0.total());
  EXPECT_NEAR(l1.total(), l2.total(), 1e-9 * l1.total());
}

TEST(AllocRules, RejectUnusableChannel) {
  const Instance instance = test::tiny_instance(1);
  SlotState state = test::uniform_state(1, 2);
  state.channel[0][0] = 0.0;
  Assignment assignment = shared_assignment(1);
  EXPECT_THROW(
      (void)equal_share_allocation(instance, state, assignment),
      std::invalid_argument);
  EXPECT_THROW(
      (void)demand_proportional_allocation(instance, state, assignment),
      std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
