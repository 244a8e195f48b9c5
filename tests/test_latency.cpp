#include "core/latency.h"

#include <gtest/gtest.h>

#include "core/lemma1.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(Latency, SingleDeviceHandComputed) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2, /*f=*/1e8, /*d=*/5e6,
                                              /*h=*/25.0);
  Assignment assignment;
  assignment.bs_of = {0};
  assignment.server_of = {0};
  const Frequencies freq = {2.0, 2.0, 2.5};
  ResourceAllocation alloc{{1.0}, {1.0}, {1.0}};

  const auto device = device_latency_under_allocation(
      instance, state, assignment, freq, alloc, 0);
  // Processing: f / (cores * w * 1e9 * sigma * phi) = 1e8 / (64 * 2e9).
  EXPECT_NEAR(device.processing, 1e8 / (64.0 * 2e9), 1e-15);
  // Access: d / (W^A h psi) = 5e6 / (80e6 * 25).
  EXPECT_NEAR(device.access, 5e6 / (80e6 * 25.0), 1e-15);
  // Fronthaul: d / (W^F h^F psi) = 5e6 / (0.8e9 * 10).
  EXPECT_NEAR(device.fronthaul, 5e6 / (0.8e9 * 10.0), 1e-15);
  EXPECT_NEAR(device.total(),
              device.processing + device.access + device.fronthaul, 1e-18);
}

TEST(Latency, ReducedEqualsExplicitAtLemma1Allocation) {
  util::Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t devices = 2 + rng.index(5);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    Assignment assignment;
    for (std::size_t i = 0; i < devices; ++i) {
      // bs0 reaches all servers; bs1 reaches only server 2.
      const bool use_bs1 = rng.bernoulli(0.3);
      assignment.bs_of.push_back(use_bs1 ? 1 : 0);
      assignment.server_of.push_back(use_bs1 ? 2 : rng.index(3));
    }
    Frequencies freq = instance.min_frequencies();
    for (std::size_t n = 0; n < freq.size(); ++n) {
      freq[n] = rng.uniform(freq[n], instance.max_frequencies()[n]);
    }
    const auto alloc = optimal_allocation(instance, state, assignment);
    const double explicit_latency =
        latency_under_allocation(instance, state, assignment, freq, alloc);
    const double reduced =
        reduced_latency(instance, state, assignment, freq);
    EXPECT_NEAR(explicit_latency, reduced, 1e-9 * explicit_latency);
  }
}

TEST(Latency, ReducedBreakdownSumsToTotal) {
  const Instance instance = test::tiny_instance(3);
  const SlotState state = test::uniform_state(3, 2);
  Assignment assignment;
  assignment.bs_of = {0, 0, 1};
  assignment.server_of = {0, 1, 2};
  const Frequencies freq = instance.max_frequencies();
  const auto breakdown =
      reduced_latency_breakdown(instance, state, assignment, freq);
  EXPECT_GT(breakdown.processing, 0.0);
  EXPECT_GT(breakdown.communication, 0.0);
  EXPECT_DOUBLE_EQ(breakdown.total(),
                   reduced_latency(instance, state, assignment, freq));
}

TEST(Latency, HigherFrequencyNeverHurts) {
  const Instance instance = test::tiny_instance(3);
  const SlotState state = test::uniform_state(3, 2);
  Assignment assignment;
  assignment.bs_of = {0, 0, 0};
  assignment.server_of = {0, 1, 1};
  const double slow = reduced_latency(instance, state, assignment,
                                      instance.min_frequencies());
  const double fast = reduced_latency(instance, state, assignment,
                                      instance.max_frequencies());
  EXPECT_LT(fast, slow);
}

TEST(Latency, SplittingLoadAcrossServersHelps) {
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2);
  const Frequencies freq = instance.max_frequencies();
  Assignment together;
  together.bs_of = {0, 0};
  together.server_of = {0, 0};
  Assignment split;
  split.bs_of = {0, 0};
  split.server_of = {0, 1};
  // Splitting compute load reduces the quadratic congestion term.
  const auto t_breakdown =
      reduced_latency_breakdown(instance, state, together, freq);
  const auto s_breakdown =
      reduced_latency_breakdown(instance, state, split, freq);
  EXPECT_LT(s_breakdown.processing, t_breakdown.processing);
  EXPECT_DOUBLE_EQ(s_breakdown.communication, t_breakdown.communication);
}

TEST(Latency, ZeroShareRejected) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  Assignment assignment;
  assignment.bs_of = {0};
  assignment.server_of = {0};
  ResourceAllocation alloc{{0.0}, {1.0}, {1.0}};
  EXPECT_THROW((void)device_latency_under_allocation(
                   instance, state, assignment, instance.max_frequencies(),
                   alloc, 0),
               std::invalid_argument);
}

TEST(Latency, InfeasibleFrequenciesRejected) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  Assignment assignment;
  assignment.bs_of = {0};
  assignment.server_of = {0};
  EXPECT_THROW(
      (void)reduced_latency(instance, state, assignment, {5.0, 2.0, 2.5}),
      std::invalid_argument);
}

TEST(AllocationFeasible, DetectsOverAllocation) {
  const Instance instance = test::tiny_instance(2);
  Assignment assignment;
  assignment.bs_of = {0, 0};
  assignment.server_of = {0, 0};
  ResourceAllocation ok{{0.5, 0.5}, {0.6, 0.4}, {0.7, 0.3}};
  EXPECT_TRUE(allocation_feasible(instance, assignment, ok));
  ResourceAllocation over{{0.8, 0.5}, {0.6, 0.4}, {0.7, 0.3}};
  EXPECT_FALSE(allocation_feasible(instance, assignment, over));
  ResourceAllocation negative{{-0.1, 0.5}, {0.6, 0.4}, {0.7, 0.3}};
  EXPECT_FALSE(allocation_feasible(instance, assignment, negative));
}

}  // namespace
}  // namespace eotora::core
