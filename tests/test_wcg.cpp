#include "core/wcg.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/latency.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(Wcg, OptionsRespectCoverageAndFronthaul) {
  const Instance instance = test::tiny_instance(1);
  SlotState state = test::uniform_state(1, 2);
  state.channel[0][1] = 0.0;  // bs1 unusable
  const WcgProblem problem(instance, state, instance.max_frequencies());
  // Only bs0 remains; it reaches all 3 servers.
  ASSERT_EQ(problem.options(0).size(), 3u);
  for (const auto& opt : problem.options(0)) EXPECT_EQ(opt.bs, 0u);
}

TEST(Wcg, DeviceWithNoOptionThrows) {
  const Instance instance = test::tiny_instance(1);
  SlotState state = test::uniform_state(1, 2);
  state.channel[0][0] = 0.0;
  state.channel[0][1] = 0.0;
  EXPECT_THROW(WcgProblem(instance, state, instance.max_frequencies()),
               std::invalid_argument);
}

TEST(Wcg, TotalCostEqualsReducedLatency) {
  util::Rng rng(42);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t devices = 2 + rng.index(5);
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    Frequencies freq = instance.min_frequencies();
    for (std::size_t n = 0; n < freq.size(); ++n) {
      freq[n] = rng.uniform(freq[n], instance.max_frequencies()[n]);
    }
    const WcgProblem problem(instance, state, freq);
    const Profile z = problem.random_profile(rng);
    const Assignment assignment = problem.to_assignment(z);
    EXPECT_NEAR(problem.total_cost(z),
                reduced_latency(instance, state, assignment, freq),
                1e-9 * problem.total_cost(z));
  }
}

TEST(Wcg, PlayerCostsSumToTotal) {
  util::Rng rng(43);
  const std::size_t devices = 5;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const Profile z = problem.random_profile(rng);
  double sum = 0.0;
  for (std::size_t i = 0; i < devices; ++i) {
    sum += player_cost(problem, z, i);
  }
  EXPECT_NEAR(sum, problem.total_cost(z), 1e-9 * sum);
}

// The exact-potential property: for every unilateral deviation,
// Φ(after) - Φ(before) == T_i(after) - T_i(before).
class PotentialExactness : public ::testing::TestWithParam<int> {};

TEST_P(PotentialExactness, DeltaPhiEqualsDeltaPlayerCost) {
  util::Rng rng(500 + GetParam());
  const std::size_t devices = 3 + rng.index(4);
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  Profile z = problem.random_profile(rng);
  for (int move = 0; move < 25; ++move) {
    const std::size_t i = rng.index(devices);
    const std::size_t new_opt = rng.index(problem.options(i).size());
    const double phi_before = potential(problem, z);
    const double cost_before = player_cost(problem, z, i);
    Profile z2 = z;
    z2[i] = new_opt;
    const double phi_after = potential(problem, z2);
    const double cost_after = player_cost(problem, z2, i);
    EXPECT_NEAR(phi_after - phi_before, cost_after - cost_before,
                1e-9 * (1.0 + std::abs(cost_after - cost_before)));
    z = z2;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PotentialExactness, ::testing::Range(0, 8));

TEST(Wcg, LoadTrackerMatchesScratchEvaluation) {
  util::Rng rng(44);
  const std::size_t devices = 6;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  Profile z = problem.random_profile(rng);
  LoadTracker tracker(problem, z);
  for (int move = 0; move < 50; ++move) {
    EXPECT_NEAR(tracker.total_cost(), problem.total_cost(z),
                1e-9 * tracker.total_cost());
    for (std::size_t i = 0; i < devices; ++i) {
      EXPECT_NEAR(tracker.player_cost(i), player_cost(problem, z, i),
                  1e-9 * (1.0 + tracker.player_cost(i)));
    }
    const std::size_t i = rng.index(devices);
    const std::size_t o = rng.index(problem.options(i).size());
    // cost_if_moved must equal the player cost evaluated after the move.
    const double predicted = tracker.cost_if_moved(i, o);
    Profile z2 = z;
    z2[i] = o;
    EXPECT_NEAR(predicted, player_cost(problem, z2, i),
                1e-9 * (1.0 + predicted));
    tracker.move(i, o);
    z = z2;
  }
}

TEST(Wcg, BestResponseIsTrueArgmin) {
  util::Rng rng(45);
  const std::size_t devices = 4;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  LoadTracker tracker(problem, problem.random_profile(rng));
  for (std::size_t i = 0; i < devices; ++i) {
    const auto br = tracker.best_response(i);
    for (std::size_t o = 0; o < problem.options(i).size(); ++o) {
      EXPECT_LE(br.cost, tracker.cost_if_moved(i, o) + 1e-12);
    }
  }
}

TEST(Wcg, SetFrequenciesOnlyChangesComputeWeights) {
  util::Rng rng(46);
  const Instance instance = test::tiny_instance(3);
  const SlotState state = test::random_state(3, 2, rng);
  WcgProblem problem(instance, state, instance.min_frequencies());
  const Profile z = problem.random_profile(rng);
  const double slow_cost = problem.total_cost(z);
  problem.set_frequencies(instance, instance.max_frequencies());
  const double fast_cost = problem.total_cost(z);
  EXPECT_LT(fast_cost, slow_cost);
  // Communication part of the latency is frequency-independent.
  const Assignment a = problem.to_assignment(z);
  const auto slow_breakdown = reduced_latency_breakdown(
      instance, state, a, instance.min_frequencies());
  const auto fast_breakdown = reduced_latency_breakdown(
      instance, state, a, instance.max_frequencies());
  EXPECT_DOUBLE_EQ(slow_breakdown.communication,
                   fast_breakdown.communication);
}

TEST(Wcg, ProfileAssignmentRoundTrip) {
  util::Rng rng(47);
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::random_state(4, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const Profile z = problem.random_profile(rng);
  const Assignment a = problem.to_assignment(z);
  const Profile z2 = to_profile(problem, a);
  EXPECT_EQ(z, z2);
}

TEST(Wcg, ToProfileRejectsInfeasiblePair) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  Assignment bad;
  bad.bs_of = {1};
  bad.server_of = {0};  // bs1 does not reach server 0
  EXPECT_THROW((void)to_profile(problem, bad), std::invalid_argument);
}

TEST(Wcg, SingletonLowerBoundIsValid) {
  util::Rng rng(48);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const double bound = problem.singleton_lower_bound();
  for (int trial = 0; trial < 50; ++trial) {
    const Profile z = problem.random_profile(rng);
    EXPECT_GE(problem.total_cost(z), bound - 1e-12);
  }
}

TEST(Wcg, RejectsBadStateShapes) {
  const Instance instance = test::tiny_instance(2);
  SlotState state = test::uniform_state(2, 2);
  state.task_cycles.pop_back();
  EXPECT_THROW(WcgProblem(instance, state, instance.max_frequencies()),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
