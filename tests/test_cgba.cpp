#include "core/cgba.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(Cgba, ConvergesOnTinyInstance) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::random_state(4, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const SolveResult result = cgba(problem, CgbaConfig{}, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.cost, 0.0);
  EXPECT_EQ(result.profile.size(), 4u);
}

TEST(Cgba, LambdaZeroReachesNashEquilibrium) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const SolveResult result = cgba(problem, CgbaConfig{}, rng);
  ASSERT_TRUE(result.converged);
  // No player can unilaterally improve (beyond FP noise).
  LoadTracker tracker(problem, result.profile);
  for (std::size_t i = 0; i < problem.num_devices(); ++i) {
    const double current = tracker.player_cost(i);
    const auto br = tracker.best_response(i);
    EXPECT_GE(br.cost, current * (1.0 - 1e-9));
  }
}

TEST(Cgba, LambdaEquilibriumHolds) {
  util::Rng rng(3);
  const double lambda = 0.1;
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  CgbaConfig config;
  config.lambda = lambda;
  const SolveResult result = cgba(problem, config, rng);
  ASSERT_TRUE(result.converged);
  LoadTracker tracker(problem, result.profile);
  for (std::size_t i = 0; i < problem.num_devices(); ++i) {
    const double current = tracker.player_cost(i);
    const auto br = tracker.best_response(i);
    // Termination means (1 - λ) T_i <= min T_i for everyone.
    EXPECT_GE(br.cost, (1.0 - lambda) * current * (1.0 - 1e-9));
  }
}

TEST(Cgba, PotentialStrictlyDecreasesAlongTheRun) {
  // Re-run the dynamics manually and check each accepted move lowers Φ.
  util::Rng rng(4);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  LoadTracker tracker(problem, problem.random_profile(rng));
  double phi = potential(problem, tracker.profile());
  for (int move = 0; move < 10000; ++move) {
    std::size_t best_device = problem.num_devices();
    std::size_t best_option = 0;
    double best_gap = 0.0;
    for (std::size_t i = 0; i < problem.num_devices(); ++i) {
      const double current = tracker.player_cost(i);
      const auto br = tracker.best_response(i);
      if (br.cost < current - 1e-12 * current &&
          current - br.cost > best_gap) {
        best_gap = current - br.cost;
        best_device = i;
        best_option = br.option_index;
      }
    }
    if (best_device == problem.num_devices()) break;
    tracker.move(best_device, best_option);
    const double new_phi = potential(problem, tracker.profile());
    EXPECT_LT(new_phi, phi);
    phi = new_phi;
  }
}

// Theorem 2 check on brute-forceable instances: CGBA(λ) cost is within
// 2.62 / (1 - 8λ) of the optimum.
class CgbaApproximation : public ::testing::TestWithParam<int> {};

TEST_P(CgbaApproximation, WithinTheoremBoundOfOptimum) {
  util::Rng rng(900 + GetParam());
  const std::size_t devices = 3 + rng.index(3);  // <= 5 devices, 4^5 profiles
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const SolveResult optimal = brute_force(problem);
  for (double lambda : {0.0, 0.05, 0.1}) {
    CgbaConfig config;
    config.lambda = lambda;
    util::Rng solver_rng(1234 + GetParam());
    const SolveResult result = cgba(problem, config, solver_rng);
    ASSERT_TRUE(result.converged);
    const double bound = 2.62 / (1.0 - 8.0 * lambda);
    EXPECT_LE(result.cost, bound * optimal.cost * (1.0 + 1e-9))
        << "lambda=" << lambda;
    EXPECT_GE(result.cost, optimal.cost * (1.0 - 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CgbaApproximation, ::testing::Range(0, 12));

TEST(Cgba, LargerLambdaNeverTakesMoreMoves) {
  util::Rng rng(5);
  const Instance instance = test::tiny_instance(10);
  const SlotState state = test::random_state(10, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  // Same start for both runs.
  const Profile start = problem.random_profile(rng);
  CgbaConfig strict;
  strict.lambda = 0.0;
  CgbaConfig loose;
  loose.lambda = 0.1;
  const auto strict_result = cgba_from(problem, strict, start);
  const auto loose_result = cgba_from(problem, loose, start);
  EXPECT_LE(loose_result.iterations, strict_result.iterations);
  // Looser termination can not produce a better equilibrium cost than the
  // full best-response run started at the same profile... it CAN by luck,
  // so only check both are positive and converged.
  EXPECT_TRUE(strict_result.converged);
  EXPECT_TRUE(loose_result.converged);
}

TEST(Cgba, RejectsLambdaOutOfRange) {
  util::Rng rng(6);
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  CgbaConfig config;
  config.lambda = 0.2;
  EXPECT_THROW((void)cgba(problem, config, rng), std::invalid_argument);
  config.lambda = -0.01;
  EXPECT_THROW((void)cgba(problem, config, rng), std::invalid_argument);
}

TEST(Cgba, WarmStartFromEquilibriumMakesNoMoves) {
  util::Rng rng(7);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const SolveResult first = cgba(problem, CgbaConfig{}, rng);
  ASSERT_TRUE(first.converged);
  const SolveResult second = cgba_from(problem, CgbaConfig{}, first.profile);
  EXPECT_EQ(second.iterations, 0u);
  EXPECT_DOUBLE_EQ(second.cost, first.cost);
}

}  // namespace
}  // namespace eotora::core

namespace eotora::core {
namespace {

TEST(CgbaRoundRobin, ReachesNashEquilibriumToo) {
  util::Rng rng(21);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  CgbaConfig config;
  config.selection = CgbaSelection::kRoundRobin;
  const SolveResult result = cgba(problem, config, rng);
  ASSERT_TRUE(result.converged);
  LoadTracker tracker(problem, result.profile);
  for (std::size_t i = 0; i < problem.num_devices(); ++i) {
    EXPECT_GE(tracker.best_response(i).cost,
              tracker.player_cost(i) * (1.0 - 1e-9));
  }
}

TEST(CgbaRoundRobin, MatchesMaxGapQualityOnAverage) {
  util::Rng rng(22);
  double max_gap_total = 0.0;
  double round_robin_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Instance instance = test::tiny_instance(8);
    const SlotState state = test::random_state(8, 2, rng);
    const WcgProblem problem(instance, state, instance.max_frequencies());
    const Profile start = problem.random_profile(rng);
    CgbaConfig max_gap;
    CgbaConfig round_robin;
    round_robin.selection = CgbaSelection::kRoundRobin;
    max_gap_total += cgba_from(problem, max_gap, start).cost;
    round_robin_total += cgba_from(problem, round_robin, start).cost;
  }
  // Both land on (possibly different) equilibria of similar quality.
  EXPECT_NEAR(round_robin_total, max_gap_total, 0.15 * max_gap_total);
}

}  // namespace
}  // namespace eotora::core
