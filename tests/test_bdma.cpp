#include "core/bdma.h"

#include <gtest/gtest.h>

#include "core/latency.h"
#include "core/wcg.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(Bdma, ProducesFeasibleDecision) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const BdmaResult result = bdma(instance, state, 100.0, 10.0, BdmaConfig{},
                                 rng);
  EXPECT_TRUE(instance.frequencies_feasible(result.frequencies));
  // Assignment must decode as feasible options.
  const WcgProblem problem(instance, state, result.frequencies);
  EXPECT_NO_THROW((void)to_profile(problem, result.assignment));
  EXPECT_GT(result.latency, 0.0);
}

TEST(Bdma, ReportedLatencyAndThetaAreConsistent) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const double v = 150.0;
  const double q = 40.0;
  const BdmaResult result = bdma(instance, state, v, q, BdmaConfig{}, rng);
  EXPECT_NEAR(result.latency,
              reduced_latency(instance, state, result.assignment,
                              result.frequencies),
              1e-9 * result.latency);
  EXPECT_NEAR(result.theta,
              instance.theta(result.frequencies, state.price_per_mwh), 1e-12);
  EXPECT_NEAR(result.objective, v * result.latency + q * result.theta,
              1e-6 * std::abs(result.objective));
}

TEST(Bdma, MoreIterationsNeverWorseObjective) {
  util::Rng rng(3);
  const Instance instance = test::tiny_instance(8);
  const SlotState state = test::random_state(8, 2, rng);
  BdmaConfig one;
  one.iterations = 1;
  BdmaConfig five;
  five.iterations = 5;
  // Identical rng streams so iteration 1 is shared.
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  const BdmaResult r1 = bdma(instance, state, 100.0, 50.0, one, rng_a);
  const BdmaResult r5 = bdma(instance, state, 100.0, 50.0, five, rng_b);
  EXPECT_LE(r5.objective, r1.objective + 1e-9 * std::abs(r1.objective));
}

TEST(Bdma, ZeroQueueUsesHighFrequencies) {
  util::Rng rng(4);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const BdmaResult result = bdma(instance, state, 100.0, 0.0, BdmaConfig{},
                                 rng);
  // With Q = 0 the objective ignores energy: every loaded server runs at max.
  const auto hi = instance.max_frequencies();
  std::vector<bool> loaded(instance.num_servers(), false);
  for (std::size_t n : result.assignment.server_of) loaded[n] = true;
  for (std::size_t n = 0; n < instance.num_servers(); ++n) {
    if (loaded[n]) {
      EXPECT_DOUBLE_EQ(result.frequencies[n], hi[n]);
    }
  }
}

TEST(Bdma, SolverKindsAllRun) {
  util::Rng rng(5);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  for (P2aSolverKind kind : {P2aSolverKind::kCgba, P2aSolverKind::kMcba,
                             P2aSolverKind::kRopt}) {
    BdmaConfig config;
    config.solver = kind;
    config.mcba.iterations = 500;
    const BdmaResult result = bdma(instance, state, 100.0, 20.0, config, rng);
    EXPECT_TRUE(instance.frequencies_feasible(result.frequencies));
    EXPECT_GT(result.latency, 0.0);
  }
}

TEST(Bdma, CgbaBeatsRoptOnAverage) {
  util::Rng rng(6);
  double cgba_total = 0.0;
  double ropt_total = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const Instance instance = test::tiny_instance(8);
    const SlotState state = test::random_state(8, 2, rng);
    BdmaConfig cgba_config;
    BdmaConfig ropt_config;
    ropt_config.solver = P2aSolverKind::kRopt;
    cgba_total += bdma(instance, state, 100.0, 30.0, cgba_config, rng).latency;
    ropt_total += bdma(instance, state, 100.0, 30.0, ropt_config, rng).latency;
  }
  EXPECT_LT(cgba_total, ropt_total);
}

TEST(Bdma, ObjectiveHistoryTracksRunningMinimum) {
  util::Rng rng(8);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  BdmaConfig config;
  config.iterations = 5;
  const BdmaResult result = bdma(instance, state, 100.0, 40.0, config, rng);
  ASSERT_EQ(result.objective_history.size(), 5u);
  double running_min = result.objective_history[0];
  for (double objective : result.objective_history) {
    running_min = std::min(running_min, objective);
  }
  EXPECT_NEAR(result.objective, running_min,
              1e-9 * std::abs(running_min));
}

TEST(Bdma, RejectsBadArguments) {
  util::Rng rng(7);
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2);
  BdmaConfig config;
  config.iterations = 0;
  EXPECT_THROW((void)bdma(instance, state, 100.0, 0.0, config, rng),
               std::invalid_argument);
  EXPECT_THROW((void)bdma(instance, state, -1.0, 0.0, BdmaConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)bdma(instance, state, 1.0, -1.0, BdmaConfig{}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
