#include "core/lemma1.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/latency.h"
#include "support/core_oracles.h"
#include "support/projgrad.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

Assignment all_to(std::size_t bs, std::size_t server, std::size_t devices) {
  Assignment a;
  a.bs_of.assign(devices, bs);
  a.server_of.assign(devices, server);
  return a;
}

TEST(Lemma1, SharesFollowClosedForm) {
  const Instance instance = test::tiny_instance(3);
  SlotState state = test::uniform_state(3, 2);
  state.task_cycles = {1e8, 4e8, 9e8};  // sqrt ratio 1:2:3
  const Assignment assignment = all_to(0, 0, 3);
  const auto alloc = optimal_allocation(instance, state, assignment);
  EXPECT_NEAR(alloc.phi[0], 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(alloc.phi[1], 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(alloc.phi[2], 3.0 / 6.0, 1e-12);
}

TEST(Lemma1, SharesSumToOnePerResource) {
  const Instance instance = test::tiny_instance(4);
  util::Rng rng(31);
  const SlotState state = test::random_state(4, 2, rng);
  // Split: devices 0,1 -> (bs0, s0); devices 2,3 -> (bs1, s2).
  Assignment assignment;
  assignment.bs_of = {0, 0, 1, 1};
  assignment.server_of = {0, 0, 2, 2};
  const auto alloc = optimal_allocation(instance, state, assignment);
  EXPECT_NEAR(alloc.phi[0] + alloc.phi[1], 1.0, 1e-12);
  EXPECT_NEAR(alloc.phi[2] + alloc.phi[3], 1.0, 1e-12);
  EXPECT_NEAR(alloc.psi_access[0] + alloc.psi_access[1], 1.0, 1e-12);
  EXPECT_NEAR(alloc.psi_access[2] + alloc.psi_access[3], 1.0, 1e-12);
  EXPECT_NEAR(alloc.psi_fronthaul[0] + alloc.psi_fronthaul[1], 1.0, 1e-12);
  EXPECT_TRUE(allocation_feasible(instance, assignment, alloc));
}

TEST(Lemma1, SoloDeviceGetsFullShare) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  const auto alloc =
      optimal_allocation(instance, state, all_to(0, 1, 1));
  EXPECT_DOUBLE_EQ(alloc.phi[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc.psi_access[0], 1.0);
  EXPECT_DOUBLE_EQ(alloc.psi_fronthaul[0], 1.0);
}

TEST(Lemma1, RejectsUnreachableServer) {
  const Instance instance = test::tiny_instance(1);
  const SlotState state = test::uniform_state(1, 2);
  // bs-1 only reaches room-1 (server 2); server 0 is infeasible from bs-1.
  EXPECT_THROW((void)optimal_allocation(instance, state, all_to(1, 0, 1)),
               std::invalid_argument);
}

TEST(Lemma1, RejectsUnusableChannel) {
  const Instance instance = test::tiny_instance(1);
  SlotState state = test::uniform_state(1, 2);
  state.channel[0][0] = 0.0;
  EXPECT_THROW((void)optimal_allocation(instance, state, all_to(0, 0, 1)),
               std::invalid_argument);
}

// The optimality heart of Lemma 1: the closed form must (weakly) beat a
// numeric projected-gradient solver and every random feasible allocation.
class Lemma1Optimality : public ::testing::TestWithParam<int> {};

TEST_P(Lemma1Optimality, BeatsNumericOracleAndRandomAllocations) {
  util::Rng rng(1000 + GetParam());
  const std::size_t devices = 3 + rng.index(3);
  const Instance instance = test::tiny_instance(devices);
  const SlotState state = test::random_state(devices, 2, rng);

  // Random feasible assignment: bs0 reaches all three servers.
  Assignment assignment;
  for (std::size_t i = 0; i < devices; ++i) {
    assignment.bs_of.push_back(0);
    assignment.server_of.push_back(rng.index(3));
  }
  const Frequencies freq = instance.max_frequencies();
  const auto closed_form = optimal_allocation(instance, state, assignment);
  const double best = latency_under_allocation(instance, state, assignment,
                                               freq, closed_form);

  // Numeric oracle on the compute simplex of server 0 (if shared): the
  // projected-gradient solution can not do better than the closed form.
  // Here we check the full objective against randomized allocations.
  for (int trial = 0; trial < 30; ++trial) {
    ResourceAllocation random_alloc = closed_form;
    // Random positive shares renormalized per resource.
    std::vector<double> phi_sum(instance.num_servers(), 0.0);
    std::vector<double> a_sum(instance.num_base_stations(), 0.0);
    std::vector<double> f_sum(instance.num_base_stations(), 0.0);
    for (std::size_t i = 0; i < devices; ++i) {
      random_alloc.phi[i] = rng.uniform(0.05, 1.0);
      random_alloc.psi_access[i] = rng.uniform(0.05, 1.0);
      random_alloc.psi_fronthaul[i] = rng.uniform(0.05, 1.0);
      phi_sum[assignment.server_of[i]] += random_alloc.phi[i];
      a_sum[assignment.bs_of[i]] += random_alloc.psi_access[i];
      f_sum[assignment.bs_of[i]] += random_alloc.psi_fronthaul[i];
    }
    for (std::size_t i = 0; i < devices; ++i) {
      random_alloc.phi[i] /= phi_sum[assignment.server_of[i]];
      random_alloc.psi_access[i] /= a_sum[assignment.bs_of[i]];
      random_alloc.psi_fronthaul[i] /= f_sum[assignment.bs_of[i]];
    }
    const double value = latency_under_allocation(instance, state, assignment,
                                                  freq, random_alloc);
    EXPECT_GE(value, best - 1e-9 * best);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Optimality, ::testing::Range(0, 10));

// Cross-check the per-resource share against the projected-gradient oracle:
// min Σ c_i/φ_i over the simplex, with c_i = f_i/(capacity·σ).
TEST(Lemma1, AgreesWithProjectedGradientOracle) {
  util::Rng rng(77);
  const std::size_t devices = 4;
  const Instance instance = test::tiny_instance(devices);
  SlotState state = test::uniform_state(devices, 2);
  for (auto& f : state.task_cycles) f = rng.uniform(5e7, 2e8);
  const Assignment assignment = [&] {
    Assignment a;
    a.bs_of.assign(devices, 0);
    a.server_of.assign(devices, 1);
    return a;
  }();
  const auto alloc = optimal_allocation(instance, state, assignment);
  std::vector<double> costs(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    costs[i] = state.task_cycles[i];  // common factors cancel in the argmin
  }
  const auto oracle = math::minimize_inverse_over_simplex(costs);
  for (std::size_t i = 0; i < devices; ++i) {
    EXPECT_NEAR(alloc.phi[i], oracle.x[i], 5e-3);
  }
}

}  // namespace
}  // namespace eotora::core
