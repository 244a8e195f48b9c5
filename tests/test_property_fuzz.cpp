// Randomized property tests and failure injection across the whole stack:
// for randomly generated instances and adversarial states, every solver must
// return feasible decisions and every derived identity must hold.
#include <gtest/gtest.h>

#include "core/bdma.h"
#include "core/bnb.h"
#include "core/cgba.h"
#include "core/dpp.h"
#include "core/latency.h"
#include "core/lemma1.h"
#include "core/mcba.h"
#include "core/ropt.h"
#include "energy/quadratic_energy.h"
#include "sim/pipeline/assemblies.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

// A random topology: 1-3 clusters, 1-3 servers each, 2-4 base stations with
// random connectivity (every BS connected to >= 1 cluster), all wide
// coverage so channel-driven feasibility is controlled by the state.
std::shared_ptr<topology::Topology> random_topology(util::Rng& rng) {
  topology::TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const std::size_t clusters = 1 + rng.index(3);
  std::vector<topology::ClusterId> cluster_ids;
  for (std::size_t m = 0; m < clusters; ++m) {
    cluster_ids.push_back(builder.add_cluster(
        "c" + std::to_string(m),
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)}));
  }
  auto model = std::make_shared<energy::QuadraticEnergy>(
      rng.uniform(1.0, 8.0), rng.uniform(0.0, 5.0), rng.uniform(5.0, 40.0));
  std::size_t servers = 0;
  for (std::size_t m = 0; m < clusters; ++m) {
    const std::size_t count = 1 + rng.index(3);
    for (std::size_t j = 0; j < count; ++j) {
      const double lo = rng.uniform(1.0, 2.5);
      builder.add_server("s" + std::to_string(servers++), cluster_ids[m],
                         rng.bernoulli(0.5) ? 64 : 128, lo,
                         lo + rng.uniform(0.5, 1.5), model);
    }
  }
  const std::size_t stations = 2 + rng.index(3);
  for (std::size_t k = 0; k < stations; ++k) {
    std::vector<topology::ClusterId> connected;
    for (auto id : cluster_ids) {
      if (rng.bernoulli(0.6)) connected.push_back(id);
    }
    if (connected.empty()) connected.push_back(rng.pick(cluster_ids));
    builder.add_base_station(
        "b" + std::to_string(k),
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)},
        topology::Band::kLow, 3000.0, rng.uniform(50e6, 100e6),
        rng.uniform(0.5e9, 1e9), 10.0, connected);
  }
  const std::size_t devices = 2 + rng.index(6);
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

// A state where each channel is randomly usable/unusable, but every device
// keeps at least one usable link (otherwise the slot is infeasible by
// construction and WcgProblem throws — tested separately).
SlotState random_sparse_state(const topology::Topology& topo,
                              util::Rng& rng) {
  SlotState state;
  state.slot = 0;
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  state.task_cycles.resize(devices);
  state.data_bits.resize(devices);
  state.channel.assign(devices, std::vector<double>(stations, 0.0));
  for (std::size_t i = 0; i < devices; ++i) {
    state.task_cycles[i] = rng.uniform(1e7, 5e8);
    state.data_bits[i] = rng.uniform(1e6, 2e7);
    bool any = false;
    for (std::size_t k = 0; k < stations; ++k) {
      if (rng.bernoulli(0.6)) {
        state.channel[i][k] = rng.uniform(15.0, 50.0);
        any = true;
      }
    }
    if (!any) {
      state.channel[i][rng.index(stations)] = rng.uniform(15.0, 50.0);
    }
  }
  state.price_per_mwh = rng.uniform(5.0, 300.0);
  return state;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, AllSolversProduceFeasibleConsistentDecisions) {
  util::Rng rng(10'000 + GetParam());
  const auto topo = random_topology(rng);
  const std::size_t devices = topo->num_devices();
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const Frequencies freq = instance.max_frequencies();
  const WcgProblem problem(instance, state, freq);

  auto check = [&](const SolveResult& result, const char* solver) {
    ASSERT_EQ(result.profile.size(), devices) << solver;
    // Feasibility: every selected option respects coverage + fronthaul.
    const Assignment assignment = problem.to_assignment(result.profile);
    for (std::size_t i = 0; i < devices; ++i) {
      EXPECT_GT(state.channel[i][assignment.bs_of[i]], 0.0) << solver;
    }
    // Consistency: claimed cost equals reduced latency of the assignment.
    EXPECT_NEAR(result.cost,
                reduced_latency(instance, state, assignment, freq),
                1e-9 * result.cost)
        << solver;
    // Lemma 1 allocation is feasible for the assignment.
    const auto alloc = optimal_allocation(instance, state, assignment);
    EXPECT_TRUE(allocation_feasible(instance, assignment, alloc)) << solver;
  };

  check(ropt(problem, rng), "ropt");
  check(cgba(problem, CgbaConfig{}, rng), "cgba");
  McbaConfig mcba_config;
  mcba_config.iterations = 500;
  check(mcba(problem, mcba_config, rng), "mcba");
  BnbConfig bnb_config;
  bnb_config.node_budget = 20'000;
  check(branch_and_bound(problem, bnb_config), "bnb");
}

TEST_P(FuzzSweep, BdmaAndDppStayFeasibleUnderAdversarialStates) {
  util::Rng rng(20'000 + GetParam());
  const auto topo = random_topology(rng);
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  DppConfig config;
  config.v = rng.uniform(1.0, 500.0);
  config.bdma.iterations = 1 + rng.index(4);
  const auto controller = sim::pipeline::make_dpp_pipeline(instance, config);
  for (int t = 0; t < 5; ++t) {
    const SlotState state = random_sparse_state(*topo, rng);
    const DppSlotResult slot = controller->step(state, rng);
    EXPECT_TRUE(instance.frequencies_feasible(slot.decision.frequencies));
    EXPECT_TRUE(allocation_feasible(instance, slot.decision.assignment,
                                    slot.decision.allocation));
    EXPECT_GE(slot.queue_after, 0.0);
    EXPECT_GT(slot.latency, 0.0);
    EXPECT_TRUE(std::isfinite(slot.latency));
    EXPECT_TRUE(std::isfinite(slot.energy_cost));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 20));

TEST(FailureInjection, DeviceWithNoUsableLinkIsReportedNotSilentlyDropped) {
  util::Rng rng(31);
  const auto topo = random_topology(rng);
  Instance instance = Instance::random(topo, rng, 1.0);
  SlotState state = random_sparse_state(*topo, rng);
  for (auto& h : state.channel[0]) h = 0.0;  // device 0 blacked out
  EXPECT_THROW(WcgProblem(instance, state, instance.max_frequencies()),
               std::invalid_argument);
}

TEST(FailureInjection, ExtremePricesKeepDecisionsFinite) {
  util::Rng rng(32);
  const Instance instance = test::tiny_instance(4, /*budget=*/1.0);
  const auto controller =
      sim::pipeline::make_dpp_pipeline(instance, DppConfig{});
  for (double price : {1e-6, 1.0, 1e4, 1e7}) {
    SlotState state = test::random_state(4, 2, rng);
    state.price_per_mwh = price;
    const auto slot = controller->step(state, rng);
    EXPECT_TRUE(std::isfinite(slot.latency));
    EXPECT_TRUE(std::isfinite(slot.energy_cost));
    EXPECT_TRUE(instance.frequencies_feasible(slot.decision.frequencies));
  }
}

TEST(FailureInjection, ExtremeTaskSizesKeepLatencyPositiveFinite) {
  util::Rng rng(33);
  const Instance instance = test::tiny_instance(3, 1.0);
  SlotState state = test::uniform_state(3, 2);
  state.task_cycles = {1.0, 1e12, 5e7};  // one-cycle task next to a monster
  state.data_bits = {1.0, 1e10, 5e6};
  const WcgProblem problem(instance, state, instance.max_frequencies());
  util::Rng solver_rng(1);
  const auto result = cgba(problem, CgbaConfig{}, solver_rng);
  EXPECT_TRUE(std::isfinite(result.cost));
  EXPECT_GT(result.cost, 0.0);
}

TEST(FailureInjection, QueueRecoversAfterPriceShock) {
  util::Rng rng(34);
  const Instance instance = test::tiny_instance(3, /*budget=*/5.0);
  DppConfig config;
  config.v = 20.0;
  const auto controller = sim::pipeline::make_dpp_pipeline(instance, config);
  // Sustained shock: 20 slots of 50x prices build a backlog.
  double backlog = 0.0;
  for (int t = 0; t < 20; ++t) {
    SlotState state = test::random_state(3, 2, rng);
    state.price_per_mwh = 2500.0;
    backlog = controller->step(state, rng).queue_after;
  }
  const double backlog_after_shock = backlog;
  EXPECT_GT(backlog_after_shock, 0.0);
  // Recovery: cheap slots drain it.
  for (int t = 0; t < 200 && backlog > 0.0; ++t) {
    SlotState state = test::random_state(3, 2, rng);
    state.price_per_mwh = 10.0;
    backlog = controller->step(state, rng).queue_after;
  }
  EXPECT_LT(backlog, backlog_after_shock);
}

}  // namespace
}  // namespace eotora::core
