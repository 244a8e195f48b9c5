// Differential harness: the auditor cross-checks the online DPP controller
// against the certified offline oracles (brute force, branch & bound) on
// fuzzed tiny instances — every decision either side produces must pass the
// full P1 constraint audit, the two oracles must agree, and the online
// solution can never beat the certified per-slot optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/bnb.h"
#include "core/brute_force.h"
#include "core/dpp.h"
#include "core/latency.h"
#include "core/lemma1.h"
#include "core/wcg.h"
#include "energy/quadratic_energy.h"
#include "sim/audit.h"
#include "sim/pipeline/assemblies.h"
#include "support/sim_oracles.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora {
namespace {

// Deliberately tinier than the incremental-fuzz generator: brute force
// enumerates every profile, so option counts must stay small (<= ~3 servers,
// <= 3 stations, 3-5 devices).
std::shared_ptr<topology::Topology> tiny_random_topology(util::Rng& rng) {
  topology::TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const std::size_t clusters = 1 + rng.index(2);
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
    const std::size_t count = 1 + rng.index(2);
    for (std::size_t j = 0; j < count; ++j) {
      const double lo = rng.uniform(1.0, 2.5);
      builder.add_server("s" + std::to_string(servers++), cluster_ids[m],
                         rng.bernoulli(0.5) ? 64 : 128, lo,
                         lo + rng.uniform(0.5, 1.5), model);
    }
  }
  const std::size_t stations = 2 + rng.index(2);
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
  const std::size_t devices = 3 + rng.index(3);
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

core::SlotState sparse_state(const topology::Topology& topo, util::Rng& rng) {
  core::SlotState state;
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

// Packages a P2-A profile at fixed frequencies as a complete slot result
// (Lemma-1 allocation, recomputed metrics, exact queue step) so the
// feasibility auditor can judge an oracle solution like any other.
core::DppSlotResult slot_from_profile(const core::Instance& instance,
                                      const core::SlotState& state,
                                      const core::WcgProblem& problem,
                                      const core::Profile& profile,
                                      const core::Frequencies& frequencies,
                                      double queue_before) {
  core::DppSlotResult result;
  result.decision.assignment = problem.to_assignment(profile);
  result.decision.frequencies = frequencies;
  result.decision.allocation =
      core::optimal_allocation(instance, state, result.decision.assignment);
  result.latency = core::latency_under_allocation(
      instance, state, result.decision.assignment, frequencies,
      result.decision.allocation);
  result.energy_cost =
      instance.energy_cost(frequencies, state.price_per_mwh);
  result.theta = result.energy_cost - instance.budget_per_slot();
  result.queue_before = queue_before;
  result.queue_after = std::max(queue_before + result.theta, 0.0);
  return result;
}

bool rel_close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({std::abs(a), std::abs(b), 1.0});
}

class Differential : public ::testing::TestWithParam<int> {};

// One fuzzed slot per seed: DPP decides online, both oracles solve the same
// P2-A instance offline, and every artifact is audited.
TEST_P(Differential, DppAndOraclesAgreeAndPassTheAudit) {
  util::Rng rng(80'000 + GetParam());
  const auto topo = tiny_random_topology(rng);
  core::Instance instance =
      core::Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const core::SlotState state = sparse_state(*topo, rng);

  // Online: a few DPP slots, audited end to end (queue ledger included).
  core::DppConfig dpp_config;
  dpp_config.v = rng.uniform(10.0, 500.0);
  const auto controller =
      sim::pipeline::make_dpp_pipeline(instance, dpp_config);
  sim::SlotAuditor dpp_auditor(instance);
  core::DppSlotResult dpp_result;
  for (std::size_t t = 0; t < 3; ++t) {
    core::SlotState slot_state = state;
    slot_state.slot = t;
    dpp_result = controller->step(slot_state, rng);
    dpp_auditor.observe(slot_state, dpp_result);
  }
  ASSERT_TRUE(dpp_auditor.report().clean()) << dpp_auditor.report().summary();

  // Offline: both certified oracles on the SAME fixed-frequency P2-A game
  // the last DPP slot implicitly solved.
  const core::WcgProblem problem(instance, state,
                                 dpp_result.decision.frequencies);
  const core::SolveResult exhaustive = core::brute_force(problem);
  const core::SolveResult bnb = core::branch_and_bound(problem);
  ASSERT_TRUE(exhaustive.optimal);
  ASSERT_TRUE(bnb.optimal);
  // Two independent searches must certify the same optimum.
  EXPECT_TRUE(rel_close(exhaustive.cost, bnb.cost, 1e-9))
      << "brute=" << exhaustive.cost << " bnb=" << bnb.cost;
  EXPECT_TRUE(
      rel_close(problem.total_cost(bnb.profile), exhaustive.cost, 1e-9));

  // The optimal profile, packaged as a slot decision, is audit-clean.
  const core::DppSlotResult optimal_slot =
      slot_from_profile(instance, state, problem, exhaustive.profile,
                        dpp_result.decision.frequencies, 0.0);
  const sim::AuditReport optimal_report =
      sim::audit_slot(instance, state, optimal_slot);
  EXPECT_TRUE(optimal_report.clean()) << optimal_report.summary();

  // Online never beats the certified optimum at the same frequencies.
  EXPECT_GE(dpp_result.latency, exhaustive.cost - 1e-9 * exhaustive.cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 25));

}  // namespace
}  // namespace eotora
