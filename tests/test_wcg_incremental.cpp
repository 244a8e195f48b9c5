// Property/fuzz coverage for the incremental WCG hot path: the flat option
// arena, LoadTracker's O(Δ) evaluators, and BestResponseEngine's move-scoped
// invalidation must be indistinguishable from from-scratch recomputation —
// also when one engine is bound once and reset across several solves at
// different frequencies, as BDMA runs it.
//
// Two tiers of strictness:
//   - From-scratch recomputation (fresh WcgProblem evaluation of the same
//     profile) is compared to 1e-12 RELATIVE — incremental +=/-= updates
//     legitimately differ from a clean summation at ulp level.
//   - The engine vs the tracker, the oracle solver paths vs the fast paths,
//     and rebuild() vs fresh construction are compared EXACTLY (EXPECT_EQ on
//     doubles): those pairs run the same arithmetic on the same bits, and
//     the paper-figure reproducibility guarantee rests on it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cgba.h"
#include "core/counters.h"
#include "core/dpp.h"
#include "core/kernels/kernels.h"
#include "core/latency.h"
#include "core/lemma1.h"
#include "core/mcba.h"
#include "core/wcg.h"
#include "energy/quadratic_energy.h"
#include "sim/audit.h"
#include "sim/scenario.h"
#include "support/core_oracles.h"
#include "support/sim_oracles.h"
#include "test_helpers.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

constexpr double kRelTol = 1e-12;

// Random topology with occasionally-overlapping coverage: 1-3 clusters, 1-3
// servers each, 2-4 base stations. Mirrors the generator in
// test_property_fuzz.cpp; kept local so this suite can evolve its shapes
// (e.g. denser device counts) independently.
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
  const std::size_t devices = 3 + rng.index(8);
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

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

void expect_rel_near(double actual, double expected, const char* what) {
  const double scale = std::max({std::abs(actual), std::abs(expected), 1.0});
  EXPECT_NEAR(actual, expected, kRelTol * scale) << what;
}

class IncrementalFuzz : public ::testing::TestWithParam<int> {};

// After an arbitrary interleaving of engine moves (random moves, not just
// improving ones), every piece of incremental state must agree with a
// from-scratch evaluation, and the engine must agree with the tracker
// EXACTLY.
TEST_P(IncrementalFuzz, EngineMatchesTrackerAndFromScratchAfterRandomMoves) {
  util::Rng rng(40'000 + GetParam());
  const auto topo = random_topology(rng);
  const std::size_t devices = topo->num_devices();
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  LoadTracker tracker(problem, problem.random_profile(rng));
  BestResponseEngine engine(tracker);

  for (int step = 0; step < 60; ++step) {
    const std::size_t device = rng.index(devices);
    if (rng.bernoulli(0.5)) {
      // Random (possibly worsening, possibly no-op) move.
      engine.move(device, rng.index(problem.options(device).size()));
    } else {
      // Move to the cached best response, CGBA-style.
      engine.move(device, engine.best_response(device).option_index);
    }

    // Engine == tracker, bit for bit, for EVERY player after EVERY move.
    for (std::size_t i = 0; i < devices; ++i) {
      const LoadTracker::BestResponse fresh = tracker.best_response(i);
      const LoadTracker::BestResponse& cached = engine.best_response(i);
      ASSERT_EQ(cached.option_index, fresh.option_index)
          << "device " << i << " step " << step;
      ASSERT_EQ(cached.cost, fresh.cost) << "device " << i << " step " << step;
      ASSERT_EQ(cached.current_cost, fresh.current_cost)
          << "device " << i << " step " << step;
    }
  }

  // Incremental loads vs a from-scratch accumulation.
  const Profile& z = tracker.profile();
  std::vector<double> loads(problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < devices; ++i) {
    const Option& opt = problem.options(i)[z[i]];
    loads[opt.r_compute] += opt.p_compute;
    loads[opt.r_access] += opt.p_access;
    loads[opt.r_fronthaul] += opt.p_fronthaul;
  }
  // Incremental error is relative to the magnitudes that flowed through a
  // resource, not to its final value — a resource that empties out keeps an
  // absolute residue of order ulp(peak load), so compare against the
  // problem-wide scale.
  double loads_scale = 1.0;
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    loads_scale = std::max(loads_scale, loads[r]);
  }
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    EXPECT_NEAR(tracker.loads()[r], loads[r], kRelTol * loads_scale)
        << "loads " << r;
  }

  // Tracked costs vs from-scratch problem evaluation of the same profile.
  expect_rel_near(tracker.total_cost(), problem.total_cost(z), "total_cost");
  for (std::size_t i = 0; i < devices; ++i) {
    expect_rel_near(tracker.player_cost(i), player_cost(problem, z, i),
                    "player_cost");
  }
}

// delta_cost and total_cost_if_moved against the ground truth of actually
// performing the move on a copy of the tracker.
TEST_P(IncrementalFuzz, DeltaAndIfMovedEvaluatorsMatchAppliedMoves) {
  util::Rng rng(50'000 + GetParam());
  const auto topo = random_topology(rng);
  const std::size_t devices = topo->num_devices();
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const WcgProblem problem(instance, state, instance.min_frequencies());

  LoadTracker tracker(problem, problem.random_profile(rng));
  for (int step = 0; step < 40; ++step) {
    const std::size_t device = rng.index(devices);
    const std::size_t option = rng.index(problem.options(device).size());

    // total_cost_if_moved reproduces { move(); total_cost(); } EXACTLY.
    LoadTracker applied = tracker;
    applied.move(device, option);
    ASSERT_EQ(tracker.total_cost_if_moved(device, option),
              applied.total_cost())
        << "step " << step;

    // delta_cost equals the realized social-cost change (different
    // summation order, so relative tolerance).
    const double delta = tracker.delta_cost(device, option);
    expect_rel_near(tracker.total_cost() + delta, applied.total_cost(),
                    "delta_cost");

    // cost_if_moved equals the mover's cost after the move. Not exact: on a
    // coincident resource it evaluates (L - p) + p while move() leaves L
    // untouched, an ulp-level difference.
    expect_rel_near(tracker.cost_if_moved(device, option),
                    applied.player_cost(device), "cost_if_moved");

    // best_response carries the current cost (satellite: no duplicate
    // player_cost() evaluation in CGBA).
    const LoadTracker::BestResponse br = tracker.best_response(device);
    ASSERT_EQ(br.current_cost, tracker.player_cost(device));
    ASSERT_LE(br.cost, br.current_cost);

    tracker.move(device, option);  // random walk
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz, ::testing::Range(0, 25));

class OracleEquivalence : public ::testing::TestWithParam<int> {};

// The cached-engine CGBA must be indistinguishable from the naive full-scan
// oracle: identical move counts, identical final profile, identical cost
// bits — for both selection rules, from the same warm start.
TEST_P(OracleEquivalence, CgbaCachedEqualsNaiveBothSelectionModes) {
  util::Rng rng(60'000 + GetParam());
  const auto topo = random_topology(rng);
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());
  const Profile start = problem.random_profile(rng);

  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig fast;
    fast.selection = selection;
    fast.lambda = rng.bernoulli(0.5) ? 0.0 : 0.05;
    CgbaConfig naive = fast;
    naive.naive_scan = true;

    const SolveResult a = cgba_from(problem, fast, start);
    const SolveResult b = cgba_from(problem, naive, start);
    ASSERT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.converged, b.converged);
    ASSERT_EQ(a.profile, b.profile);
    ASSERT_EQ(a.cost, b.cost);  // exact: same moves through the same tracker
  }
}

// MCBA's O(1) delta path vs the full-sweep oracle: same rng stream, same
// accept decisions, same visited profiles, same cost bits.
TEST_P(OracleEquivalence, McbaFastEqualsNaive) {
  util::Rng rng(70'000 + GetParam());
  const auto topo = random_topology(rng);
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  McbaConfig fast;
  fast.iterations = 2000;
  McbaConfig naive = fast;
  naive.naive_scan = true;

  const unsigned seed = 90'000 + GetParam();
  util::Rng rng_fast(seed);
  util::Rng rng_naive(seed);
  const SolveResult a = mcba(problem, fast, rng_fast);
  const SolveResult b = mcba(problem, naive, rng_naive);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.profile, b.profile);
  ASSERT_EQ(a.cost, b.cost);
}

// Every equilibrium CGBA/MCBA reach on a fuzzed instance, packaged as a
// full slot decision (Lemma-1 allocation + recomputed metrics), must pass
// the P1 feasibility audit with zero violations — the fast path cannot buy
// speed with infeasible profiles.
TEST_P(OracleEquivalence, SolverProfilesPassTheFeasibilityAudit) {
  util::Rng rng(100'000 + GetParam());
  const auto topo = random_topology(rng);
  Instance instance = Instance::random(topo, rng, rng.uniform(0.1, 5.0));
  const SlotState state = random_sparse_state(*topo, rng);
  const Frequencies freq = rng.bernoulli(0.5) ? instance.max_frequencies()
                                              : instance.min_frequencies();
  const WcgProblem problem(instance, state, freq);

  const SolveResult cgba_result = cgba(problem, {}, rng);
  McbaConfig mcba_config;
  mcba_config.iterations = 500;
  const SolveResult mcba_result = mcba(problem, mcba_config, rng);

  for (const SolveResult* solved : {&cgba_result, &mcba_result}) {
    DppSlotResult slot;
    slot.decision.assignment = problem.to_assignment(solved->profile);
    slot.decision.frequencies = freq;
    slot.decision.allocation =
        optimal_allocation(instance, state, slot.decision.assignment);
    slot.latency = latency_under_allocation(instance, state,
                                            slot.decision.assignment, freq,
                                            slot.decision.allocation);
    slot.energy_cost = instance.energy_cost(freq, state.price_per_mwh);
    slot.theta = slot.energy_cost - instance.budget_per_slot();
    slot.queue_after = std::max(slot.theta, 0.0);
    const sim::AuditReport report = sim::audit_slot(instance, state, slot);
    ASSERT_TRUE(report.clean()) << report.summary();
    // The WCG social cost IS the reduced latency of the profile.
    const double scale = std::max({slot.latency, solved->cost, 1.0});
    ASSERT_NEAR(problem.total_cost(solved->profile), slot.latency,
                1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEquivalence, ::testing::Range(0, 25));

// rebuild() on a dirty problem must be indistinguishable from a freshly
// constructed one — same options, weights, and cost bits.
TEST(WcgRebuild, RebuildEqualsFreshConstruction) {
  util::Rng rng(99);
  const Instance instance = test::tiny_instance(5);
  const SlotState state1 = test::random_state(5, 2, rng);
  const SlotState state2 = test::random_state(5, 2, rng);

  WcgProblem reused(instance, state1, instance.min_frequencies());
  reused.rebuild(instance, state2, instance.max_frequencies());
  const WcgProblem fresh(instance, state2, instance.max_frequencies());

  ASSERT_EQ(reused.num_devices(), fresh.num_devices());
  ASSERT_EQ(reused.num_resources(), fresh.num_resources());
  ASSERT_EQ(reused.num_options(), fresh.num_options());
  for (std::size_t r = 0; r < fresh.num_resources(); ++r) {
    EXPECT_EQ(reused.weight(r), fresh.weight(r));
  }
  for (std::size_t i = 0; i < fresh.num_devices(); ++i) {
    const auto oa = reused.options(i);
    const auto ob = fresh.options(i);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t o = 0; o < oa.size(); ++o) {
      EXPECT_EQ(oa[o].bs, ob[o].bs);
      EXPECT_EQ(oa[o].server, ob[o].server);
      EXPECT_EQ(oa[o].p_compute, ob[o].p_compute);
      EXPECT_EQ(oa[o].p_access, ob[o].p_access);
      EXPECT_EQ(oa[o].p_fronthaul, ob[o].p_fronthaul);
    }
  }
  const Profile z = fresh.random_profile(rng);
  EXPECT_EQ(reused.total_cost(z), fresh.total_cost(z));
  EXPECT_EQ(potential(reused, z), potential(fresh, z));
}

// rebuild() survives shrinking and growing shapes (a smaller slot after a
// bigger one must not leave stale arena tails behind).
TEST(WcgRebuild, RebuildAcrossDifferentShapes) {
  util::Rng rng(7);
  WcgProblem reused;
  for (const std::size_t devices : {6UL, 2UL, 9UL, 3UL}) {
    const Instance instance = test::tiny_instance(devices);
    const SlotState state = test::random_state(devices, 2, rng);
    reused.rebuild(instance, state, instance.max_frequencies());
    const WcgProblem fresh(instance, state, instance.max_frequencies());
    ASSERT_EQ(reused.num_devices(), fresh.num_devices());
    ASSERT_EQ(reused.num_options(), fresh.num_options());
    util::Rng profile_rng(11);
    const Profile z = fresh.random_profile(profile_rng);
    EXPECT_EQ(reused.total_cost(z), fresh.total_cost(z));
  }
}

TEST(WcgRebuild, RebuildStillRejectsInfeasibleDevices) {
  const Instance instance = test::tiny_instance(3);
  SlotState state = test::uniform_state(3, 2);
  WcgProblem problem(instance, state, instance.max_frequencies());
  for (auto& h : state.channel[1]) h = 0.0;  // device 1 blacked out
  EXPECT_THROW(problem.rebuild(instance, state, instance.max_frequencies()),
               std::invalid_argument);
}

// Options whose p_compute is not bitwise sqrt(f_i / σ_{i,n}) of `state`.
std::size_t p_compute_mismatches(const WcgProblem& problem,
                                 const Instance& instance,
                                 const SlotState& state) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < problem.num_devices(); ++i) {
    for (const Option& opt : problem.options(i)) {
      const double expected =
          std::sqrt(state.task_cycles[i] / instance.suitability(i, opt.server));
      if (std::bit_cast<std::uint64_t>(opt.p_compute) !=
          std::bit_cast<std::uint64_t>(expected)) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// Rebuilds one problem over `states` in order on every kernel backend the
// CPU supports, checking every option's p_compute against the scalar chain
// after each rebuild: stale per-device reach bookkeeping from the previous
// slot, or a backend whose lanes round differently, shows up here.
void expect_p_compute_oracle(const Instance& instance,
                             const std::vector<SlotState>& states,
                             const std::string& where) {
  struct RestoreBackend {
    std::string name = kernels::backend_name();
    ~RestoreBackend() { kernels::set_backend(name); }
  } restore;
  for (const kernels::Backend* backend : kernels::available_backends()) {
    kernels::set_backend(backend->name);
    WcgProblem problem;
    for (std::size_t t = 0; t < states.size(); ++t) {
      problem.rebuild(instance, states[t], instance.max_frequencies());
      EXPECT_EQ(p_compute_mismatches(problem, instance, states[t]), 0u)
          << where << ", backend " << backend->name << ", slot " << t;
    }
  }
}

TEST(WcgRebuild, PComputeIsTheScalarChainAcrossRebuilds) {
  {
    sim::ScenarioConfig config;
    config.devices = 20;
    sim::Scenario scenario(config);
    std::vector<SlotState> states;
    for (int t = 0; t < 4; ++t) states.push_back(scenario.next_state());
    expect_p_compute_oracle(scenario.instance(), states, "paper scenario");
  }
  {
    sim::ScenarioConfig config;
    config.metro_districts = 4;
    config.devices = 32;
    config.servers_per_cluster = 2;
    sim::Scenario scenario(config);
    std::vector<SlotState> states;
    for (int t = 0; t < 4; ++t) states.push_back(scenario.next_state());
    expect_p_compute_oracle(scenario.instance(), states, "metro scenario");
  }
  for (int seed = 0; seed < 25; ++seed) {
    // Same worlds as the ShardedFuzz suite; each slot redraws which of its
    // group's stations a device reaches.
    util::Rng rng(110'000 + seed);
    const test::GroupedWorld world = test::random_grouped_world(rng);
    const Instance instance =
        Instance::random(world.topology, rng, rng.uniform(0.1, 5.0));
    std::vector<SlotState> states;
    for (int t = 0; t < 3; ++t) {
      states.push_back(test::grouped_state(world, rng));
    }
    expect_p_compute_oracle(instance, states,
                            "grouped world " + std::to_string(seed));
  }
}

// The scratch-buffer overload returns the same bits as the allocating one.
TEST(WcgScratch, ScratchOverloadMatchesAllocatingOverload) {
  util::Rng rng(13);
  const Instance instance = test::tiny_instance(4);
  const SlotState state = test::random_state(4, 2, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  std::vector<double> scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const Profile z = problem.random_profile(rng);
    EXPECT_EQ(problem.total_cost(z, scratch), problem.total_cost(z));
  }
}

// Every device's engine best response against the tracker's, bit for bit.
void expect_engine_matches_tracker(BestResponseEngine& engine,
                                   const LoadTracker& tracker,
                                   std::size_t devices,
                                   const std::string& where) {
  for (std::size_t i = 0; i < devices; ++i) {
    const LoadTracker::BestResponse fresh = tracker.best_response(i);
    const LoadTracker::BestResponse& cached = engine.best_response(i);
    ASSERT_EQ(cached.option_index, fresh.option_index)
        << where << ", device " << i;
    ASSERT_EQ(cached.cost, fresh.cost) << where << ", device " << i;
    ASSERT_EQ(cached.current_cost, fresh.current_cost)
        << where << ", device " << i;
  }
}

// A frequency vector drawn uniformly inside every server's [F^L, F^U].
Frequencies random_frequencies(const Instance& instance, util::Rng& rng) {
  Frequencies omega = instance.min_frequencies();
  const Frequencies upper = instance.max_frequencies();
  for (std::size_t n = 0; n < omega.size(); ++n) {
    omega[n] = rng.uniform(omega[n], upper[n]);
  }
  return omega;
}

// One engine driven the way a BDMA slot drives it: bound once, then, at
// each of several Ω installed with set_frequencies, reset on a fresh
// tracker and walked along a random trajectory of random and best-response
// moves. After every move, every device's engine best response must equal
// the tracker's bit for bit. Then CGBA on one kept engine, in both
// selection modes, must land where the naive oracle lands at every Ω, and
// bind only at its first solve.
void expect_engine_across_solves(WcgProblem& problem,
                                 const Instance& instance, util::Rng& rng) {
  const std::size_t devices = problem.num_devices();
  BestResponseEngine engine;
  engine.bind(problem);
  Profile z = problem.random_profile(rng);
  for (int round = 0; round < 4; ++round) {
    const std::string where = "round " + std::to_string(round);
    if (round > 0) {
      problem.set_frequencies(instance, random_frequencies(instance, rng));
    }
    LoadTracker tracker(problem, z);
    engine.reset(tracker);
    ASSERT_TRUE(engine.bound_to(problem));
    expect_engine_matches_tracker(engine, tracker, devices, where + " reset");
    for (int step = 0; step < 30; ++step) {
      const std::size_t device = rng.index(devices);
      if (rng.bernoulli(0.5)) {
        engine.move(device, rng.index(problem.options(device).size()));
      } else {
        engine.move(device, engine.best_response(device).option_index);
      }
      expect_engine_matches_tracker(engine, tracker, devices,
                                    where + " step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
    }
    z = tracker.profile();
  }

  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig fast;
    fast.selection = selection;
    CgbaConfig naive = fast;
    naive.naive_scan = true;
    BestResponseEngine kept;
    counters::SolverCounters work;
    const counters::Scope scope(work);
    Profile start = problem.random_profile(rng);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(round);
      if (round > 0) {
        problem.set_frequencies(instance, random_frequencies(instance, rng));
      }
      const SolveResult a = cgba_from(problem, fast, start, kept);
      const SolveResult b = cgba_from(problem, naive, start);
      ASSERT_EQ(a.iterations, b.iterations);
      ASSERT_EQ(a.converged, b.converged);
      ASSERT_EQ(a.profile, b.profile);
      ASSERT_EQ(a.cost, b.cost);
      start = a.profile;
    }
    EXPECT_EQ(work.engine_rebuilds, 1u);
  }
}

TEST(EngineAcrossSolves, PaperWorldTracksTheTrackerAtEveryFrequency) {
  sim::ScenarioConfig config;
  config.devices = 40;
  sim::Scenario scenario(config);
  const SlotState state = scenario.next_state();
  util::Rng rng(130'000);
  WcgProblem problem(scenario.instance(), state,
                     scenario.instance().min_frequencies());
  expect_engine_across_solves(problem, scenario.instance(), rng);
}

class EngineAcrossSolvesFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineAcrossSolvesFuzz, GroupedWorldTracksTheTrackerAtEveryFrequency) {
  util::Rng rng(140'000 + GetParam());
  const test::GroupedWorld world = test::random_grouped_world(rng);
  const Instance instance =
      Instance::random(world.topology, rng, rng.uniform(0.1, 5.0));
  const SlotState state = test::grouped_state(world, rng);
  WcgProblem problem(instance, state, instance.min_frequencies());
  expect_engine_across_solves(problem, instance, rng);
}

// An engine kept across rebuilds — new shapes, new coverage — rebinds once
// per build (counted) and returns what a fresh engine returns, bit for bit;
// a second solve on the same build only resets it.
TEST_P(EngineAcrossSolvesFuzz, RebuildRebindsOnceAndMatchesAFreshEngine) {
  util::Rng rng(150'000 + GetParam());
  const test::GroupedWorld world = test::random_grouped_world(rng);
  const Instance instance =
      Instance::random(world.topology, rng, rng.uniform(0.1, 5.0));
  WcgProblem problem;
  BestResponseEngine kept;
  for (int slot = 0; slot < 3; ++slot) {
    SCOPED_TRACE(slot);
    problem.rebuild(instance, test::grouped_state(world, rng),
                    random_frequencies(instance, rng));
    EXPECT_FALSE(kept.bound_to(problem));
    const Profile start = problem.random_profile(rng);
    counters::SolverCounters work;
    const counters::Scope scope(work);
    const SolveResult reused = cgba_from(problem, {}, start, kept);
    EXPECT_EQ(work.engine_rebuilds, 1u);
    EXPECT_TRUE(kept.bound_to(problem));
    const SolveResult fresh = cgba_from(problem, {}, start);
    EXPECT_EQ(work.engine_rebuilds, 2u);
    ASSERT_EQ(reused.iterations, fresh.iterations);
    ASSERT_EQ(reused.converged, fresh.converged);
    ASSERT_EQ(reused.profile, fresh.profile);
    ASSERT_EQ(reused.cost, fresh.cost);
    (void)cgba_from(problem, {}, start, kept);
    EXPECT_EQ(work.engine_rebuilds, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAcrossSolvesFuzz,
                         ::testing::Range(0, 25));

// reset() refuses a problem rebuilt since the engine's bind, a tracker over
// another problem, and an engine never bound; bind() refuses a problem no
// build succeeded on.
TEST(EngineAcrossBuilds, ResetRefusesAStaleOrForeignProblem) {
  util::Rng rng(160'000);
  const Instance instance = test::tiny_instance(4);
  WcgProblem problem(instance, test::random_state(4, 2, rng),
                     instance.max_frequencies());
  BestResponseEngine engine;
  {
    LoadTracker tracker(problem, problem.random_profile(rng));
    EXPECT_THROW(engine.reset(tracker), std::invalid_argument);
  }
  engine.bind(problem);
  const WcgProblem other(instance, test::random_state(4, 2, rng),
                         instance.max_frequencies());
  {
    LoadTracker tracker(other, other.random_profile(rng));
    EXPECT_THROW(engine.reset(tracker), std::invalid_argument);
  }
  problem.rebuild(instance, test::random_state(4, 2, rng),
                  instance.max_frequencies());
  EXPECT_FALSE(engine.bound_to(problem));
  LoadTracker tracker(problem, problem.random_profile(rng));
  EXPECT_THROW(engine.reset(tracker), std::invalid_argument);

  SlotState blacked_out = test::random_state(4, 2, rng);
  for (auto& h : blacked_out.channel[2]) h = 0.0;
  EXPECT_THROW(problem.rebuild(instance, blacked_out,
                               instance.max_frequencies()),
               std::invalid_argument);
  EXPECT_EQ(problem.generation(), 0u);
  EXPECT_THROW(engine.bind(problem), std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
