// Differentials for the component-parallel slot (core/components.h)
// against the global WcgProblem oracle:
//   - the planner against a brute-force label-propagation oracle over the
//     coverable pairs of 25 random multi-component instances;
//   - every directly built component equal, bit for bit, to the global
//     rebuild() restricted to it: options, p-values and weights;
//   - BDMA's per-component P2-A — CGBA under both selection rules, MCBA and
//     ROPT — equal to the global solvers, and the CGBA-assignment stage's
//     merged cost equal to the global solve's, for every worker count;
//   - per-component counters partitioning the flushed totals;
//   - the controllers' warm start (draw_profiles, then keep_carried) over
//     the paper and metro-4 worlds;
//   - BDMA over several metro slots, over grouped-world slots and over
//     paper slots whose coverage moves, equal to a test-side Algorithm 2
//     over one global problem (cgba_from, the sqrt-chain solve_p2b and
//     dpp_objective), planning once per instance;
//   - a metro channel on another district's station rejected by both, and
//     a slot failing in two districts reporting the same error on every
//     worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bdma.h"
#include "core/cgba.h"
#include "core/components.h"
#include "core/counters.h"
#include "core/latency.h"
#include "core/mcba.h"
#include "core/p2b.h"
#include "core/wcg.h"
#include "sim/pipeline/assemblies.h"
#include "sim/scenario.h"
#include "support/core_oracles.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

using test::GroupedWorld;
using test::grouped_state;
using test::random_grouped_world;

constexpr std::uint32_t kNone = 0xffffffffu;

// A fuzzed multi-component instance and one slot state over it.
struct FuzzWorld {
  GroupedWorld grouped;
  Instance instance;
  SlotState state;
};

FuzzWorld fuzz_world(unsigned seed) {
  util::Rng rng(seed);
  GroupedWorld world = random_grouped_world(rng);
  Instance instance =
      Instance::random(world.topology, rng, rng.uniform(0.1, 5.0));
  SlotState state = grouped_state(world, rng);
  return FuzzWorld{std::move(world), std::move(instance), std::move(state)};
}

// Naive component oracle: label propagation to a fixpoint over the
// device, station and server nodes of the instance's coverable pairs —
// each device with its coverable stations, each station with the servers
// it reaches — a different algorithm from the planner's union-find.
// Components are renumbered densely in order of first device appearance,
// matching the contract.
struct OracleComponents {
  std::size_t count = 0;
  std::vector<std::uint32_t> device_component;
  std::vector<std::uint32_t> station_component;  // kNone if untouched
  std::vector<std::uint32_t> server_component;   // kNone if untouched
};

OracleComponents brute_force_components(const topology::Topology& topo) {
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  const std::size_t servers = topo.num_servers();
  // Node labels: devices, then stations, then servers.
  std::vector<std::size_t> label(devices + stations + servers);
  std::vector<bool> touched(label.size(), false);
  for (std::size_t v = 0; v < label.size(); ++v) label[v] = v;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < devices; ++i) {
      for (const topology::BaseStationId k :
           topo.coverable_stations(topology::DeviceId{i})) {
        for (const topology::ServerId s : topo.reachable_servers(k)) {
          const std::size_t nodes[] = {i, devices + k.value,
                                       devices + stations + s.value};
          std::size_t m = label[nodes[0]];
          for (const std::size_t v : nodes) m = std::min(m, label[v]);
          for (const std::size_t v : nodes) {
            touched[v] = true;
            if (label[v] != m) {
              label[v] = m;
              changed = true;
            }
          }
        }
      }
    }
  }
  OracleComponents oracle;
  std::vector<std::uint32_t> label_component(label.size(), kNone);
  for (std::size_t i = 0; i < devices; ++i) {
    if (label_component[label[i]] == kNone) {
      label_component[label[i]] = static_cast<std::uint32_t>(oracle.count++);
    }
    oracle.device_component.push_back(label_component[label[i]]);
  }
  const auto component_of = [&](std::size_t v) {
    return touched[v] ? label_component[label[v]] : kNone;
  };
  for (std::size_t k = 0; k < stations; ++k) {
    oracle.station_component.push_back(component_of(devices + k));
  }
  for (std::size_t s = 0; s < servers; ++s) {
    oracle.server_component.push_back(component_of(devices + stations + s));
  }
  return oracle;
}

// The plan against the oracle: same count, the same members per component,
// every list ascending and the lists partitioning what the coverable pairs
// touch; the options are the global problem's.
void expect_plan_matches_oracle(const WcgComponents& wcg,
                                const Instance& instance,
                                const WcgProblem& global) {
  const OracleComponents oracle = brute_force_components(instance.topology());
  ASSERT_EQ(wcg.count(), oracle.count);
  ASSERT_GE(wcg.count(), 1u);
  EXPECT_EQ(wcg.num_devices(), global.num_devices());
  EXPECT_EQ(wcg.num_options(), global.num_options());
  std::size_t devices = 0;
  std::size_t stations = 0;
  std::size_t servers = 0;
  for (std::size_t c = 0; c < wcg.count(); ++c) {
    const auto members = wcg.devices(c);
    ASSERT_FALSE(members.empty()) << "component " << c;
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const std::uint32_t i : members) {
      EXPECT_EQ(oracle.device_component[i], c) << "device " << i;
    }
    EXPECT_TRUE(std::is_sorted(wcg.stations(c).begin(), wcg.stations(c).end()));
    for (const std::uint32_t k : wcg.stations(c)) {
      EXPECT_EQ(oracle.station_component[k], c) << "station " << k;
    }
    EXPECT_TRUE(std::is_sorted(wcg.servers(c).begin(), wcg.servers(c).end()));
    for (const std::uint32_t s : wcg.servers(c)) {
      EXPECT_EQ(oracle.server_component[s], c) << "server " << s;
    }
    devices += members.size();
    stations += wcg.stations(c).size();
    servers += wcg.servers(c).size();
  }
  EXPECT_EQ(devices, global.num_devices());
  const auto listed = [](const std::vector<std::uint32_t>& component) {
    return static_cast<std::size_t>(
        std::count_if(component.begin(), component.end(),
                      [](std::uint32_t c) { return c != kNone; }));
  };
  EXPECT_EQ(stations, listed(oracle.station_component));
  EXPECT_EQ(servers, listed(oracle.server_component));
}

// The groups of a grouped world that have devices: one component each.
std::size_t occupied_groups(const GroupedWorld& world) {
  std::vector<bool> occupied(world.groups, false);
  for (const std::size_t g : world.device_group) occupied[g] = true;
  return static_cast<std::size_t>(
      std::count(occupied.begin(), occupied.end(), true));
}

// Component c's problem against the global rebuild restricted to it, bit
// for bit.
void expect_component_is_restriction(const WcgComponents& wcg, std::size_t c,
                                     const WcgProblem& global) {
  const WcgProblem& local = wcg.problem(c);
  const auto members = wcg.devices(c);
  const std::size_t ns = local.num_servers();
  const std::size_t nk = local.num_base_stations();
  ASSERT_EQ(local.num_devices(), members.size());
  ASSERT_EQ(ns, wcg.servers(c).size());
  ASSERT_EQ(nk, wcg.stations(c).size());
  ASSERT_EQ(local.num_resources(), ns + 2 * nk);
  for (std::size_t s = 0; s < ns; ++s) {
    EXPECT_EQ(local.server_id(s), wcg.servers(c)[s]);
  }
  for (std::size_t k = 0; k < nk; ++k) {
    EXPECT_EQ(local.station_id(k), wcg.stations(c)[k]);
  }
  for (std::size_t j = 0; j < members.size(); ++j) {
    const auto local_options = local.options(j);
    const auto global_options = global.options(members[j]);
    ASSERT_EQ(local_options.size(), global_options.size());
    for (std::size_t o = 0; o < local_options.size(); ++o) {
      const Option& lo = local_options[o];
      const Option& go = global_options[o];
      EXPECT_EQ(local.station_id(lo.bs), go.bs);
      EXPECT_EQ(local.server_id(lo.server), go.server);
      EXPECT_EQ(lo.r_compute, lo.server);
      EXPECT_EQ(lo.r_access, ns + lo.bs);
      EXPECT_EQ(lo.r_fronthaul, ns + nk + lo.bs);
      EXPECT_EQ(lo.p_compute, go.p_compute);  // exact bits
      EXPECT_EQ(lo.p_access, go.p_access);
      EXPECT_EQ(lo.p_fronthaul, go.p_fronthaul);
    }
  }
  // Local resource -> global resource.
  const std::size_t servers = global.num_servers();
  const std::size_t stations = global.num_base_stations();
  std::vector<std::size_t> global_resource(local.num_resources());
  for (std::size_t s = 0; s < ns; ++s) global_resource[s] = local.server_id(s);
  for (std::size_t k = 0; k < nk; ++k) {
    global_resource[ns + k] = servers + local.station_id(k);
    global_resource[ns + nk + k] = servers + stations + local.station_id(k);
  }
  for (std::size_t r = 0; r < local.num_resources(); ++r) {
    EXPECT_EQ(local.weight(r), global.weight(global_resource[r])) << r;
  }
}

class ComponentFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ComponentFuzz, PlannerMatchesBruteForceOracle) {
  const FuzzWorld w = fuzz_world(110'000 + GetParam());
  const Frequencies frequencies = w.instance.max_frequencies();
  const WcgProblem global(w.instance, w.state, frequencies);
  WcgComponents wcg;
  wcg.build(w.instance, w.state, frequencies, 1);
  expect_plan_matches_oracle(wcg, w.instance, global);
  EXPECT_EQ(wcg.count(), occupied_groups(w.grouped));
}

TEST_P(ComponentFuzz, BuiltComponentsEqualTheGlobalRebuildRestricted) {
  const FuzzWorld w = fuzz_world(120'000 + GetParam());
  // Frequencies strictly inside every range, so the compute weights are
  // neither Ω^L's nor Ω^U's.
  Frequencies frequencies = w.instance.min_frequencies();
  const Frequencies upper = w.instance.max_frequencies();
  for (std::size_t n = 0; n < frequencies.size(); ++n) {
    frequencies[n] = 0.3 * frequencies[n] + 0.7 * upper[n];
  }
  const WcgProblem global(w.instance, w.state, frequencies);
  for (const std::size_t workers : {1, 4}) {
    WcgComponents wcg;
    wcg.build(w.instance, w.state, frequencies, workers);
    for (std::size_t c = 0; c < wcg.count(); ++c) {
      SCOPED_TRACE(c);
      expect_component_is_restriction(wcg, c, global);
    }
  }
}

// BDMA's first P2-A solve (z = 1, a fresh workspace) over the components
// equals the global solver on the whole problem at Ω^L: the same decision,
// the same rng stream, and an objective with dpp_objective's bits.
TEST_P(ComponentFuzz, BdmaP2aOverComponentsEqualsGlobalSolvers) {
  const FuzzWorld w = fuzz_world(130'000 + GetParam());
  const WcgProblem global(w.instance, w.state, w.instance.min_frequencies());
  struct Arm {
    const char* name;
    P2aSolverKind solver;
    CgbaSelection selection;
  };
  for (const Arm arm :
       {Arm{"cgba max-gap", P2aSolverKind::kCgba, CgbaSelection::kMaxGap},
        Arm{"cgba round-robin", P2aSolverKind::kCgba,
            CgbaSelection::kRoundRobin},
        Arm{"mcba", P2aSolverKind::kMcba, CgbaSelection::kMaxGap},
        Arm{"ropt", P2aSolverKind::kRopt, CgbaSelection::kMaxGap}}) {
    SCOPED_TRACE(arm.name);
    BdmaConfig config;
    config.iterations = 1;
    config.solver = arm.solver;
    config.cgba.selection = arm.selection;
    config.mcba.iterations = 400;
    const unsigned seed = 140'000 + GetParam();

    // The global reference.
    util::Rng reference_rng(seed);
    Assignment expected;
    std::size_t expected_iterations = 1;
    switch (arm.solver) {
      case P2aSolverKind::kCgba: {
        const SolveResult r = cgba(global, config.cgba, reference_rng);
        expected = global.to_assignment(r.profile);
        expected_iterations = r.iterations;
        break;
      }
      case P2aSolverKind::kRopt:
        expected = global.to_assignment(global.random_profile(reference_rng));
        break;
      case P2aSolverKind::kMcba: {
        // One chain per component: the caller's rng when there is one,
        // else seeds drawn from it in component order. The chains run on
        // the component problems, each the global problem restricted to
        // its component (the test above).
        WcgComponents wcg;
        wcg.build(w.instance, w.state,
                         w.instance.min_frequencies(), 1);
        std::vector<Profile> profiles(wcg.count());
        std::vector<std::uint64_t> seeds(wcg.count());
        if (wcg.count() > 1) {
          for (std::uint64_t& s : seeds) s = reference_rng.engine()();
        }
        if (wcg.count() == 1) {
          const SolveResult r = mcba(global, config.mcba, reference_rng);
          expected = global.to_assignment(r.profile);
          expected_iterations = r.iterations;
          break;
        }
        expected_iterations = 0;
        for (std::size_t c = 0; c < wcg.count(); ++c) {
          util::Rng chain_rng(seeds[c]);
          const SolveResult r = mcba(wcg.problem(c), config.mcba, chain_rng);
          profiles[c] = r.profile;
          expected_iterations += r.iterations;
        }
        wcg.to_assignment(profiles, expected);
        break;
      }
    }

    for (const std::size_t workers : {0, 1, 4}) {
      SCOPED_TRACE(workers);
      config.cgba.shard_workers = workers;
      config.mcba.shard_workers = workers;
      util::Rng rng(seed);
      const BdmaResult r = bdma(w.instance, w.state, 100.0, 10.0, config, rng);
      ASSERT_EQ(r.assignment.bs_of, expected.bs_of);
      ASSERT_EQ(r.assignment.server_of, expected.server_of);
      ASSERT_EQ(r.p2a_iterations, expected_iterations);
      ASSERT_EQ(rng.engine(), reference_rng.engine());
      ASSERT_EQ(r.objective, dpp_objective(w.instance, w.state, r.assignment,
                                           r.frequencies, 100.0, 10.0));
      ASSERT_EQ(r.latency, reduced_latency(w.instance, w.state, r.assignment,
                                           r.frequencies));
      ASSERT_EQ(r.theta,
                w.instance.theta(r.frequencies, w.state.price_per_mwh));
    }
  }
}

// The CGBA-assignment stage (greedy-budget, fixed-*, mpc) solves per
// component and reports the merged cost; both equal the global CGBA solve.
TEST_P(ComponentFuzz, CgbaAssignStageEqualsGlobalCgba) {
  const FuzzWorld w = fuzz_world(150'000 + GetParam());
  const WcgProblem global(w.instance, w.state, w.instance.max_frequencies());
  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig config;
    config.selection = selection;
    const unsigned seed = 160'000 + GetParam();
    util::Rng reference_rng(seed);
    const SolveResult expected = cgba(global, config, reference_rng);
    const Assignment expected_assignment = global.to_assignment(expected.profile);
    for (const std::size_t workers : {0, 2, 8}) {
      SCOPED_TRACE(workers);
      config.shard_workers = workers;
      const auto policy =
          sim::pipeline::make_fixed_frequency_pipeline(w.instance, 1.0, config);
      util::Rng rng(seed);
      const DppSlotResult r = policy->step(w.state, rng);
      ASSERT_EQ(r.decision.assignment.bs_of, expected_assignment.bs_of);
      ASSERT_EQ(r.decision.assignment.server_of,
                expected_assignment.server_of);
      ASSERT_EQ(r.latency, expected.cost);  // exact bits
      ASSERT_EQ(r.p2a_iterations, expected.iterations);
      ASSERT_EQ(rng.engine(), reference_rng.engine());
    }
  }
}

// The per-component counters of each P2-A iterate partition exactly the
// totals it flushes for the in-shard fields, and a slot counts one plan
// find or reuse.
TEST_P(ComponentFuzz, ComponentCountersSumToFlushedTotals) {
  const FuzzWorld w = fuzz_world(170'000 + GetParam());
  BdmaConfig config;
  config.cgba.shard_workers = 4;
  BdmaWorkspace workspace;
  BdmaLoopState loop;
  util::Rng rng(180'000 + GetParam());
  counters::SolverCounters slot;
  {
    const counters::Scope scope(slot);
    bdma_begin_slot(w.instance, w.state, workspace, loop);
  }
  for (std::size_t it = 0; it < 3; ++it) {
    SCOPED_TRACE(it);
    counters::SolverCounters observed;
    {
      const counters::Scope scope(observed);
      bdma_p2a_iterate(w.instance, w.state, config, it, rng, workspace, loop);
    }
    ASSERT_EQ(loop.p2a_shards, workspace.problem.count());
    ASSERT_EQ(loop.p2a_shard_counters.size(), workspace.problem.count());
    counters::SolverCounters summed;
    for (const counters::SolverCounters& component : loop.p2a_shard_counters) {
      summed.merge(component);
    }
    EXPECT_EQ(summed.cgba_rounds, observed.cgba_rounds);
    EXPECT_EQ(summed.cgba_moves, observed.cgba_moves);
    EXPECT_EQ(summed.engine_rebuilds, observed.engine_rebuilds);
    EXPECT_EQ(summed.engine_term_refreshes, observed.engine_term_refreshes);
    EXPECT_EQ(observed.bdma_iterations, 1u);
    slot.merge(observed);
    bdma_p2b_iterate(w.instance, w.state, 100.0, 10.0, config, workspace,
                     loop);
  }
  EXPECT_EQ(slot.component_finds + slot.component_reuses, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentFuzz, ::testing::Range(0, 25));

// The fuzz worlds plan one component and several.
TEST(ComponentFuzzWorlds, SomeSeedsPlanSeveralComponents) {
  std::size_t several = 0;
  for (int seed = 0; seed < 25; ++seed) {
    const FuzzWorld w = fuzz_world(110'000 + seed);
    WcgComponents wcg;
    wcg.build(w.instance, w.state, w.instance.max_frequencies(), 0);
    if (wcg.count() >= 2) ++several;
  }
  EXPECT_GT(several, 0u);
  EXPECT_LT(several, 25u);
}

// Algorithm 2 over one global WcgProblem with a carried warm start — the
// reference the per-component BDMA must reproduce bit for bit.
struct GlobalBdma {
  WcgProblem problem;
  Assignment carried;

  BdmaResult step(const Instance& instance, const SlotState& state, double v,
                  double q, const BdmaConfig& config, util::Rng& rng) {
    problem.rebuild(instance, state, instance.min_frequencies());
    BdmaResult best;
    best.objective = std::numeric_limits<double>::infinity();
    Frequencies omega = instance.min_frequencies();
    Profile previous;
    Assignment last;
    for (std::size_t it = 0; it < config.iterations; ++it) {
      if (it > 0) problem.set_frequencies(instance, omega);
      Profile start = it == 0 ? warm_profile(problem, carried, rng) : previous;
      const SolveResult r = cgba_from(problem, config.cgba, std::move(start));
      best.p2a_iterations += r.iterations;
      last = problem.to_assignment(r.profile);
      const P2bResult p2b =
          solve_p2b(instance, state, last, v, q, config.freq_tolerance);
      const double objective =
          dpp_objective(instance, state, last, p2b.frequencies, v, q);
      EXPECT_EQ(objective, p2b.objective);
      best.objective_history.push_back(objective);
      if (objective < best.objective) {
        best.objective = objective;
        best.assignment = last;
        best.frequencies = p2b.frequencies;
      }
      omega = p2b.frequencies;
      previous = r.profile;
    }
    best.latency =
        reduced_latency(instance, state, best.assignment, best.frequencies);
    best.theta = instance.theta(best.frequencies, state.price_per_mwh);
    carried = last;
    return best;
  }
};

void expect_same_result(const BdmaResult& actual, const BdmaResult& expected) {
  ASSERT_EQ(actual.assignment.bs_of, expected.assignment.bs_of);
  ASSERT_EQ(actual.assignment.server_of, expected.assignment.server_of);
  ASSERT_EQ(actual.frequencies, expected.frequencies);
  ASSERT_EQ(actual.objective, expected.objective);  // exact bits
  ASSERT_EQ(actual.latency, expected.latency);
  ASSERT_EQ(actual.theta, expected.theta);
  ASSERT_EQ(actual.objective_history, expected.objective_history);
  ASSERT_EQ(actual.p2a_iterations, expected.p2a_iterations);
}

// A 4-district metro scenario small enough for bit-for-bit comparisons.
sim::ScenarioConfig small_metro_config() {
  sim::ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 32;
  config.servers_per_cluster = 2;
  return config;
}

// The controllers' warm start: WcgComponents::draw_profiles, then
// keep_carried for every component. Checked over the paper world (one
// component) and the metro-4 world (one per district).
std::vector<sim::ScenarioConfig> carry_worlds() {
  sim::ScenarioConfig paper;
  paper.devices = 40;
  return {paper, small_metro_config()};
}

// Whether device j of component c still has the carried pair on offer.
bool carried_pair_on_offer(const WcgComponents& wcg, std::size_t c,
                           std::size_t j, const Assignment& carried) {
  const WcgProblem& problem = wcg.problem(c);
  const std::size_t i = wcg.devices(c)[j];
  for (const Option& opt : problem.options(j)) {
    if (problem.station_id(opt.bs) == carried.bs_of[i] &&
        problem.server_id(opt.server) == carried.server_of[i]) {
      return true;
    }
  }
  return false;
}

// An empty carry keeps the draw, and the draw is the global
// random_profile's: the same options and the same rng advance.
TEST(ComponentCarry, AnEmptyCarryKeepsTheDraw) {
  for (const sim::ScenarioConfig& config : carry_worlds()) {
    sim::Scenario scenario(config);
    const Instance& instance = scenario.instance();
    const SlotState state = scenario.next_state();
    WcgComponents wcg;
    wcg.build(instance, state, instance.max_frequencies(), 0);
    WcgProblem global;
    global.rebuild(instance, state, instance.max_frequencies());
    util::Rng rng(60);
    util::Rng global_rng(60);
    std::vector<Profile> profiles;
    wcg.draw_profiles(rng, profiles);
    const Profile drawn = global.random_profile(global_rng);
    EXPECT_EQ(rng.engine(), global_rng.engine());
    for (std::size_t c = 0; c < wcg.count(); ++c) {
      const Profile draw = profiles[c];
      wcg.keep_carried(c, Assignment{}, profiles[c]);
      EXPECT_EQ(profiles[c], draw) << "component " << c;
      for (std::size_t j = 0; j < draw.size(); ++j) {
        EXPECT_EQ(draw[j], drawn[wcg.devices(c)[j]]);
      }
    }
  }
}

// A device whose carried pair is still on offer keeps it; one whose
// carried station no longer covers it keeps its draw.
TEST(ComponentCarry, KeepsEveryCarriedPairStillOnOffer) {
  for (const sim::ScenarioConfig& config : carry_worlds()) {
    sim::Scenario scenario(config);
    const Instance& instance = scenario.instance();
    SlotState state = scenario.next_state();
    WcgComponents wcg;
    wcg.build(instance, state, instance.max_frequencies(), 0);
    util::Rng carry_rng(61);
    std::vector<Profile> previous;
    wcg.draw_profiles(carry_rng, previous);
    Assignment carried;
    wcg.to_assignment(previous, carried);
    // Every third device that another station also covers loses its
    // carried station.
    for (std::size_t i = 0; i < state.channel.size(); i += 3) {
      const auto& row = state.channel[i];
      const auto covering = std::count_if(
          row.begin(), row.end(), [](double h) { return h > 0.0; });
      if (covering > 1) state.channel[i][carried.bs_of[i]] = 0.0;
    }
    wcg.build(instance, state, instance.max_frequencies(), 0);
    std::size_t kept = 0;
    std::size_t lost = 0;
    for (const std::uint64_t seed : {62u, 63u, 64u}) {
      util::Rng rng(seed);
      std::vector<Profile> profiles;
      wcg.draw_profiles(rng, profiles);
      for (std::size_t c = 0; c < wcg.count(); ++c) {
        const Profile draw = profiles[c];
        wcg.keep_carried(c, carried, profiles[c]);
        const WcgProblem& problem = wcg.problem(c);
        for (std::size_t j = 0; j < draw.size(); ++j) {
          const std::size_t i = wcg.devices(c)[j];
          if (!carried_pair_on_offer(wcg, c, j, carried)) {
            EXPECT_EQ(profiles[c][j], draw[j]) << "device " << i;
            ++lost;
            continue;
          }
          const Option& opt = problem.options(j)[profiles[c][j]];
          EXPECT_EQ(problem.station_id(opt.bs), carried.bs_of[i]);
          EXPECT_EQ(problem.server_id(opt.server), carried.server_of[i]);
          if (profiles[c][j] != draw[j]) ++kept;
        }
      }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(lost, 0u);
  }
}

// A carry that does not cover the slot's devices is a caller bug (a
// workspace reused across instances), not a cold start.
TEST(ComponentCarry, RejectsAShortLongOrRaggedCarry) {
  for (const sim::ScenarioConfig& config : carry_worlds()) {
    sim::Scenario scenario(config);
    const Instance& instance = scenario.instance();
    WcgComponents wcg;
    wcg.build(instance, scenario.next_state(), instance.max_frequencies(), 0);
    util::Rng rng(65);
    std::vector<Profile> profiles;
    wcg.draw_profiles(rng, profiles);
    Assignment carried;
    wcg.to_assignment(profiles, carried);
    Assignment short_carry = carried;
    short_carry.bs_of.pop_back();
    short_carry.server_of.pop_back();
    Assignment long_carry = carried;
    long_carry.bs_of.push_back(0);
    long_carry.server_of.push_back(0);
    Assignment ragged = carried;
    ragged.server_of.pop_back();
    for (const Assignment& bad : {short_carry, long_carry, ragged}) {
      EXPECT_THROW(wcg.keep_carried(0, bad, profiles[0]),
                   std::invalid_argument);
    }
  }
}

// Per-component BDMA over several metro slots, warm-started from the
// carried assignment, equals the global loop under both CGBA selection
// rules and for every worker count; the static metro coverage plans once.
TEST(ComponentMetroScenario, BdmaOverSlotsEqualsGlobalLoop) {
  constexpr std::size_t kSlots = 4;
  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    for (const std::size_t workers : {0, 1, 3}) {
      SCOPED_TRACE(workers);
      sim::Scenario scenario(small_metro_config());
      const Instance& instance = scenario.instance();
      BdmaConfig config;
      config.cgba.selection = selection;
      config.cgba.shard_workers = workers;
      GlobalBdma reference;
      BdmaWorkspace workspace;
      util::Rng reference_rng(41);
      util::Rng rng(41);
      counters::SolverCounters observed;
      for (std::size_t slot = 0; slot < kSlots; ++slot) {
        SCOPED_TRACE(slot);
        const SlotState state = scenario.next_state();
        // A growing backlog makes P2-B trade energy against latency, so
        // the frequencies move between iterations.
        const double q = 40.0 * static_cast<double>(slot);
        const BdmaResult expected =
            reference.step(instance, state, 100.0, q, config, reference_rng);
        BdmaResult actual;
        {
          const counters::Scope scope(observed);
          actual = bdma(instance, state, 100.0, q, config, rng, workspace);
        }
        expect_same_result(actual, expected);
        ASSERT_EQ(rng.engine(), reference_rng.engine());
        ASSERT_EQ(workspace.carried.bs_of, reference.carried.bs_of);
        ASSERT_EQ(workspace.problem.count(), 4u);
      }
      EXPECT_EQ(observed.component_finds, 1u);
      EXPECT_EQ(observed.component_reuses, kSlots - 1);
    }
  }
}

// Coverage moves within the coverable lists keep the plan and stay exact:
// each grouped-world slot redraws which of its group's stations a device
// reaches. A slot where a device has no usable link throws before any
// draw, and the next slot reuses the plan.
TEST(ComponentGroupedWorld, CoverageMovesReuseThePlanAndStayExact) {
  // The first fuzz world whose three groups all have devices.
  unsigned seed = 0;
  for (;; ++seed) {
    util::Rng probe(seed);
    if (occupied_groups(random_grouped_world(probe)) == 3) break;
  }
  util::Rng world_rng(seed);
  const GroupedWorld world = random_grouped_world(world_rng);
  const Instance instance =
      Instance::random(world.topology, world_rng, world_rng.uniform(0.1, 5.0));
  std::vector<SlotState> states;
  for (int t = 0; t < 4; ++t) states.push_back(grouped_state(world, world_rng));
  SlotState blackout = states[2];
  for (double& h : blackout.channel.back()) h = 0.0;

  BdmaConfig config;
  config.cgba.shard_workers = 2;
  GlobalBdma reference;
  BdmaWorkspace workspace;
  util::Rng reference_rng(7);
  util::Rng rng(7);
  for (std::size_t t = 0; t < states.size(); ++t) {
    SCOPED_TRACE(t);
    if (t > 0) {
      ASSERT_NE(states[t].channel, states[t - 1].channel);
    }
    if (t == 3) {
      EXPECT_THROW((void)bdma(instance, blackout, 100.0, 5.0, config, rng,
                              workspace),
                   std::invalid_argument);
      EXPECT_THROW((void)reference.step(instance, blackout, 100.0, 5.0,
                                        config, reference_rng),
                   std::invalid_argument);
      // Both consumed nothing from their rngs before throwing.
      ASSERT_EQ(rng.engine(), reference_rng.engine());
    }
    counters::SolverCounters observed;
    BdmaResult actual;
    {
      const counters::Scope scope(observed);
      actual = bdma(instance, states[t], 100.0, 5.0, config, rng, workspace);
    }
    const BdmaResult expected =
        reference.step(instance, states[t], 100.0, 5.0, config, reference_rng);
    expect_same_result(actual, expected);
    ASSERT_EQ(workspace.problem.count(), 3u);
    expect_plan_matches_oracle(workspace.problem, instance, reference.problem);
    // Slot 0 plans; every later slot, the one after the blackout included,
    // reuses the plan.
    EXPECT_EQ(observed.component_finds, t == 0 ? 1u : 0u);
    EXPECT_EQ(observed.component_reuses, t == 0 ? 0u : 1u);
  }
}

// The paper world's mobile devices move in and out of the mid-band cells,
// so its coverage moves every slot; its one component is planned once per
// instance, and every slot equals the global loop. A second instance
// re-plans.
TEST(ComponentPaperScenario, MovingCoveragePlansOncePerInstance) {
  constexpr std::size_t kSlots = 24;
  sim::ScenarioConfig scenario_config;
  scenario_config.devices = 40;
  sim::Scenario scenario(scenario_config);
  const Instance& instance = scenario.instance();
  BdmaConfig config;
  GlobalBdma reference;
  BdmaWorkspace workspace;
  util::Rng reference_rng(11);
  util::Rng rng(11);
  counters::SolverCounters observed;
  std::vector<std::vector<bool>> previous;
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    SCOPED_TRACE(slot);
    const SlotState state = scenario.next_state();
    std::vector<std::vector<bool>> coverage;
    for (const std::vector<double>& row : state.channel) {
      coverage.emplace_back();
      for (const double h : row) coverage.back().push_back(h > 0.0);
    }
    ASSERT_NE(coverage, previous);
    previous = std::move(coverage);
    const double q = 10.0 * static_cast<double>(slot);
    const BdmaResult expected =
        reference.step(instance, state, 100.0, q, config, reference_rng);
    BdmaResult actual;
    {
      const counters::Scope scope(observed);
      actual = bdma(instance, state, 100.0, q, config, rng, workspace);
    }
    expect_same_result(actual, expected);
    ASSERT_EQ(rng.engine(), reference_rng.engine());
    ASSERT_EQ(workspace.problem.count(), 1u);
  }
  EXPECT_EQ(observed.component_finds, 1u);
  EXPECT_EQ(observed.component_reuses, kSlots - 1);
  EXPECT_EQ(observed.arena_precomputes, 1u);
  EXPECT_EQ(observed.arena_precompute_reuses, kSlots - 1);

  scenario_config.seed += 1;
  sim::Scenario other(scenario_config);
  const SlotState state = other.next_state();
  counters::SolverCounters replanned;
  {
    const counters::Scope scope(replanned);
    workspace.problem.build(other.instance(), state,
                            other.instance().max_frequencies(), 0);
  }
  EXPECT_EQ(replanned.component_finds, 1u);
  EXPECT_EQ(replanned.component_reuses, 0u);
  EXPECT_EQ(replanned.arena_precomputes, 1u);
  const WcgProblem global(other.instance(), state,
                          other.instance().max_frequencies());
  expect_component_is_restriction(workspace.problem, 0, global);
}

// A metro slot where devices of two districts have no usable link, or a
// NaN h, fails in two components at once, after a good slot planned them.
// Every worker count reports the lower component's failure — the error a
// serial loop meets first.
TEST(ComponentMetroScenario, TwoFailingDistrictsReportTheSameError) {
  sim::Scenario scenario(small_metro_config());
  const Instance& instance = scenario.instance();
  const SlotState good = scenario.next_state();
  const SlotState state = scenario.next_state();
  WcgComponents plan;
  plan.build(instance, state, instance.max_frequencies(), 0);
  ASSERT_EQ(plan.count(), 4u);
  const std::uint32_t low = plan.devices(1).front();
  const std::uint32_t high = plan.devices(2).back();
  SlotState blackout = state;
  SlotState not_a_number = state;
  for (const std::uint32_t i : {low, high}) {
    std::fill(blackout.channel[i].begin(), blackout.channel[i].end(), 0.0);
    *std::ranges::find_if(not_a_number.channel[i],
                          [](double h) { return h > 0.0; }) =
        std::numeric_limits<double>::quiet_NaN();
  }
  for (const SlotState* bad : {&blackout, &not_a_number}) {
    std::string first;
    for (const std::size_t workers : {0, 1, 4}) {
      SCOPED_TRACE(workers);
      BdmaConfig config;
      config.cgba.shard_workers = workers;
      BdmaWorkspace workspace;
      util::Rng rng(3);
      (void)bdma(instance, good, 100.0, 5.0, config, rng, workspace);
      try {
        (void)bdma(instance, *bad, 100.0, 5.0, config, rng, workspace);
        FAIL() << "the failing slot was accepted";
      } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("device " + std::to_string(low) + " has "),
                  std::string::npos)
            << message;
        if (first.empty()) first = message;
        EXPECT_EQ(message, first);
      }
    }
  }
}

// A boxed device's channel may be positive only on its coverable stations.
// h > 0 on another district's station, given under the memoised metro
// plan, is rejected by both solvers before any draw, naming the device,
// station and slot; the next good slot then solves exactly.
TEST(ComponentMetroScenario, ForeignDistrictChannelIsRejected) {
  sim::Scenario scenario(small_metro_config());
  const Instance& instance = scenario.instance();
  const SlotState first = scenario.next_state();
  const SlotState second = scenario.next_state();
  // Device 0 lives in district 0; station 2 belongs to district 1.
  ASSERT_EQ(second.channel[0][2], 0.0);
  SlotState foreign = second;
  foreign.channel[0][2] = 20.0;

  BdmaConfig config;
  config.cgba.shard_workers = 2;
  GlobalBdma reference;
  BdmaWorkspace workspace;
  util::Rng reference_rng(7);
  util::Rng rng(7);
  expect_same_result(
      bdma(instance, first, 100.0, 5.0, config, rng, workspace),
      reference.step(instance, first, 100.0, 5.0, config, reference_rng));
  util::Rng before = rng;
  EXPECT_THROW((void)bdma(instance, foreign, 100.0, 5.0, config, rng,
                          workspace),
               std::invalid_argument);
  EXPECT_THROW((void)reference.step(instance, foreign, 100.0, 5.0, config,
                                    reference_rng),
               std::invalid_argument);
  ASSERT_EQ(rng.engine(), before.engine());
  ASSERT_EQ(reference_rng.engine(), before.engine());
  try {
    const WcgProblem problem(instance, foreign, instance.max_frequencies());
    FAIL() << "the foreign station was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("device 0 has h > 0 on station 2, which can never "
                        "cover it, at slot 1"),
              std::string::npos)
        << error.what();
  }

  const BdmaResult actual =
      bdma(instance, second, 100.0, 5.0, config, rng, workspace);
  expect_same_result(actual, reference.step(instance, second, 100.0, 5.0,
                                            config, reference_rng));
  EXPECT_EQ(workspace.problem.count(), 4u);
}

// One WcgComponents handed two metro instances alternately — the same
// district layout and reach lists, different device counts — plans each
// as a fresh one would: the memoised plan is tied to its instance.
TEST(ComponentMetroScenario, AlternatingInstancesEachGetTheirOwnPlan) {
  sim::ScenarioConfig config_b = small_metro_config();
  config_b.seed += 1;
  config_b.devices = 40;
  sim::Scenario scenario_a(small_metro_config());
  sim::Scenario scenario_b(config_b);
  WcgComponents shared;
  for (int t = 0; t < 4; ++t) {
    SCOPED_TRACE(t);
    sim::Scenario& scenario = t % 2 == 0 ? scenario_a : scenario_b;
    const Instance& instance = scenario.instance();
    const SlotState state = scenario.next_state();
    shared.build(instance, state, instance.max_frequencies(), 2);
    const WcgProblem global(instance, state, instance.max_frequencies());
    expect_plan_matches_oracle(shared, instance, global);
    for (std::size_t c = 0; c < shared.count(); ++c) {
      expect_component_is_restriction(shared, c, global);
    }
  }
}

// The paper scenario's low-band stations cover the whole region and reach
// every room, so its WCG is one component, solved inline.
TEST(ComponentPaperScenario, SingleComponent) {
  sim::ScenarioConfig config;
  config.devices = 20;
  sim::Scenario scenario(config);
  const SlotState state = scenario.next_state();
  const Instance& instance = scenario.instance();
  WcgComponents wcg;
  wcg.build(instance, state, instance.max_frequencies(), 8);
  ASSERT_EQ(wcg.count(), 1u);
  const WcgProblem global(instance, state, instance.max_frequencies());
  expect_component_is_restriction(wcg, 0, global);
}

// Metro scenarios decompose into exactly one component per district, and
// the confinement boxes keep it that way across slots.
TEST(ComponentMetroScenario, OneComponentPerDistrictAcrossSlots) {
  sim::ScenarioConfig config = small_metro_config();
  sim::Scenario scenario(config);
  const Instance& instance = scenario.instance();
  WcgComponents wcg;
  for (int slot = 0; slot < 5; ++slot) {
    const SlotState state = scenario.next_state();
    wcg.build(instance, state, instance.max_frequencies(), 2);
    ASSERT_EQ(wcg.count(), config.metro_districts) << "slot " << slot;
  }
}

// A device whose roaming box meets no coverage disc can never be served:
// the plan rejects the instance, naming the device.
TEST(ComponentPlan, ADeviceWithNoCoverableStationIsRejected) {
  topology::TopologyBuilder builder;
  builder.set_region({2000.0, 1000.0});
  const auto room = builder.add_cluster("room", {500.0, 500.0});
  builder.add_server("s0", room, 64, 1.8, 3.6,
                     std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0));
  builder.add_base_station("bs-0", {500.0, 500.0}, topology::Band::kLow, 300.0,
                           80e6, 0.8e9, 10.0, {room});
  builder.add_device("near", {500.0, 500.0});
  builder.add_device("far", {1500.0, 500.0}, 1.5,
                     topology::BoundingBox{1400.0, 400.0, 1600.0, 600.0});
  const Instance instance(
      std::make_shared<topology::Topology>(builder.build()),
      SuitabilityMatrix(2, std::vector<double>(1, 1.0)), 1.0);
  SlotState state = test::uniform_state(2, 1);
  state.channel[1][0] = 0.0;
  WcgComponents wcg;
  try {
    wcg.build(instance, state, instance.max_frequencies(), 0);
    FAIL() << "the unservable device was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("device 1 has no coverable "
                                             "station"),
              std::string::npos)
        << error.what();
  }
}

TEST(ComponentMetroScenario, RejectsNonSquareGridAndGaussMarkov) {
  sim::ScenarioConfig config;
  config.metro_districts = 6;  // not a perfect square
  config.devices = 12;
  EXPECT_THROW(sim::Scenario{config}, std::invalid_argument);
  config.metro_districts = 4;
  config.mobility = sim::ScenarioConfig::Mobility::kGaussMarkov;
  EXPECT_THROW(sim::Scenario{config}, std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
