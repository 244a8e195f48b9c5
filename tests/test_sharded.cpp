// Property/fuzz coverage for the sharded P2-A layer (core/sharded +
// WcgProblem::components / extract_component):
//   - the union-find component finder against a naive label-propagation
//     oracle over 25 random multi-component instances;
//   - extract_component repacking each component bit-for-bit;
//   - cgba_sharded_from == cgba_from and mcba_sharded == mcba EXACTLY
//     (EXPECT_EQ on doubles) — the paper-figure reproducibility guarantee
//     extends to the sharded drivers for every worker count;
//   - per-shard counters partitioning the solve's flushed totals;
//   - subproblems extracted once per build and reused across solves:
//     sharded BDMA over several metro slots == global BDMA, and a workspace
//     shared by alternating problems == a fresh workspace, call by call.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bdma.h"
#include "core/cgba.h"
#include "core/counters.h"
#include "core/mcba.h"
#include "core/sharded.h"
#include "core/wcg.h"
#include "sim/scenario.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

using test::GroupedWorld;
using test::grouped_state;
using test::random_grouped_world;

// Naive component oracle: label propagation to a fixpoint over the
// device + resource node set — a different algorithm from the path-halving
// union-find sweep in WcgProblem::components(). Components are renumbered
// densely in order of first device appearance, matching the contract.
struct OracleComponents {
  std::size_t count = 0;
  std::vector<std::uint32_t> device_component;
  std::vector<std::uint32_t> resource_component;  // kNone if untouched
};

OracleComponents brute_force_components(const WcgProblem& problem) {
  const std::size_t devices = problem.num_devices();
  const std::size_t resources = problem.num_resources();
  std::vector<std::size_t> device_label(devices);
  std::vector<std::size_t> resource_label(resources);
  std::vector<bool> touched(resources, false);
  for (std::size_t i = 0; i < devices; ++i) device_label[i] = i;
  for (std::size_t r = 0; r < resources; ++r) resource_label[r] = devices + r;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < devices; ++i) {
      for (const Option& opt : problem.options(i)) {
        touched[opt.r_compute] = true;
        touched[opt.r_access] = true;
        touched[opt.r_fronthaul] = true;
        const std::size_t m =
            std::min({device_label[i], resource_label[opt.r_compute],
                      resource_label[opt.r_access],
                      resource_label[opt.r_fronthaul]});
        for (std::size_t* label :
             {&device_label[i], &resource_label[opt.r_compute],
              &resource_label[opt.r_access],
              &resource_label[opt.r_fronthaul]}) {
          if (*label != m) {
            *label = m;
            changed = true;
          }
        }
      }
    }
  }
  OracleComponents oracle;
  oracle.device_component.assign(devices, WcgComponents::kNone);
  oracle.resource_component.assign(resources, WcgComponents::kNone);
  std::vector<std::uint32_t> label_component(devices + resources,
                                             WcgComponents::kNone);
  for (std::size_t i = 0; i < devices; ++i) {
    if (label_component[device_label[i]] == WcgComponents::kNone) {
      label_component[device_label[i]] =
          static_cast<std::uint32_t>(oracle.count++);
    }
    oracle.device_component[i] = label_component[device_label[i]];
  }
  for (std::size_t r = 0; r < resources; ++r) {
    if (!touched[r]) continue;
    oracle.resource_component[r] = label_component[resource_label[r]];
  }
  return oracle;
}

class ShardedFuzz : public ::testing::TestWithParam<int> {};

// components() against the label-propagation oracle, plus internal
// consistency of the CSR membership lists and resource_local.
TEST_P(ShardedFuzz, ComponentFinderMatchesBruteForceOracle) {
  util::Rng rng(110'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  const WcgComponents& split = problem.components();
  const OracleComponents oracle = brute_force_components(problem);
  ASSERT_EQ(split.count, oracle.count);
  ASSERT_GE(split.count, 1u);
  for (std::size_t i = 0; i < devices; ++i) {
    EXPECT_EQ(split.device_component[i], oracle.device_component[i])
        << "device " << i;
  }
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    EXPECT_EQ(split.resource_component[r], oracle.resource_component[r])
        << "resource " << r;
  }

  // Membership lists are an ascending partition consistent with the maps,
  // and resource_local is each resource's rank inside its component's run.
  std::size_t total_devices = 0;
  std::size_t total_resources = 0;
  for (std::size_t c = 0; c < split.count; ++c) {
    const auto members = split.devices_of(c);
    ASSERT_FALSE(members.empty()) << "component " << c;
    for (std::size_t t = 0; t < members.size(); ++t) {
      EXPECT_EQ(split.device_component[members[t]], c);
      if (t > 0) { EXPECT_LT(members[t - 1], members[t]); }
    }
    total_devices += members.size();
    const auto resources = split.resources_of(c);
    for (std::size_t t = 0; t < resources.size(); ++t) {
      EXPECT_EQ(split.resource_component[resources[t]], c);
      EXPECT_EQ(split.resource_local[resources[t]], t);
      if (t > 0) { EXPECT_LT(resources[t - 1], resources[t]); }
    }
    total_resources += resources.size();
  }
  EXPECT_EQ(total_devices, devices);
  std::size_t touched = 0;
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    if (split.resource_component[r] != WcgComponents::kNone) ++touched;
  }
  EXPECT_EQ(total_resources, touched);
}

// extract_component repacks every component bit-for-bit: same option
// magnitudes in the same per-device order, same resource weights under the
// id remap, and a cost evaluation that reproduces the parent's arithmetic.
TEST_P(ShardedFuzz, ExtractComponentRepacksBitForBit) {
  util::Rng rng(120'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  const WcgComponents& split = problem.components();
  WcgProblem sub;
  for (std::size_t c = 0; c < split.count; ++c) {
    problem.extract_component(split, c, sub);
    const auto members = split.devices_of(c);
    ASSERT_EQ(sub.num_devices(), members.size());
    ASSERT_EQ(sub.num_resources(), split.resources_of(c).size());
    for (std::size_t local = 0; local < members.size(); ++local) {
      const auto global_options = problem.options(members[local]);
      const auto local_options = sub.options(local);
      ASSERT_EQ(local_options.size(), global_options.size());
      for (std::size_t o = 0; o < global_options.size(); ++o) {
        EXPECT_EQ(local_options[o].p_compute, global_options[o].p_compute);
        EXPECT_EQ(local_options[o].p_access, global_options[o].p_access);
        EXPECT_EQ(local_options[o].p_fronthaul,
                  global_options[o].p_fronthaul);
        EXPECT_EQ(local_options[o].r_compute,
                  split.resource_local[global_options[o].r_compute]);
        EXPECT_EQ(local_options[o].r_access,
                  split.resource_local[global_options[o].r_access]);
        EXPECT_EQ(local_options[o].r_fronthaul,
                  split.resource_local[global_options[o].r_fronthaul]);
      }
    }
    for (const std::uint32_t r : split.resources_of(c)) {
      EXPECT_EQ(sub.weight(split.resource_local[r]), problem.weight(r));
    }
  }
}

// The sharded CGBA driver is bit-identical to the global solve under both
// selection rules, and its own bits do not depend on the worker count.
TEST_P(ShardedFuzz, CgbaShardedEqualsGlobalBothSelectionModes) {
  util::Rng rng(130'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig config;
    config.selection = selection;
    const unsigned seed = 140'000 + GetParam();
    util::Rng rng_global(seed);
    util::Rng rng_one(seed);
    util::Rng rng_eight(seed);
    const SolveResult global = cgba(problem, config, rng_global);
    const ShardedResult one = cgba_sharded_from(
        problem, config, problem.random_profile(rng_one), 1);
    const ShardedResult eight = cgba_sharded_from(
        problem, config, problem.random_profile(rng_eight), 8);
    ASSERT_GE(one.shards, 1u);
    ASSERT_EQ(one.shards, problem.components().count);
    for (const ShardedResult* sharded : {&one, &eight}) {
      ASSERT_EQ(sharded->result.profile, global.profile);
      ASSERT_EQ(sharded->result.cost, global.cost);  // exact bits
      ASSERT_EQ(sharded->result.iterations, global.iterations);
      ASSERT_EQ(sharded->result.converged, global.converged);
    }
    ASSERT_EQ(one.shards, eight.shards);
    ASSERT_EQ(one.shard_counters.size(), eight.shard_counters.size());
    for (std::size_t c = 0; c < one.shard_counters.size(); ++c) {
      EXPECT_TRUE(one.shard_counters[c] == eight.shard_counters[c]);
    }
  }
}

// Same contract for MCBA: mcba() is the workers==1 sharded driver, and the
// chain seeds are drawn during planning, so the bits cannot depend on the
// worker count.
TEST_P(ShardedFuzz, McbaShardedEqualsGlobal) {
  util::Rng rng(150'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  McbaConfig config;
  config.iterations = 400;
  const unsigned seed = 160'000 + GetParam();
  util::Rng rng_global(seed);
  util::Rng rng_eight(seed);
  const SolveResult global = mcba(problem, config, rng_global);
  const ShardedResult eight = mcba_sharded(problem, config, rng_eight, 8);
  ASSERT_EQ(eight.shards, problem.components().count);
  ASSERT_EQ(eight.result.profile, global.profile);
  ASSERT_EQ(eight.result.cost, global.cost);  // exact bits
  ASSERT_EQ(eight.result.iterations, global.iterations);
  ASSERT_EQ(eight.result.converged, global.converged);
}

// The per-shard counters partition exactly the totals the sharded solve
// flushes into the ambient sink for the in-shard fields.
TEST_P(ShardedFuzz, ShardCountersSumToFlushedTotals) {
  util::Rng rng(170'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  counters::SolverCounters observed;
  ShardedResult sharded;
  {
    const counters::Scope scope(observed);
    util::Rng solve_rng(180'000 + GetParam());
    sharded =
        cgba_sharded_from(problem, {}, problem.random_profile(solve_rng), 4);
  }
  counters::SolverCounters summed;
  for (const counters::SolverCounters& shard : sharded.shard_counters) {
    summed.merge(shard);
  }
  EXPECT_EQ(summed.cgba_rounds, observed.cgba_rounds);
  EXPECT_EQ(summed.cgba_moves, observed.cgba_moves);
  EXPECT_EQ(summed.mcba_proposals, observed.mcba_proposals);
  EXPECT_EQ(summed.mcba_accepted, observed.mcba_accepted);
  EXPECT_EQ(summed.engine_rebuilds, observed.engine_rebuilds);
  EXPECT_EQ(summed.engine_term_refreshes, observed.engine_term_refreshes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFuzz, ::testing::Range(0, 25));

// The paper scenario's low-band stations cover the whole region and reach
// every room, so its WCG is one component — the sharded driver must agree
// and degrade to the global solve (this is why the golden fixtures are
// untouched by sharding).
TEST(ShardedPaperScenario, SingleComponentMatchesGlobal) {
  sim::ScenarioConfig config;
  config.devices = 20;
  sim::Scenario scenario(config);
  const SlotState state = scenario.next_state();
  const Instance& instance = scenario.instance();
  const WcgProblem problem(instance, state, instance.max_frequencies());
  ASSERT_EQ(problem.components().count, 1u);

  util::Rng rng_global(5);
  util::Rng rng_sharded(5);
  const SolveResult global = cgba(problem, {}, rng_global);
  const ShardedResult sharded =
      cgba_sharded_from(problem, {}, problem.random_profile(rng_sharded), 8);
  ASSERT_EQ(sharded.shards, 1u);
  ASSERT_EQ(sharded.result.profile, global.profile);
  ASSERT_EQ(sharded.result.cost, global.cost);
}

// Metro scenarios decompose into exactly one component per district, and
// the confinement boxes keep it that way across slots.
TEST(ShardedMetroScenario, OneComponentPerDistrictAcrossSlots) {
  sim::ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 32;
  config.servers_per_cluster = 2;
  sim::Scenario scenario(config);
  const Instance& instance = scenario.instance();
  WcgProblem problem;
  for (int slot = 0; slot < 5; ++slot) {
    const SlotState state = scenario.next_state();
    problem.rebuild(instance, state, instance.max_frequencies());
    ASSERT_EQ(problem.components().count, config.metro_districts)
        << "slot " << slot;
  }
}

// A 4-district metro scenario small enough for bit-for-bit comparisons.
sim::ScenarioConfig small_metro_config() {
  sim::ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 32;
  config.servers_per_cluster = 2;
  return config;
}

// cgba_sharded_from checks the initial profile's size as cgba_from does,
// instead of ignoring extra entries or scattering entries that do not
// exist into the shards.
TEST(ShardedMetroScenario, ShardedFromRejectsWrongSizedInitialProfile) {
  sim::Scenario scenario(small_metro_config());
  const Instance& instance = scenario.instance();
  const WcgProblem problem(instance, scenario.next_state(),
                           instance.max_frequencies());
  ASSERT_GT(problem.components().count, 1u);
  for (const std::size_t size :
       {problem.num_devices() + 5, problem.num_devices() - 5}) {
    const Profile initial(size, 0);
    EXPECT_THROW((void)cgba_from(problem, {}, initial), std::invalid_argument)
        << size << " entries";
    EXPECT_THROW((void)cgba_sharded_from(problem, {}, initial, 2),
                 std::invalid_argument)
        << size << " entries";
  }
}

// build_id() names one rebuild: fresh for every rebuild, kept by copies and
// by set_frequencies, and 0 on problems no successful rebuild produced — so
// a cached extraction can only match the build it was taken from.
TEST(ShardedMetroScenario, BuildIdIdentifiesOneRebuild) {
  EXPECT_EQ(WcgProblem{}.build_id(), 0u);
  sim::Scenario scenario(small_metro_config());
  const Instance& instance = scenario.instance();
  WcgProblem problem(instance, scenario.next_state(),
                     instance.max_frequencies());
  const std::uint64_t first = problem.build_id();
  EXPECT_NE(first, 0u);
  const WcgProblem copy = problem;
  EXPECT_EQ(copy.build_id(), first);
  problem.set_frequencies(instance, instance.min_frequencies());
  EXPECT_EQ(problem.build_id(), first);

  problem.rebuild(instance, scenario.next_state(), instance.max_frequencies());
  EXPECT_NE(problem.build_id(), first);
  EXPECT_NE(problem.build_id(), 0u);
  WcgProblem sub;
  problem.extract_component(problem.components(), 0, sub);
  EXPECT_EQ(sub.build_id(), 0u);

  SlotState blackout = scenario.next_state();
  for (double& h : blackout.channel[0]) h = 0.0;
  EXPECT_THROW(
      problem.rebuild(instance, blackout, instance.max_frequencies()),
      std::invalid_argument);
  EXPECT_EQ(problem.build_id(), 0u);
}

// Sharded BDMA on one persistent workspace extracts each component once per
// slot and, for the other z - 1 iterations, reuses it with the weights
// re-copied from the frequencies P2-B produced. Every slot must still equal
// the global BDMA bit for bit, under both CGBA selection rules and MCBA
// (whose unsharded mcba() extracts afresh on every call).
TEST(ShardedMetroScenario, BdmaReusingSubproblemsEqualsGlobal) {
  const sim::ScenarioConfig scenario_config = small_metro_config();
  const std::size_t components = scenario_config.metro_districts;
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kIterations = 5;
  struct Arm {
    const char* name;
    P2aSolverKind solver;
    CgbaSelection selection;
  };
  for (const Arm arm :
       {Arm{"cgba max-gap", P2aSolverKind::kCgba, CgbaSelection::kMaxGap},
        Arm{"cgba round-robin", P2aSolverKind::kCgba,
            CgbaSelection::kRoundRobin},
        Arm{"mcba", P2aSolverKind::kMcba, CgbaSelection::kMaxGap}}) {
    SCOPED_TRACE(arm.name);
    sim::Scenario scenario(scenario_config);
    const Instance& instance = scenario.instance();
    BdmaConfig global_config;
    global_config.iterations = kIterations;
    global_config.solver = arm.solver;
    global_config.cgba.selection = arm.selection;
    global_config.mcba.iterations = 400;
    BdmaConfig sharded_config = global_config;
    sharded_config.cgba.shard_workers = 3;
    sharded_config.mcba.shard_workers = 3;

    BdmaWorkspace global_workspace;
    BdmaWorkspace sharded_workspace;
    util::Rng global_rng(41);
    util::Rng sharded_rng(41);
    counters::SolverCounters global_counters;
    counters::SolverCounters sharded_counters;
    bool weights_moved = false;
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const SlotState state = scenario.next_state();
      // A growing backlog makes P2-B trade energy against latency, so the
      // frequencies move between iterations.
      const double q = 40.0 * static_cast<double>(slot);
      BdmaResult global;
      BdmaResult sharded;
      {
        const counters::Scope scope(global_counters);
        global = bdma(instance, state, 100.0, q, global_config, global_rng,
                      global_workspace);
      }
      {
        const counters::Scope scope(sharded_counters);
        sharded = bdma(instance, state, 100.0, q, sharded_config,
                       sharded_rng, sharded_workspace);
      }
      ASSERT_EQ(sharded.assignment.bs_of, global.assignment.bs_of) << slot;
      ASSERT_EQ(sharded.assignment.server_of, global.assignment.server_of)
          << slot;
      ASSERT_EQ(sharded.frequencies, global.frequencies) << slot;
      ASSERT_EQ(sharded.objective, global.objective) << slot;  // exact bits
      ASSERT_EQ(sharded.latency, global.latency) << slot;
      ASSERT_EQ(sharded.theta, global.theta) << slot;
      ASSERT_EQ(sharded.objective_history, global.objective_history) << slot;
      ASSERT_EQ(sharded.p2a_iterations, global.p2a_iterations) << slot;
      ASSERT_EQ(sharded_rng.engine(), global_rng.engine()) << slot;

      // The last iteration solved at P2-B's frequencies, not at Ω^L.
      const WcgProblem at_min(instance, state, instance.min_frequencies());
      const std::span<const double> last = sharded_workspace.problem.weights();
      const std::span<const double> first = at_min.weights();
      weights_moved = weights_moved || !std::equal(last.begin(), last.end(),
                                                   first.begin(), first.end());
    }
    EXPECT_TRUE(weights_moved);
    EXPECT_EQ(sharded_counters.shard_extractions, kSlots * components);
    EXPECT_EQ(sharded_counters.shard_extraction_reuses,
              kSlots * (kIterations - 1) * components);
    const std::uint64_t global_extractions =
        arm.solver == P2aSolverKind::kMcba
            ? kSlots * kIterations * components
            : 0;
    EXPECT_EQ(global_counters.shard_extractions, global_extractions);
    EXPECT_EQ(global_counters.shard_extraction_reuses, 0u);
  }
}

// One workspace handed two problems alternately — one of them again after a
// frequency change, the other after a rebuild — answers every call exactly
// as a fresh workspace does: cached subproblems are keyed on the build, not
// on what the workspace saw last.
TEST(ShardedMetroScenario, WorkspaceAlternatingProblemsEqualsFreshWorkspace) {
  sim::ScenarioConfig config_b = small_metro_config();
  config_b.seed += 1;
  config_b.devices = 40;
  sim::Scenario scenario_a(small_metro_config());
  sim::Scenario scenario_b(config_b);
  const Instance& instance_a = scenario_a.instance();
  const Instance& instance_b = scenario_b.instance();
  WcgProblem a(instance_a, scenario_a.next_state(),
               instance_a.min_frequencies());
  WcgProblem b(instance_b, scenario_b.next_state(),
               instance_b.max_frequencies());

  struct Call {
    WcgProblem* problem;
    bool cgba_reuses;  // the CGBA call finds this build in the workspace
  };
  const std::vector<Call> calls = {{&a, false}, {&b, false}, {&a, false},
                                   {&a, true},  {&b, false}, {&b, false}};
  ShardedWorkspace shared;
  McbaConfig mcba_config;
  mcba_config.iterations = 300;
  for (std::size_t t = 0; t < calls.size(); ++t) {
    SCOPED_TRACE(t);
    WcgProblem& problem = *calls[t].problem;
    if (t == 3) a.set_frequencies(instance_a, instance_a.max_frequencies());
    if (t == 5) {
      b.rebuild(instance_b, scenario_b.next_state(),
                instance_b.min_frequencies());
    }
    const std::size_t count = problem.components().count;
    ASSERT_GT(count, 1u);

    counters::SolverCounters cgba_counters;
    ShardedResult reused;
    {
      const counters::Scope scope(cgba_counters);
      util::Rng rng(500 + t);
      reused = cgba_sharded_from(problem, {}, problem.random_profile(rng), 2,
                                 &shared);
    }
    util::Rng fresh_rng(500 + t);
    const ShardedResult fresh = cgba_sharded_from(
        problem, {}, problem.random_profile(fresh_rng), 2);
    ASSERT_EQ(reused.result.profile, fresh.result.profile);
    ASSERT_EQ(reused.result.cost, fresh.result.cost);  // exact bits
    ASSERT_EQ(reused.result.iterations, fresh.result.iterations);
    ASSERT_EQ(reused.shard_counters.size(), fresh.shard_counters.size());
    for (std::size_t c = 0; c < count; ++c) {
      EXPECT_TRUE(reused.shard_counters[c] == fresh.shard_counters[c]) << c;
    }
    EXPECT_EQ(cgba_counters.shard_extractions,
              calls[t].cgba_reuses ? 0u : count);
    EXPECT_EQ(cgba_counters.shard_extraction_reuses,
              calls[t].cgba_reuses ? count : 0u);

    // MCBA right after, on the same build: always a reuse.
    counters::SolverCounters mcba_counters;
    ShardedResult chained;
    {
      const counters::Scope scope(mcba_counters);
      util::Rng rng(600 + t);
      chained = mcba_sharded(problem, mcba_config, rng, 2, &shared);
    }
    util::Rng fresh_mcba_rng(600 + t);
    const ShardedResult fresh_mcba =
        mcba_sharded(problem, mcba_config, fresh_mcba_rng, 2);
    ASSERT_EQ(chained.result.profile, fresh_mcba.result.profile);
    ASSERT_EQ(chained.result.cost, fresh_mcba.result.cost);
    EXPECT_EQ(mcba_counters.shard_extractions, 0u);
    EXPECT_EQ(mcba_counters.shard_extraction_reuses, count);
  }
}

TEST(ShardedMetroScenario, RejectsNonSquareGridAndGaussMarkov) {
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
