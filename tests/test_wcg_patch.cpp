// Incremental equals from scratch for the patched slot. A WcgComponents kept
// across a sparse state stream keeps the option rows of the devices whose
// inputs did not change, and its engines re-bind only the devices a build
// re-derived; one slot mid-stream moves a device's coverage within its
// coverable list, which keeps the plan. After every build it must be
// indistinguishable from components built fresh for the same state: the
// same options and weights, and the same engine best responses, term
// refreshes and CGBA solves (both selection modes), all bit for bit. The
// same holds when one key field alone changes, after a build that threw,
// for an engine bound two builds back, and for a different Instance at the
// address of the one the rows came from. The suite also pins the covering
// rule of the build's coverage scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/cgba.h"
#include "core/components.h"
#include "core/counters.h"
#include "core/wcg.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/scenario_registry.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

constexpr std::size_t kSlots = 12;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Frequencies random_frequencies(const Instance& instance, util::Rng& rng) {
  Frequencies omega = instance.min_frequencies();
  const Frequencies upper = instance.max_frequencies();
  for (std::size_t n = 0; n < omega.size(); ++n) {
    omega[n] = rng.uniform(omega[n], upper[n]);
  }
  return omega;
}

// `kept` holds `fresh`'s options and weights, bit for bit.
void expect_same_problem(const WcgProblem& kept, const WcgProblem& fresh) {
  ASSERT_EQ(kept.num_devices(), fresh.num_devices());
  ASSERT_EQ(kept.num_resources(), fresh.num_resources());
  ASSERT_EQ(kept.num_options(), fresh.num_options());
  for (std::size_t r = 0; r < fresh.num_resources(); ++r) {
    ASSERT_TRUE(same_bits(kept.weight(r), fresh.weight(r))) << "resource " << r;
  }
  for (std::size_t j = 0; j < fresh.num_devices(); ++j) {
    const std::span<const Option> a = kept.options(j);
    const std::span<const Option> b = fresh.options(j);
    ASSERT_EQ(a.size(), b.size()) << "device " << j;
    for (std::size_t o = 0; o < a.size(); ++o) {
      ASSERT_EQ(a[o].bs, b[o].bs) << "device " << j << " option " << o;
      ASSERT_EQ(a[o].server, b[o].server);
      ASSERT_EQ(a[o].r_compute, b[o].r_compute);
      ASSERT_EQ(a[o].r_access, b[o].r_access);
      ASSERT_EQ(a[o].r_fronthaul, b[o].r_fronthaul);
      ASSERT_TRUE(same_bits(a[o].p_compute, b[o].p_compute));
      ASSERT_TRUE(same_bits(a[o].p_access, b[o].p_access));
      ASSERT_TRUE(same_bits(a[o].p_fronthaul, b[o].p_fronthaul));
    }
  }
}

// `engine`, kept across builds of `kept`, is bound to its current build
// the way cgba_from binds it (patching or in full), then must answer what a
// fresh engine over `fresh` answers: every best response along a random
// walk, the term refreshes of each move, and CGBA in both selection modes.
void expect_same_engine(const WcgProblem& kept, BestResponseEngine& engine,
                        const WcgProblem& fresh, util::Rng& rng) {
  if (!engine.bound_to(kept)) engine.bind(kept);
  const Profile start = fresh.random_profile(rng);
  LoadTracker kept_tracker(kept, start);
  LoadTracker fresh_tracker(fresh, start);
  engine.reset(kept_tracker);
  BestResponseEngine oracle(fresh_tracker);
  for (int step = 0; step < 8; ++step) {
    for (std::size_t j = 0; j < fresh.num_devices(); ++j) {
      const LoadTracker::BestResponse a = engine.best_response(j);
      const LoadTracker::BestResponse b = oracle.best_response(j);
      ASSERT_EQ(a.option_index, b.option_index) << "device " << j;
      ASSERT_TRUE(same_bits(a.cost, b.cost)) << "device " << j;
      ASSERT_TRUE(same_bits(a.current_cost, b.current_cost)) << "device " << j;
    }
    const std::size_t j = rng.index(fresh.num_devices());
    const std::size_t o = rng.index(fresh.options(j).size());
    engine.move(j, o);
    oracle.move(j, o);
    ASSERT_EQ(engine.term_refreshes(), oracle.term_refreshes());
  }
  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig config;
    config.selection = selection;
    const SolveResult a = cgba_from(kept, config, start, engine);
    const SolveResult b = cgba_from(fresh, config, start);
    ASSERT_EQ(a.profile, b.profile);
    ASSERT_TRUE(same_bits(a.cost, b.cost));
    ASSERT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.converged, b.converged);
  }
}

struct World {
  std::string name;
  sim::ScenarioConfig config;
};

std::vector<World> stream_worlds() {
  std::vector<World> worlds;
  for (const std::string preset : {"paper", "churn", "handover"}) {
    sim::ScenarioConfig config;
    sim::apply_scenario_preset(preset, config);
    worlds.push_back({preset, config});
  }
  sim::ScenarioConfig metro;
  metro.metro_districts = 4;
  metro.devices = 400;
  worlds.push_back({"metro-4", metro});
  return worlds;
}

class PatchedStream : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PatchedStream, KeptComponentsEqualFreshOnesAfterEveryBuild) {
  const World world = stream_worlds()[GetParam()];
  SCOPED_TRACE(world.name);
  sim::Scenario scenario(world.config);
  const Instance& instance = scenario.instance();
  std::vector<SlotState> fresh_states;
  for (std::size_t t = 0; t < kSlots; ++t) {
    fresh_states.push_back(scenario.next_state());
  }
  util::Rng rng(170'000 + GetParam());
  std::vector<SlotState> stream = test::sparse_stream(fresh_states, rng);
  // For one slot mid-stream, a device loses one of its covering stations.
  SlotState& moved = stream[kSlots / 2];
  for (std::vector<double>& row : moved.channel) {
    const auto covering = std::ranges::count_if(
        row, [](double h) { return h > 0.0; });
    if (covering < 2) continue;
    *std::ranges::find_if(row, [](double h) { return h > 0.0; }) = 0.0;
    break;
  }
  for (const std::size_t workers : {0, 2}) {
    SCOPED_TRACE(workers);
    WcgComponents kept;
    counters::SolverCounters work;
    for (std::size_t t = 0; t < stream.size(); ++t) {
      SCOPED_TRACE(t);
      const SlotState& state = stream[t];
      const Frequencies omega = random_frequencies(instance, rng);
      {
        const counters::Scope scope(work);
        kept.build(instance, state, omega, workers);
      }
      WcgComponents fresh;
      fresh.build(instance, state, omega, 0);
      ASSERT_EQ(kept.count(), fresh.count());
      for (std::size_t c = 0; c < fresh.count(); ++c) {
        ASSERT_TRUE(std::ranges::equal(kept.devices(c), fresh.devices(c)));
        ASSERT_TRUE(std::ranges::equal(kept.stations(c), fresh.stations(c)));
        ASSERT_TRUE(std::ranges::equal(kept.servers(c), fresh.servers(c)));
        expect_same_problem(kept.problem(c), fresh.problem(c));
        expect_same_engine(kept.problem(c), kept.engine(c), fresh.problem(c),
                           rng);
        if (HasFatalFailure()) return;
      }
    }
    // The plan is the instance's: the mid-stream coverage change kept it.
    EXPECT_EQ(work.component_finds, 1u);
    EXPECT_EQ(work.component_reuses, kSlots - 1);
    // Every build re-derived or kept each device once, and the stream's
    // first build derived them all; after it, most rows were kept.
    const std::size_t devices = instance.num_devices();
    EXPECT_GE(work.arena_device_builds + work.arena_device_reuses,
              kSlots * devices);
    EXPECT_GE(work.arena_device_builds, devices);
    EXPECT_GT(work.arena_device_reuses, (kSlots - 1) * devices * 9 / 10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, PatchedStream, ::testing::Range<std::size_t>(0, 4),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = stream_worlds()[info.param].name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A 20-device paper world and three states: s0, then two sparse steps.
struct SmallWorld {
  sim::Scenario scenario;
  std::vector<SlotState> states;

  explicit SmallWorld(std::uint64_t seed)
      : scenario([] {
          sim::ScenarioConfig config;
          config.devices = 20;
          return config;
        }()) {
    std::vector<SlotState> fresh;
    for (int t = 0; t < 3; ++t) fresh.push_back(scenario.next_state());
    util::Rng rng(seed);
    states = test::sparse_stream(fresh, rng);
  }
  [[nodiscard]] const Instance& instance() const {
    return scenario.instance();
  }
};

// The one-subset layout rebuild() builds over.
struct IdentitySubset {
  std::vector<std::uint32_t> devices;
  std::vector<std::uint32_t> stations;
  std::vector<std::uint32_t> servers;

  explicit IdentitySubset(const Instance& instance) {
    for (std::uint32_t i = 0; i < instance.num_devices(); ++i) {
      devices.push_back(i);
    }
    for (std::uint32_t k = 0; k < instance.num_base_stations(); ++k) {
      stations.push_back(k);
    }
    for (std::uint32_t s = 0; s < instance.num_servers(); ++s) {
      servers.push_back(s);
    }
  }
  [[nodiscard]] WcgSubset subset() const {
    WcgSubset out;
    out.devices = devices;
    out.stations = stations;
    out.servers = servers;
    out.station_local = stations;
    out.server_local = servers;
    return out;
  }
};

// After a build that threw, the next build re-derives every row (its keys
// were forgotten), and an engine bound before the failure binds in full and
// matches a fresh one.
TEST(PatchedBuild, AThrowingBuildForgetsEveryKey) {
  const SmallWorld world(180'000);
  const Instance& instance = world.instance();
  const Frequencies omega = instance.max_frequencies();
  StationTables tables;
  tables.refresh(instance);
  const IdentitySubset all(instance);

  WcgProblem problem;
  BestResponseEngine engine;
  util::Rng rng(1);
  problem.build(instance, world.states[1], omega, all.subset(), tables);
  engine.bind(problem);

  SlotState blacked_out = world.states[2];
  for (double& h : blacked_out.channel[7]) h = 0.0;
  EXPECT_THROW(
      problem.build(instance, blacked_out, omega, all.subset(), tables),
      std::invalid_argument);
  EXPECT_EQ(problem.generation(), 0u);
  counters::SolverCounters work;
  {
    const counters::Scope scope(work);
    problem.build(instance, world.states[2], omega, all.subset(), tables);
  }
  EXPECT_EQ(work.arena_device_builds, instance.num_devices());
  EXPECT_EQ(work.arena_device_reuses, 0u);
  EXPECT_EQ(problem.patched_from(), 0u);
  const WcgProblem fresh(instance, world.states[2], omega);
  expect_same_problem(problem, fresh);
  expect_same_engine(problem, engine, fresh, rng);
}

// A subset holds every coverable station and reachable server of its
// devices: one that misses either is rejected when it is laid out.
TEST(PatchedBuild, ASubsetMissingAStationOrServerIsRejected) {
  const SmallWorld world(230'000);
  const Instance& instance = world.instance();
  StationTables tables;
  tables.refresh(instance);
  for (const bool drop_station : {true, false}) {
    IdentitySubset partial(instance);
    (drop_station ? partial.stations : partial.servers).pop_back();
    WcgProblem problem;
    try {
      problem.build(instance, world.states[0], instance.max_frequencies(),
                    partial.subset(), tables);
      ADD_FAILURE() << "a partial subset was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("outside the subset"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(problem.generation(), 0u);
  }
}

// A build that re-derives no row keeps its generation, so an engine bound
// to it stays bound; one that patches records what it patched.
TEST(PatchedBuild, AnUnchangedBuildKeepsItsGeneration) {
  const SmallWorld world(190'000);
  const Instance& instance = world.instance();
  util::Rng rng(2);
  WcgProblem problem(instance, world.states[0], instance.min_frequencies());
  BestResponseEngine engine;
  engine.bind(problem);
  const std::uint64_t first = problem.generation();
  counters::SolverCounters work;
  {
    const counters::Scope scope(work);
    problem.rebuild(instance, world.states[0], instance.max_frequencies());
  }
  EXPECT_EQ(problem.generation(), first);
  EXPECT_TRUE(engine.bound_to(problem));
  EXPECT_EQ(work.arena_device_builds, 0u);
  EXPECT_EQ(work.arena_device_reuses, instance.num_devices());
  expect_same_engine(
      problem, engine,
      WcgProblem(instance, world.states[0], instance.max_frequencies()), rng);

  problem.rebuild(instance, world.states[1], instance.max_frequencies());
  EXPECT_NE(problem.generation(), first);
  EXPECT_EQ(problem.patched_from(), first);
  EXPECT_FALSE(problem.changed_devices().empty());
  EXPECT_LT(problem.changed_devices().size(), instance.num_devices());
}

// Every input a row is derived from re-derives that row alone: f, d, one
// covering station's h, and the set of covering stations. f moves on the
// last device, the last one a full bind visits.
TEST(PatchedBuild, EachKeyFieldAloneRederivesItsRow) {
  const SmallWorld world(220'000);
  const Instance& instance = world.instance();
  const Frequencies omega = instance.max_frequencies();
  util::Rng rng(5);
  SlotState state = world.states[0];
  WcgProblem problem(instance, state, omega);
  BestResponseEngine engine;
  engine.bind(problem);
  const auto covering = [&state](std::size_t i) {
    std::vector<std::size_t> stations;
    for (std::size_t k = 0; k < state.channel[i].size(); ++k) {
      if (state.channel[i][k] > 0.0) stations.push_back(k);
    }
    return stations;
  };
  const auto last = static_cast<std::uint32_t>(instance.num_devices() - 1);
  std::uint32_t moved = 2;  // a device that can lose a covering station
  while (covering(moved).size() < 2) ++moved;
  ASSERT_LT(moved, last);
  state.data_bits[0] *= 1.5;
  state.channel[1][covering(1).front()] *= 1.5;
  state.channel[moved][covering(moved).back()] = 0.0;
  state.task_cycles[last] *= 1.5;

  counters::SolverCounters work;
  {
    const counters::Scope scope(work);
    problem.rebuild(instance, state, omega);
  }
  EXPECT_EQ(work.arena_device_builds, 4u);
  EXPECT_EQ(work.arena_device_reuses, instance.num_devices() - 4);
  const std::vector<std::uint32_t> changed(problem.changed_devices().begin(),
                                           problem.changed_devices().end());
  EXPECT_EQ(changed, (std::vector<std::uint32_t>{0, 1, moved, last}));
  const WcgProblem fresh(instance, state, omega);
  expect_same_problem(problem, fresh);
  expect_same_engine(problem, engine, fresh, rng);

  // The same device again, alone: the engine's previous bind touched it.
  state.task_cycles[last] *= 1.5;
  problem.rebuild(instance, state, omega);
  ASSERT_EQ(problem.changed_devices().size(), 1u);
  const WcgProblem fresh_again(instance, state, omega);
  expect_same_problem(problem, fresh_again);
  expect_same_engine(problem, engine, fresh_again, rng);
}

// An engine bound two builds back cannot patch from the latest build's
// changes alone: it binds in full and matches a fresh engine.
TEST(PatchedBuild, AnEngineBoundTwoBuildsBackBindsInFull) {
  const SmallWorld world(200'000);
  const Instance& instance = world.instance();
  const Frequencies omega = instance.max_frequencies();
  util::Rng rng(3);
  WcgProblem problem(instance, world.states[0], omega);
  BestResponseEngine engine;
  engine.bind(problem);
  const std::uint64_t bound = problem.generation();
  problem.rebuild(instance, world.states[1], omega);
  problem.rebuild(instance, world.states[2], omega);
  ASSERT_NE(problem.patched_from(), 0u);
  ASSERT_NE(problem.patched_from(), bound);
  EXPECT_FALSE(engine.bound_to(problem));
  expect_same_engine(problem, engine,
                     WcgProblem(instance, world.states[2], omega), rng);
}

// Identity is never an address: another Instance of the same shape,
// emplaced where the first one lived, re-derives every row.
TEST(PatchedBuild, AnotherInstanceAtTheSameAddressRederivesEveryRow) {
  util::Rng rng(210'000);
  const test::GroupedWorld world = test::random_grouped_world(rng);
  const SlotState state = test::grouped_state(world, rng);
  std::optional<Instance> instance;
  instance.emplace(Instance::random(world.topology, rng, 1.0));
  const Instance* first = &*instance;
  WcgProblem problem(*instance, state, instance->max_frequencies());
  BestResponseEngine engine;
  engine.bind(problem);

  instance.emplace(Instance::random(world.topology, rng, 1.0));
  ASSERT_EQ(&*instance, first);
  counters::SolverCounters work;
  {
    const counters::Scope scope(work);
    problem.rebuild(*instance, state, instance->max_frequencies());
  }
  EXPECT_EQ(work.arena_device_builds, instance->num_devices());
  EXPECT_EQ(work.arena_device_reuses, 0u);
  const WcgProblem fresh(*instance, state, instance->max_frequencies());
  expect_same_problem(problem, fresh);
  expect_same_engine(problem, engine, fresh, rng);
}

// The build's coverage scan applies one rule: h > 0 covers, and a NaN or
// infinite h is rejected naming the device, the station and the slot —
// before the slot's first P2-A draw.
TEST(CoveringRule, ANonFiniteChannelGainIsRejectedByEveryBuild) {
  const Instance instance = test::tiny_instance(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    SlotState state = test::uniform_state(2, 2);
    state.slot = 7;
    state.channel[0][1] = 0.0;
    state.channel[1][1] = bad;
    try {
      const WcgProblem problem(instance, state, instance.max_frequencies());
      ADD_FAILURE() << "WcgProblem accepted h=" << bad;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("device 1 "), std::string::npos) << message;
      EXPECT_NE(message.find("station 1 "), std::string::npos) << message;
      EXPECT_NE(message.find("slot 7"), std::string::npos) << message;
    }
    WcgComponents components;
    EXPECT_THROW(
        components.build(instance, state, instance.max_frequencies(), 0),
        std::invalid_argument);

    const auto policy = sim::make_policy("dpp-bdma", instance, {});
    util::Rng rng(4);
    util::Rng before = rng;
    EXPECT_THROW((void)policy->step(state, rng), std::invalid_argument);
    EXPECT_TRUE(rng.engine() == before.engine());
  }
}

}  // namespace
}  // namespace eotora::core
