// Deterministic work pins: the exact SolverCounters a fixed dpp-bdma drain
// spends, on the paper scenario and on a multi-component metro world.
//
// The counters are integers that depend only on the scenario, the policy
// parameters and the rng seed — never on the machine, the worker count or
// the kernel backend — so a change in solver work (a lost warm start, an
// extra rebuild, a slower best-response path) fails here as an exact
// count, where a timing would only drift. Like a golden fixture, these
// numbers move only with a CHANGES.md note saying why (docs/TESTING.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/counters.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/state_source.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::sim {
namespace {

constexpr std::size_t kSlots = 24;

struct PinnedWork {
  std::uint64_t cgba_rounds;
  std::uint64_t cgba_moves;
  std::uint64_t engine_rebuilds;
  std::uint64_t engine_term_refreshes;
  std::uint64_t bdma_iterations;
  std::uint64_t arena_device_builds;
  std::uint64_t arena_device_reuses;
};

// dpp-bdma at the paper's z = 5 and V = 100, drained over `source` with
// run_policy's default rng seed.
core::counters::SolverCounters drain_dpp_bdma(const core::Instance& instance,
                                              StateSource& source,
                                              std::size_t shard_workers) {
  PolicyParams params;
  params.v = 100.0;
  params.bdma_iterations = 5;
  params.shard_workers = shard_workers;
  const auto policy = make_policy("dpp-bdma", instance, params);
  return run_policy(*policy, source).counters;
}

// The batch drain: kSlots full states, every device's f_i new each slot.
core::counters::SolverCounters drain_dpp_bdma(const ScenarioConfig& config,
                                              std::size_t shard_workers) {
  ScenarioSource source(config, kSlots);
  return drain_dpp_bdma(source.instance(), source, shard_workers);
}

// The sparse drain: test::sparse_stream over the same kSlots states, the
// shape of the serve-sparse benchmark's deltas (~5% of the devices take new
// inputs a slot, ~1% leave or rejoin).
core::counters::SolverCounters drain_sparse_dpp_bdma(
    const ScenarioConfig& config, std::size_t shard_workers) {
  Scenario scenario(config);
  std::vector<core::SlotState> fresh;
  for (std::size_t t = 0; t < kSlots; ++t) {
    fresh.push_back(scenario.next_state());
  }
  util::Rng rng(23);
  const auto states = test::sparse_stream(fresh, rng);
  MaterializedSource source(states);
  return drain_dpp_bdma(scenario.instance(), source, shard_workers);
}

void expect_work(const core::counters::SolverCounters& actual,
                 const PinnedWork& pinned) {
  EXPECT_EQ(actual.cgba_rounds, pinned.cgba_rounds);
  EXPECT_EQ(actual.cgba_moves, pinned.cgba_moves);
  EXPECT_EQ(actual.engine_rebuilds, pinned.engine_rebuilds);
  EXPECT_EQ(actual.engine_term_refreshes, pinned.engine_term_refreshes);
  EXPECT_EQ(actual.bdma_iterations, pinned.bdma_iterations);
  EXPECT_EQ(actual.arena_device_builds, pinned.arena_device_builds);
  EXPECT_EQ(actual.arena_device_reuses, pinned.arena_device_reuses);
}

TEST(SolverWork, PaperScenarioDppBdmaSpendsPinnedWork) {
  const ScenarioConfig config;  // the paper scenario, 100 devices
  ASSERT_EQ(config.devices, 100u);
  expect_work(drain_dpp_bdma(config, 0),
              {.cgba_rounds = 894,
               .cgba_moves = 774,
               .engine_rebuilds = 24,
               .engine_term_refreshes = 268082,
               .bdma_iterations = 120,
               .arena_device_builds = 2400,
               .arena_device_reuses = 0});
}

// Over the sparse stream, a build keeps the option rows of every device
// whose inputs did not change: 2,179 of the 2,400 rows (91%; 95% after the
// first slot's full build), and the engine re-binds once per slot.
TEST(SolverWork, PaperScenarioSparseStreamKeepsMostRows) {
  const ScenarioConfig config;
  expect_work(drain_sparse_dpp_bdma(config, 0),
              {.cgba_rounds = 460,
               .cgba_moves = 340,
               .engine_rebuilds = 24,
               .engine_term_refreshes = 108104,
               .bdma_iterations = 120,
               .arena_device_builds = 221,
               .arena_device_reuses = 2179});
}

// A 4-district metro world solves one component per district; the work is
// the same whichever number of workers the components run on (0 and 1 run
// them inline).
TEST(SolverWork, MetroDppBdmaSpendsPinnedWorkOnEveryWorkerCount) {
  ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 400;
  for (const std::size_t workers : {0, 1, 2, 4}) {
    SCOPED_TRACE(workers);
    expect_work(drain_dpp_bdma(config, workers),
                {.cgba_rounds = 2209,
                 .cgba_moves = 1729,
                 .engine_rebuilds = 96,
                 .engine_term_refreshes = 641800,
                 .bdma_iterations = 120,
                 .arena_device_builds = 9600,
                 .arena_device_reuses = 0});
  }
}

// The metro sparse stream keeps 8,700 of 9,600 rows (91%), on every worker
// count; one component's build changed no row, so 95 binds, not 96.
TEST(SolverWork, MetroSparseStreamKeepsMostRowsOnEveryWorkerCount) {
  ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 400;
  for (const std::size_t workers : {0, 1, 2, 4}) {
    SCOPED_TRACE(workers);
    expect_work(drain_sparse_dpp_bdma(config, workers),
                {.cgba_rounds = 1331,
                 .cgba_moves = 851,
                 .engine_rebuilds = 95,
                 .engine_term_refreshes = 280400,
                 .bdma_iterations = 120,
                 .arena_device_builds = 900,
                 .arena_device_reuses = 8700});
  }
}

}  // namespace
}  // namespace eotora::sim
