// The observability layer: util/trace spans + core/counters.
//
// Two contracts are pinned here. (1) Counters are DETERMINISTIC — a fixed
// scenario + seed produces identical totals on every rerun, and they are
// real effort measurements (a BDMA policy reports BDMA iterations, CGBA
// rounds, Lemma-1 evaluations...). (2) Tracing is INERT — enabling it
// changes no result bit anywhere: same metrics, same counters, and (in
// test_golden.cpp) byte-identical golden fixtures.
#include "util/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/state_source.h"
#include "util/json.h"

namespace eotora {
namespace {

using core::counters::SolverCounters;

// Restores the global trace state around every test in this file.
class TraceGuard {
 public:
  TraceGuard() : was_enabled_(util::trace::enabled()) { util::trace::clear(); }
  ~TraceGuard() {
    util::trace::set_enabled(was_enabled_);
    util::trace::clear();
  }

 private:
  bool was_enabled_;
};

sim::ScenarioConfig tiny() {
  sim::ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 2;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 7;
  return config;
}

sim::SimulationResult run_tiny(const std::string& policy_name,
                               std::size_t horizon = 6) {
  sim::ScenarioSource source(tiny(), horizon);
  sim::PolicyParams params;
  params.bdma_iterations = 2;
  params.mcba_iterations = 200;
  auto policy = sim::make_policy(policy_name, source.instance(), params);
  return sim::run_policy(*policy, source, /*seed=*/1);
}

TEST(TraceTest, DisabledByDefaultAndSpansAreNoops) {
  TraceGuard guard;
  util::trace::set_enabled(false);
  { EOTORA_TRACE_SPAN("should-not-record"); }
  util::trace::emit_counter("nor-this", 1.0);
  EXPECT_EQ(util::trace::event_count(), 0u);
}

TEST(TraceTest, RecordsSpansAndCountersWhenEnabled) {
  TraceGuard guard;
  util::trace::set_enabled(true);
  { EOTORA_TRACE_SPAN("outer"); { EOTORA_TRACE_SPAN("inner"); } }
  util::trace::emit_counter("queue-depth", 3.0);
  EXPECT_EQ(util::trace::event_count(), 3u);
  util::trace::set_enabled(false);
  { EOTORA_TRACE_SPAN("after-disable"); }
  EXPECT_EQ(util::trace::event_count(), 3u);
  util::trace::clear();
  EXPECT_EQ(util::trace::event_count(), 0u);
}

// A thread's buffer stops at the cap and counts what it drops, until
// clear(); eotora_cli reports that count next to the written one.
TEST(TraceTest, EventsPastThePerThreadCapAreDroppedAndCounted) {
  TraceGuard guard;
  util::trace::set_enabled(true);
  for (std::size_t i = 0; i <= util::trace::kMaxEventsPerThread; ++i) {
    util::trace::emit_counter("fill", 1.0);
  }
  util::trace::set_enabled(false);
  EXPECT_EQ(util::trace::event_count(), util::trace::kMaxEventsPerThread);
  EXPECT_EQ(util::trace::dropped_count(), 1u);
  util::trace::clear();
  EXPECT_EQ(util::trace::dropped_count(), 0u);
}

TEST(TraceTest, ChromeJsonIsWellFormedWithMonotoneRebasedTimestamps) {
  TraceGuard guard;
  util::trace::set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    EOTORA_TRACE_SPAN("work");
  }
  util::trace::emit_counter("depth", 2.0);
  // Events from another thread must appear under a distinct tid.
  std::thread worker([] { EOTORA_TRACE_SPAN("worker-span"); });
  worker.join();
  util::trace::set_enabled(false);

  // Round-trip through the strict parser: the dump must be valid JSON.
  const util::Json doc =
      util::Json::parse(util::trace::to_chrome_json().dump(2));
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 7u);
  double last_ts = 0.0;
  std::vector<double> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& event = events.at(i);
    ASSERT_TRUE(event.contains("name"));
    ASSERT_TRUE(event.contains("ph"));
    const std::string& ph = event.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "C") << ph;
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "timestamps must be sorted";
    last_ts = ts;
    if (ph == "X") {
      EXPECT_GE(event.at("dur").as_number(), 0.0);
    }
    tids.push_back(event.at("tid").as_number());
  }
  // Rebased: the first event starts at ts = 0.
  EXPECT_DOUBLE_EQ(events.at(0).at("ts").as_number(), 0.0);
  // The worker thread's span carries a different tid than the main one.
  bool distinct_tid = false;
  for (const double tid : tids) distinct_tid |= tid != tids.front();
  EXPECT_TRUE(distinct_tid);
}

TEST(TraceTest, WriteChromeJsonProducesAParseableFile) {
  TraceGuard guard;
  util::trace::set_enabled(true);
  { EOTORA_TRACE_SPAN("file-span"); }
  util::trace::set_enabled(false);
  const std::string path = ::testing::TempDir() + "eotora_trace_test.json";
  util::trace::write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::Json doc = util::Json::parse(buffer.str());
  EXPECT_EQ(doc.at("traceEvents").size(), 1u);
  std::remove(path.c_str());
}

TEST(CountersTest, MergeAndEqualityCoverEveryField) {
  SolverCounters a;
  a.cgba_rounds = 1;
  a.cgba_moves = 2;
  a.mcba_proposals = 3;
  a.mcba_accepted = 4;
  SolverCounters b;
  b.bdma_iterations = 5;
  b.engine_rebuilds = 6;
  b.engine_term_refreshes = 7;
  b.lemma1_evaluations = 8;
  b.component_finds = 9;
  b.component_reuses = 10;
  b.arena_precomputes = 11;
  b.arena_precompute_reuses = 12;
  b.arena_device_builds = 13;
  b.arena_device_reuses = 14;
  SolverCounters merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.cgba_rounds, 1u);
  EXPECT_EQ(merged.cgba_moves, 2u);
  EXPECT_EQ(merged.mcba_proposals, 3u);
  EXPECT_EQ(merged.mcba_accepted, 4u);
  EXPECT_EQ(merged.bdma_iterations, 5u);
  EXPECT_EQ(merged.engine_rebuilds, 6u);
  EXPECT_EQ(merged.engine_term_refreshes, 7u);
  EXPECT_EQ(merged.lemma1_evaluations, 8u);
  EXPECT_EQ(merged.component_finds, 9u);
  EXPECT_EQ(merged.component_reuses, 10u);
  EXPECT_EQ(merged.arena_precomputes, 11u);
  EXPECT_EQ(merged.arena_precompute_reuses, 12u);
  EXPECT_EQ(merged.arena_device_builds, 13u);
  EXPECT_EQ(merged.arena_device_reuses, 14u);
  EXPECT_NE(merged, a);
  SolverCounters again = a;
  again.merge(b);
  EXPECT_EQ(merged, again);
  merged.reset();
  EXPECT_EQ(merged, SolverCounters{});
}

TEST(CountersTest, ToJsonListsEveryCounterFieldInOrder) {
  SolverCounters counters;
  counters.cgba_rounds = 42;
  const util::Json json = counters.to_json();
  const std::vector<std::string> expected = {
      "cgba_rounds",       "cgba_moves",
      "mcba_proposals",    "mcba_accepted",
      "bdma_iterations",   "engine_rebuilds",
      "engine_term_refreshes", "lemma1_evaluations",
      "component_finds",   "component_reuses",
      "arena_precomputes", "arena_precompute_reuses",
      "arena_device_builds", "arena_device_reuses"};
  ASSERT_EQ(json.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(json.items()[i].first, expected[i]) << i;
  }
  EXPECT_DOUBLE_EQ(json.at("cgba_rounds").as_number(), 42.0);
}

TEST(CountersTest, ScopeRoutesAndNestsAndDummySwallowsWithoutScope) {
  SolverCounters outer;
  SolverCounters inner;
  // Without a scope, writes land in the per-thread dummy, not in `outer`.
  ++core::counters::active().lemma1_evaluations;
  EXPECT_EQ(outer.lemma1_evaluations, 0u);
  {
    const core::counters::Scope outer_scope(outer);
    ++core::counters::active().cgba_rounds;
    {
      const core::counters::Scope inner_scope(inner);
      ++core::counters::active().cgba_rounds;
    }
    ++core::counters::active().cgba_rounds;  // back to outer after nesting
  }
  EXPECT_EQ(outer.cgba_rounds, 2u);
  EXPECT_EQ(inner.cgba_rounds, 1u);
}

// The decision loop reports real effort: a DPP/BDMA run must show BDMA
// iterations, CGBA rounds + engine activity, and one Lemma-1 evaluation
// per slot; an MCBA run must show proposals instead of CGBA rounds.
TEST(CountersTest, RunPolicyReportsSolverEffort) {
  const auto bdma = run_tiny("dpp-bdma");
  // 6 slots x bdma_iterations=2.
  EXPECT_EQ(bdma.counters.bdma_iterations, 12u);
  EXPECT_GT(bdma.counters.cgba_rounds, 0u);
  EXPECT_GE(bdma.counters.cgba_rounds, bdma.counters.cgba_moves);
  // One CGBA solve per BDMA iteration, 12 in all, on one engine that binds
  // once per slot's build and only resets for the slot's second solve: 6
  // binds.
  EXPECT_EQ(bdma.counters.engine_rebuilds, 6u);
  // The DPP decision stage calls optimal_allocation once per slot.
  EXPECT_EQ(bdma.counters.lemma1_evaluations, 6u);
  EXPECT_EQ(bdma.counters.mcba_proposals, 0u);

  const auto mcba = run_tiny("dpp-mcba");
  EXPECT_GT(mcba.counters.mcba_proposals, 0u);
  EXPECT_GE(mcba.counters.mcba_proposals, mcba.counters.mcba_accepted);
  EXPECT_GT(mcba.counters.mcba_accepted, 0u);
  EXPECT_EQ(mcba.counters.cgba_rounds, 0u);
}

TEST(CountersTest, RerunsProduceIdenticalCounters) {
  for (const std::string policy : {"dpp-bdma", "dpp-mcba", "dpp-ropt"}) {
    const auto first = run_tiny(policy);
    const auto second = run_tiny(policy);
    EXPECT_EQ(first.counters, second.counters) << policy;
  }
}

// The inertness contract at the run_policy level: enabling tracing must
// not change a single deterministic output — metrics, counters, or phase
// structure. (test_golden.cpp pins the same property on the fixtures.)
TEST(CountersTest, TracingDoesNotPerturbResultsOrCounters) {
  const auto baseline = run_tiny("dpp-bdma");
  TraceGuard guard;
  util::trace::set_enabled(true);
  const auto traced = run_tiny("dpp-bdma");
  util::trace::set_enabled(false);
  EXPECT_GT(util::trace::event_count(), 0u);
  EXPECT_EQ(traced.counters, baseline.counters);
  EXPECT_EQ(traced.metrics.latency_series(), baseline.metrics.latency_series());
  EXPECT_EQ(traced.metrics.cost_series(), baseline.metrics.cost_series());
  EXPECT_EQ(traced.metrics.queue_series(), baseline.metrics.queue_series());
}

// Scenario set-up and state generation are attributed: the constructor
// emits one setup/* span per phase, and every next_state() one
// scenario/* span per generator.
TEST(TraceTest, ScenarioSetupAndStateGenerationEmitTheirSpans) {
  TraceGuard guard;
  util::trace::set_enabled(true);
  constexpr int kSlots = 3;
  {
    sim::Scenario scenario(tiny());
    core::SlotState state;
    for (int t = 0; t < kSlots; ++t) scenario.next_state(state);
  }
  util::trace::set_enabled(false);
  const util::Json doc = util::trace::to_chrome_json();
  const util::Json& events = doc.at("traceEvents");
  std::map<std::string, int> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ++spans[events.at(i).at("name").as_string()];
  }
  for (const char* name : {"setup/topology", "setup/sigma", "setup/channel"}) {
    EXPECT_EQ(spans[name], 1) << name;
  }
  for (const char* name :
       {"scenario/mobility", "scenario/workload", "scenario/channel"}) {
    EXPECT_EQ(spans[name], kSlots) << name;
  }
}

// Phase timing decomposition: every phase a run actually executed reports
// nonnegative time, and the decision phase is nonzero for real solvers.
TEST(PhaseTimingTest, RunPolicyDecomposesTime) {
  const auto result = run_tiny("dpp-bdma");
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GE(result.state_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.audit_seconds, 0.0);  // no auditor installed
}

}  // namespace
}  // namespace eotora
