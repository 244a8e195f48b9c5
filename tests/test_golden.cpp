// Golden-trace layer: rounding, JSON round-trips, first-divergence diffs,
// and agreement between the committed fixtures and freshly recorded traces.
// (The full 3x8 fixture matrix is swept by the `golden_check` ctest target
// via golden_tool; here one cell is re-derived in-process.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/registry.h"
#include "sim/scenario_registry.h"
#include "support/golden.h"
#include "util/trace.h"

#ifndef EOTORA_GOLDEN_DIR
#define EOTORA_GOLDEN_DIR "tests/golden"
#endif

namespace eotora {
namespace {

using sim::GoldenDivergence;
using sim::GoldenScenario;
using sim::GoldenTrace;

GoldenTrace small_trace() {
  GoldenTrace trace;
  trace.scenario = "unit";
  trace.policy = "dpp-bdma";
  trace.devices = 2;
  trace.horizon = 2;
  trace.seed = 7;
  for (std::size_t t = 0; t < 2; ++t) {
    sim::GoldenSlot slot;
    slot.slot = t;
    slot.bs_of = {0, 1};
    slot.server_of = {1, 2};
    slot.frequencies = {1.8, 2.25, 3.0};
    slot.latency = 0.125;
    slot.energy_cost = 1.5;
    slot.theta = 0.5;
    slot.queue_after = 0.5 * static_cast<double>(t + 1);
    trace.slots.push_back(slot);
  }
  return trace;
}

TEST(RoundSig, NineSignificantDigits) {
  EXPECT_DOUBLE_EQ(sim::round_sig(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::round_sig(1.5), 1.5);
  EXPECT_DOUBLE_EQ(sim::round_sig(123456789.0), 123456789.0);
  EXPECT_DOUBLE_EQ(sim::round_sig(0.123456789123456), 0.123456789);
  EXPECT_DOUBLE_EQ(sim::round_sig(-0.123456789123456), -0.123456789);
  EXPECT_DOUBLE_EQ(sim::round_sig(1.0 / 3.0), 0.333333333);
  // Idempotent: rounding a rounded value changes nothing.
  const double once = sim::round_sig(3.14159265358979);
  EXPECT_DOUBLE_EQ(sim::round_sig(once), once);
  // -0.0 normalizes to +0.0 so the JSON rendering is unambiguous.
  EXPECT_FALSE(std::signbit(sim::round_sig(-0.0)));
}

TEST(GoldenTrace, JsonRoundTrip) {
  const GoldenTrace trace = small_trace();
  const GoldenTrace back = GoldenTrace::from_json(trace.to_json());
  EXPECT_TRUE(sim::diff_golden(trace, back).identical)
      << sim::diff_golden(trace, back).describe();
  // And through text: dump -> parse -> from_json.
  const GoldenTrace back2 =
      GoldenTrace::from_json(util::Json::parse(trace.to_json().dump(1)));
  EXPECT_TRUE(sim::diff_golden(trace, back2).identical);
}

TEST(GoldenTrace, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW(GoldenTrace::from_json(util::Json::object()),
               std::invalid_argument);
  util::Json doc = small_trace().to_json();
  doc["schema"] = "eotora-golden-v999";
  EXPECT_THROW(GoldenTrace::from_json(doc), std::invalid_argument);
  doc = small_trace().to_json();
  doc["horizon"] = "sixteen";
  EXPECT_THROW(GoldenTrace::from_json(doc), std::invalid_argument);
  doc = small_trace().to_json();
  doc.erase("slots");
  EXPECT_THROW(GoldenTrace::from_json(doc), std::invalid_argument);
}

TEST(GoldenDiff, ReportsFirstDivergentSlotAndField) {
  const GoldenTrace expected = small_trace();

  GoldenTrace actual = expected;
  EXPECT_TRUE(sim::diff_golden(expected, actual).identical);

  actual.slots[1].server_of[0] = 2;
  GoldenDivergence div = sim::diff_golden(expected, actual);
  EXPECT_FALSE(div.identical);
  EXPECT_EQ(div.slot, 1u);
  EXPECT_EQ(div.field, "server[0]");
  EXPECT_EQ(div.expected, "1");
  EXPECT_EQ(div.actual, "2");

  // An earlier divergence wins even when later slots also differ.
  actual.slots[0].latency = 0.25;
  div = sim::diff_golden(expected, actual);
  EXPECT_EQ(div.slot, 0u);
  EXPECT_EQ(div.field, "latency");

  // Header mismatches report before any slot.
  actual = expected;
  actual.policy = "dpp-mcba";
  div = sim::diff_golden(expected, actual);
  EXPECT_FALSE(div.identical);
  EXPECT_EQ(div.slot, GoldenDivergence::kNoSlot);
  EXPECT_EQ(div.field, "policy");

  actual = expected;
  actual.slots.pop_back();
  div = sim::diff_golden(expected, actual);
  EXPECT_EQ(div.field, "slots.size");
  EXPECT_NE(div.describe().find("slots.size"), std::string::npos);
}

TEST(GoldenFixtures, FilenameAndMatrixShape) {
  EXPECT_EQ(sim::golden_fixture_filename("tiny-a", "dpp-bdma"),
            "tiny-a.dpp-bdma.json");
  EXPECT_EQ(sim::golden_scenarios().size(), 3u);
  EXPECT_EQ(sim::golden_policies().size(), 8u);
  // One preset fixture per registered non-paper scenario generator.
  EXPECT_EQ(sim::golden_preset_scenarios().size(),
            sim::registered_scenarios().size() - 1);
  // The case list is the 3x8 product, the preset x dpp-bdma fixtures and
  // the metro world's four P2-A entry points.
  EXPECT_EQ(sim::golden_metro_policies().size(), 4u);
  EXPECT_EQ(sim::golden_cases().size(),
            sim::golden_scenarios().size() * sim::golden_policies().size() +
                sim::golden_preset_scenarios().size() +
                sim::golden_metro_policies().size());
  const std::vector<std::string> policies = sim::registered_policies();
  const auto registered = [&](const std::string& policy) {
    return std::find(policies.begin(), policies.end(), policy) !=
           policies.end();
  };
  for (const std::string& policy : sim::golden_policies()) {
    EXPECT_TRUE(registered(policy)) << policy;
  }
  for (const std::string& policy : sim::golden_metro_policies()) {
    EXPECT_TRUE(registered(policy)) << policy;
  }
  const std::vector<std::string>& scenarios = sim::registered_scenarios();
  for (const GoldenScenario& gs : sim::golden_preset_scenarios()) {
    EXPECT_NE(std::find(scenarios.begin(), scenarios.end(), gs.name),
              scenarios.end())
        << gs.name;
  }
}

TEST(GoldenFixtures, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(sim::load_golden_file("/nonexistent/golden.json"),
               std::runtime_error);
  const std::string path = "test_golden_malformed.json";
  {
    std::ofstream out(path);
    out << "{ not json";
  }
  EXPECT_THROW(sim::load_golden_file(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(GoldenFixtures, WriteThenLoadRoundTripsBytes) {
  const GoldenTrace trace = small_trace();
  const std::string path = "test_golden_roundtrip.json";
  sim::write_golden_file(path, trace);
  const GoldenTrace back = sim::load_golden_file(path);
  EXPECT_TRUE(sim::diff_golden(trace, back).identical);
  // Writing the loaded trace again reproduces the file byte for byte —
  // the regen script depends on this.
  const std::string path2 = "test_golden_roundtrip2.json";
  sim::write_golden_file(path2, back);
  std::ifstream a(path), b(path2);
  std::string text_a((std::istreambuf_iterator<char>(a)),
                     std::istreambuf_iterator<char>());
  std::string text_b((std::istreambuf_iterator<char>(b)),
                     std::istreambuf_iterator<char>());
  EXPECT_FALSE(text_a.empty());
  EXPECT_EQ(text_a, text_b);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(GoldenFixtures, RecordingIsDeterministic) {
  const GoldenScenario& gs = sim::golden_scenarios().front();
  const GoldenTrace first = sim::record_golden_trace(gs, "dpp-bdma");
  const GoldenTrace second = sim::record_golden_trace(gs, "dpp-bdma");
  EXPECT_TRUE(sim::diff_golden(first, second).identical)
      << sim::diff_golden(first, second).describe();
  EXPECT_EQ(first.slots.size(), gs.horizon);
  EXPECT_EQ(first.devices, gs.config.devices);
}

TEST(GoldenFixtures, CommittedFixtureMatchesFreshRecording) {
  // One cell of the matrix in-process; golden_tool check covers all 32.
  const GoldenScenario& gs = sim::golden_scenarios().front();
  const std::string path = std::string(EOTORA_GOLDEN_DIR) + "/" +
                           sim::golden_fixture_filename(gs.name, "dpp-bdma");
  const GoldenTrace expected = sim::load_golden_file(path);
  const GoldenTrace actual = sim::record_golden_trace(gs, "dpp-bdma");
  const GoldenDivergence div = sim::diff_golden(expected, actual);
  EXPECT_TRUE(div.identical) << div.describe();
}

// The observability inertness gate over the whole fixture list: with
// util/trace enabled, every committed fixture (the 3x8 policy matrix, the
// scenario-preset cases and the metro world) must still re-derive
// byte-identically. Tracing
// reads clocks and appends to its own buffers but never touches an RNG or a
// result value; a divergence here means instrumentation leaked into the
// decision path.
TEST(GoldenFixtures, AllFixturesAreByteIdenticalWithTracingEnabled) {
  const bool was_enabled = util::trace::enabled();
  util::trace::clear();
  util::trace::set_enabled(true);
  std::size_t checked = 0;
  for (const sim::GoldenCase& gc : sim::golden_cases()) {
    const std::string path =
        std::string(EOTORA_GOLDEN_DIR) + "/" +
        sim::golden_fixture_filename(gc.scenario->name, gc.policy);
    const GoldenTrace expected = sim::load_golden_file(path);
    const GoldenTrace actual = sim::record_golden_trace(*gc.scenario, gc.policy);
    const GoldenDivergence div = sim::diff_golden(expected, actual);
    EXPECT_TRUE(div.identical)
        << gc.scenario->name << "/" << gc.policy
        << " diverged with tracing on: " << div.describe();
    ++checked;
  }
  EXPECT_EQ(checked, 32u);
  EXPECT_GT(util::trace::event_count(), 0u);  // tracing really was live
  util::trace::set_enabled(was_enabled);
  util::trace::clear();
}

}  // namespace
}  // namespace eotora
