#include "sim/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/build_info.h"

namespace eotora::sim {
namespace {

ScenarioConfig tiny() {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 100;
  return config;
}

SweepSpec small_two_axis_spec() {
  SweepSpec spec;
  spec.name = "unit";
  spec.base = tiny();
  spec.axes = {{"budget", {0.9, 1.1}}, {"v", {50.0, 100.0}}};
  spec.policies = {"dpp-bdma", "greedy-budget"};
  spec.params.bdma_iterations = 1;
  spec.horizon = 8;
  spec.window = 4;
  return spec;
}

// Strips the documented non-deterministic (wall-clock) fields so the rest
// of the artifact — the solver counters included — can be compared
// exactly.
util::Json strip_timing(util::Json doc) {
  doc.erase("wall_seconds");
  util::Json records = util::Json::array();
  for (std::size_t i = 0; i < doc.at("records").size(); ++i) {
    util::Json record = doc.at("records").at(i);
    record.erase("wall_seconds");
    record.erase("decision_seconds");
    record.erase("state_seconds");
    record.erase("audit_seconds");
    // The per-stage breakdown is deterministic except its wall-clock share.
    util::Json stages = util::Json::array();
    for (std::size_t s = 0; s < record.at("stages").size(); ++s) {
      util::Json stage = record.at("stages").at(s);
      stage.erase("seconds");
      stages.push_back(stage);
    }
    record["stages"] = stages;
    records.push_back(record);
  }
  doc["records"] = records;
  return doc;
}

TEST(Runner, EnumeratesAxisMajorPolicyMinor) {
  const auto result = run_sweep(small_two_axis_spec(), 1);
  ASSERT_EQ(result.cells.size(), 8u);  // 2 budgets x 2 V x 2 policies
  const auto& first = result.cells.front();
  ASSERT_EQ(first.axis_values.size(), 2u);
  EXPECT_EQ(first.axis_values[0].first, "budget");
  EXPECT_DOUBLE_EQ(first.axis_values[0].second, 0.9);
  EXPECT_EQ(first.axis_values[1].first, "v");
  EXPECT_DOUBLE_EQ(first.axis_values[1].second, 50.0);
  EXPECT_EQ(first.policy, "dpp-bdma");
  EXPECT_EQ(result.cells[1].policy, "greedy-budget");
  // Second axis advances before the first.
  EXPECT_DOUBLE_EQ(result.cells[2].axis_values[1].second, 100.0);
  EXPECT_DOUBLE_EQ(result.cells[4].axis_values[0].second, 1.1);
  for (const auto& cell : result.cells) {
    EXPECT_GT(cell.tail.latency, 0.0);
    EXPECT_FALSE(cell.policy_label.empty());
  }
}

TEST(Runner, TwoAxisSweepIsIdenticalAcrossThreadCounts) {
  const auto serial = run_sweep(small_two_axis_spec(), 1);
  const auto parallel = run_sweep(small_two_axis_spec(), 4);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.cells[i].tail.latency,
                     parallel.cells[i].tail.latency);
    EXPECT_DOUBLE_EQ(serial.cells[i].tail.energy_cost,
                     parallel.cells[i].tail.energy_cost);
    EXPECT_DOUBLE_EQ(serial.cells[i].avg_latency,
                     parallel.cells[i].avg_latency);
  }
  // The JSON artifacts agree byte-for-byte once the wall-clock fields are
  // stripped (record order, axis values, every metric).
  EXPECT_EQ(strip_timing(serial.to_json()).dump(),
            strip_timing(parallel.to_json()).dump());
}

TEST(Runner, SweepRecordsAreByteIdenticalAcrossThreadsAndReruns) {
  // The determinism contract in full: --threads 1 vs --threads 8, and two
  // identical same-seed invocations, all dump the same artifact bytes once
  // the documented wall-clock fields are stripped.
  const auto serial = run_sweep(small_two_axis_spec(), 1);
  const auto wide = run_sweep(small_two_axis_spec(), 8);
  const auto rerun = run_sweep(small_two_axis_spec(), 8);
  const std::string baseline = strip_timing(serial.to_json()).dump();
  EXPECT_EQ(baseline, strip_timing(wide.to_json()).dump());
  EXPECT_EQ(baseline, strip_timing(rerun.to_json()).dump());
}

TEST(Runner, CountersAreByteIdenticalAcrossThreadsAndReruns) {
  // The new solver counters join the determinism contract: identical
  // totals for --threads 1 vs 8 and across same-seed reruns (they ride
  // the strip_timing byte-identity checks above too; this is the explicit
  // field-level pin, including the artifact's nested "counters" object).
  const auto serial = run_sweep(small_two_axis_spec(), 1);
  const auto wide = run_sweep(small_two_axis_spec(), 8);
  const auto rerun = run_sweep(small_two_axis_spec(), 8);
  ASSERT_EQ(serial.cells.size(), wide.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].counters, wide.cells[i].counters) << i;
    EXPECT_EQ(serial.cells[i].counters, rerun.cells[i].counters) << i;
  }
  // The counters measure real effort: every dpp-bdma cell ran BDMA and
  // Lemma 1; no cell in this sweep ran MCBA.
  for (const auto& cell : serial.cells) {
    if (cell.policy == "dpp-bdma") {
      EXPECT_GT(cell.counters.bdma_iterations, 0u);
      EXPECT_GT(cell.counters.lemma1_evaluations, 0u);
    }
    EXPECT_EQ(cell.counters.mcba_proposals, 0u);
  }
  const auto doc = serial.to_json();
  const auto& record = doc.at("records").at(0);
  ASSERT_TRUE(record.contains("counters"));
  EXPECT_EQ(record.at("counters").at("bdma_iterations").as_number(),
            static_cast<double>(serial.cells[0].counters.bdma_iterations));
  EXPECT_TRUE(record.contains("state_seconds"));
  EXPECT_TRUE(record.contains("audit_seconds"));
}

TEST(Runner, TracedSweepWritesChromeJsonAndChangesNoResultBytes) {
  const auto baseline = run_sweep(small_two_axis_spec(), 2);
  SweepSpec traced_spec = small_two_axis_spec();
  traced_spec.trace = ::testing::TempDir() + "eotora_runner_trace.json";
  const auto traced = run_sweep(traced_spec, 2);
  // Tracing is inert: deterministic artifact bytes are unchanged.
  EXPECT_EQ(strip_timing(baseline.to_json()).dump(),
            strip_timing(traced.to_json()).dump());
  // And the trace file is a well-formed, non-empty Chrome trace with
  // monotone timestamps.
  std::ifstream in(traced_spec.trace);
  ASSERT_TRUE(in.good()) << traced_spec.trace;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::Json doc = util::Json::parse(buffer.str());
  const util::Json& events = doc.at("traceEvents");
  ASSERT_GT(events.size(), 0u);
  double last_ts = -1.0;
  bool saw_cell_span = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double ts = events.at(i).at("ts").as_number();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    saw_cell_span |= events.at(i).at("name").as_string() == "sweep/cell";
  }
  EXPECT_TRUE(saw_cell_span);
  std::remove(traced_spec.trace.c_str());
}

TEST(Runner, ArtifactCarriesBuildProvenance) {
  SweepSpec spec = small_two_axis_spec();
  spec.axes.clear();
  spec.horizon = 4;
  spec.window = 4;
  const auto doc = run_sweep(spec, 1).to_json();
  ASSERT_TRUE(doc.contains("commit"));
  ASSERT_TRUE(doc.contains("build_type"));
  EXPECT_EQ(doc.at("commit").as_string(), util::build_info().commit);
  EXPECT_EQ(doc.at("build_type").as_string(), util::build_info().build_type);
  EXPECT_FALSE(doc.at("commit").as_string().empty());
}

TEST(Runner, AuditedSweepIsCleanAcrossPolicyFamilies) {
  SweepSpec spec;
  spec.name = "audited";
  spec.base = tiny();
  // One queue-tracking policy and two queue-free ones: the runner must
  // narrow check_queue per policy on its own.
  spec.policies = {"dpp-bdma", "greedy-budget", "beta-only"};
  spec.params.bdma_iterations = 1;
  spec.horizon = 6;
  spec.window = 3;
  spec.audit.mode = AuditMode::kEverySlot;
  const auto result = run_sweep(spec, 2);
  EXPECT_EQ(result.audit_mode, AuditMode::kEverySlot);
  ASSERT_EQ(result.cells.size(), 3u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.audited_slots, spec.horizon) << cell.policy;
    EXPECT_EQ(cell.audit_violations, 0u) << cell.policy;
  }
  const auto doc = result.to_json();
  EXPECT_EQ(doc.at("audit_mode").as_string(), "every-slot");
  for (std::size_t i = 0; i < doc.at("records").size(); ++i) {
    const auto& record = doc.at("records").at(i);
    EXPECT_EQ(record.at("audit_violations").as_number(), 0.0);
    EXPECT_GT(record.at("audited_slots").as_number(), 0.0);
  }

  // An unaudited sweep omits the audit keys entirely (schema stability).
  SweepSpec plain = spec;
  plain.audit.mode = AuditMode::kOff;
  const auto plain_doc = run_sweep(plain, 1).to_json();
  EXPECT_FALSE(plain_doc.contains("audit_mode"));
  EXPECT_FALSE(plain_doc.at("records").at(0).contains("audit_violations"));
}

TEST(Runner, SeedsAggregateAndReportCi) {
  SweepSpec spec;
  spec.name = "seeded";
  spec.base = tiny();
  spec.policies = {"dpp-bdma"};
  spec.params.bdma_iterations = 1;
  spec.horizon = 6;
  spec.window = 6;
  spec.seeds = 3;
  const auto result = run_sweep(spec, 2);
  ASSERT_EQ(result.cells.size(), 1u);
  const auto& cell = result.cells.front();
  EXPECT_EQ(cell.seeds, 3u);
  EXPECT_EQ(cell.tail_latency_stats.count(), 3u);
  EXPECT_GT(cell.tail_latency_stats.stddev(), 0.0);  // seeds differ
  EXPECT_GT(cell.tail_latency_ci_halfwidth(), 0.0);
  EXPECT_GE(cell.tail_latency_stats.max(), cell.tail_latency_stats.min());
  // The runner's own aggregation is the plain mean.
  EXPECT_NEAR(cell.tail.latency, cell.tail_latency_stats.mean(), 1e-15);
  // ~95% normal-approximation half-width: 1.96 * sample stddev / sqrt(R).
  const double n = 3.0;
  const double sample_stddev =
      cell.tail_latency_stats.stddev() * std::sqrt(n / (n - 1.0));
  EXPECT_NEAR(cell.tail_latency_ci_halfwidth(),
              1.96 * sample_stddev / std::sqrt(n), 1e-12);

  // Replication r is scenario seed base.seed + r with policy rng 1 + r:
  // the same drains run by hand aggregate to the same bits.
  util::RunningStats tail_latency;
  util::RunningStats avg_latency;
  for (std::size_t r = 0; r < spec.seeds; ++r) {
    ScenarioConfig seeded = spec.base;
    seeded.seed = spec.base.seed + r;
    ScenarioSource source(seeded, spec.horizon);
    auto policy = make_policy("dpp-bdma", source.instance(), spec.params);
    const auto run = run_policy(*policy, source, 1 + r);
    tail_latency.add(tail_averages(run, spec.window).latency);
    avg_latency.add(run.metrics.average_latency());
    EXPECT_EQ(cell.policy_label, run.policy_name);
  }
  EXPECT_EQ(cell.tail_latency_stats.mean(), tail_latency.mean());
  EXPECT_EQ(cell.tail_latency_stats.stddev(), tail_latency.stddev());
  EXPECT_EQ(cell.avg_latency, avg_latency.mean());

  // One seed: a zero-width interval.
  spec.seeds = 1;
  const auto single = run_sweep(spec, 1).cells.front();
  EXPECT_EQ(single.tail_latency_stats.count(), 1u);
  EXPECT_EQ(single.tail_latency_ci_halfwidth(), 0.0);
}

TEST(Runner, TableMatchesCellsAndJsonSchema) {
  const auto result = run_sweep(small_two_axis_spec(), 2);
  const auto table = result.table();
  EXPECT_EQ(table.rows(), result.cells.size());
  EXPECT_EQ(table.columns(), 2u + 5u + 1u);  // axes + fixed columns + run s

  const auto doc = result.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "eotora-sweep-v1");
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("horizon").as_number(), 8.0);
  EXPECT_EQ(doc.at("axes").size(), 2u);
  EXPECT_EQ(doc.at("records").size(), result.cells.size());
  const auto& record = doc.at("records").at(0);
  for (const char* key :
       {"policy", "policy_label", "tail_latency", "tail_cost",
        "tail_backlog", "avg_latency", "avg_cost", "avg_backlog",
        "tail_latency_ci", "tail_latency_min", "tail_latency_max",
        "decision_seconds", "wall_seconds", "budget", "v"}) {
    EXPECT_TRUE(record.contains(key)) << key;
  }
  // The dump parses back to the same document.
  EXPECT_EQ(util::Json::parse(doc.dump(2)).dump(), doc.dump());
}

TEST(Runner, ConfigureHookShapesTheCell) {
  SweepSpec spec;
  spec.name = "hooked";
  spec.base = tiny();
  spec.axes = {{"devices", {4.0, 8.0}}};
  spec.policies = {"greedy-budget"};
  spec.horizon = 4;
  spec.window = 4;
  spec.configure = [](const AxisAssignment& assignment,
                      ScenarioConfig& config, PolicyParams&) {
    // Couple the seed to the swept device count.
    config.seed += static_cast<std::uint64_t>(assignment.front().second);
  };
  const auto hooked = run_sweep(spec, 1);
  SweepSpec plain = spec;
  plain.configure = nullptr;
  const auto unhooked = run_sweep(plain, 1);
  // Different seeds -> different draws -> different latencies.
  EXPECT_NE(hooked.cells[0].tail.latency, unhooked.cells[0].tail.latency);
}

TEST(Runner, ValidatesTheSpec) {
  SweepSpec spec = small_two_axis_spec();
  spec.policies = {"no-such-policy"};
  try {
    (void)run_sweep(spec, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    // The registry's own error: the bad name and the registered ones.
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos) << message;
    EXPECT_NE(message.find("dpp-bdma"), std::string::npos) << message;
  }

  spec = small_two_axis_spec();
  spec.horizon = 0;
  spec.window = 0;
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.seeds = 0;
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.policies.clear();
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.axes.push_back({"devices", {4.0}});  // three axes
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.axes[0].values.clear();
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.axes[0].name = "unknown-knob";
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);

  spec = small_two_axis_spec();
  spec.window = spec.horizon + 1;
  EXPECT_THROW((void)run_sweep(spec, 1), std::invalid_argument);
}

TEST(Runner, AxisNamesAreDocumented) {
  const auto names = sweep_axis_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected : {"devices", "budget", "v", "seed"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  ScenarioConfig config = tiny();
  PolicyParams params;
  apply_sweep_axis("devices", 12.0, config, params);
  EXPECT_EQ(config.devices, 12u);
  apply_sweep_axis("v", 250.0, config, params);
  EXPECT_DOUBLE_EQ(params.v, 250.0);
  EXPECT_THROW(apply_sweep_axis("devices", 2.5, config, params),
               std::invalid_argument);
  EXPECT_THROW(apply_sweep_axis("nope", 1.0, config, params),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::sim
