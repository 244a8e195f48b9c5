// Differential replay: a recorded + audited run, re-executed through
// des::replay_log, must reproduce its DecisionLog rows bit-for-bit, and the
// static-shares DES must land on the log's analytic per-slot latency to
// numerical precision — three layers (policy pipeline, fluid evaluator,
// event engine) cross-checking each other.
#include "support/replay.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/audit.h"
#include "sim/registry.h"
#include "sim/scenario_registry.h"
#include "sim/state_source.h"
#include "util/rng.h"

namespace eotora::des {
namespace {

struct RecordedRun {
  sim::ScenarioConfig config;
  sim::DecisionLog log;
};

// Records a run exactly like the CLI --log path / run_policy convention:
// fresh policy, util::Rng rng(1), one step per slot, every slot audited.
RecordedRun record_run(const std::string& policy_name, std::size_t horizon,
                       const std::string& scenario = "paper") {
  RecordedRun run;
  sim::apply_scenario_preset(scenario, run.config);
  run.config.devices = 6;
  run.config.seed = 321;
  sim::ScenarioSource source(run.config, horizon);
  const auto policy =
      sim::make_policy(policy_name, source.instance(), sim::PolicyParams{});
  sim::AuditConfig audit_config;
  audit_config.mode = sim::AuditMode::kEverySlot;
  audit_config.check_queue = sim::policy_tracks_queue(policy_name);
  sim::SlotAuditor auditor(source.instance(), audit_config);
  policy->reset();
  util::Rng rng(1);
  core::SlotState state;
  while (source.next(state)) {
    const core::DppSlotResult slot = policy->step(state, rng);
    run.log.record(state, slot);
    auditor.observe(state, slot);
  }
  EXPECT_TRUE(auditor.report().clean()) << auditor.report().summary();
  return run;
}

TEST(DesReplay, ReproducesAnAuditedRunBitForBit) {
  const RecordedRun run = record_run("dpp-bdma", 12);
  sim::ScenarioSource source(run.config, 12);
  const auto policy =
      sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
  const ReplayReport report =
      replay_log(source.instance(), source, *policy, run.log);

  ASSERT_EQ(report.slots.size(), 12u);
  EXPECT_TRUE(report.decisions_match());
  EXPECT_EQ(report.mismatched_rows, 0u);
  for (const ReplaySlot& slot : report.slots) {
    EXPECT_TRUE(slot.row_matches) << "slot " << slot.slot;
    EXPECT_TRUE(slot.actual == slot.expected) << "slot " << slot.slot;
  }
  // Static-shares DES == analytic == the latency field the log recorded,
  // on EVERY slot of the replayed run.
  EXPECT_LE(report.max_static_device_gap, 1e-9);
  EXPECT_LE(report.max_log_latency_gap, 1e-9);
  for (const ReplaySlot& slot : report.slots) {
    EXPECT_NEAR(slot.realized_static, slot.expected.latency, 1e-9)
        << "slot " << slot.slot;
    EXPECT_NEAR(slot.realized_static, slot.analytic, 1e-9)
        << "slot " << slot.slot;
    // Work conservation in aggregate: PS never realizes more total latency
    // than the reservations the log's decisions imply.
    EXPECT_LE(slot.realized_ps, slot.realized_static + 1e-9)
        << "slot " << slot.slot;
  }
}

TEST(DesReplay, ReplayHoldsOnScenarioPresets) {
  for (const std::string scenario : {"churn", "bursty"}) {
    const RecordedRun run = record_run("dpp-bdma", 8, scenario);
    sim::ScenarioConfig config = run.config;
    sim::ScenarioSource source(config, 8);
    const auto policy =
        sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
    const ReplayReport report =
        replay_log(source.instance(), source, *policy, run.log);
    EXPECT_TRUE(report.decisions_match()) << scenario;
    EXPECT_LE(report.max_static_device_gap, 1e-9) << scenario;
    EXPECT_LE(report.max_log_latency_gap, 1e-9) << scenario;
  }
}

TEST(DesReplay, FlagsTamperedRows) {
  const RecordedRun run = record_run("dpp-bdma", 6);
  // Corrupt exactly one field of one row through the CSV round-trip
  // (entries() is read-only by design): slot 3's latency becomes 999.
  std::string csv = run.log.to_csv();
  std::size_t line_start = 0;
  for (int newlines = 0; newlines < 4; ++newlines) {
    line_start = csv.find('\n', line_start) + 1;
  }
  std::size_t field_start = line_start;
  for (int commas = 0; commas < 2; ++commas) {
    field_start = csv.find(',', field_start) + 1;
  }
  const std::size_t field_end = csv.find(',', field_start);
  csv.replace(field_start, field_end - field_start, "999");
  const sim::DecisionLog tampered = sim::DecisionLog::from_csv(csv);
  ASSERT_EQ(tampered.rows(), 6u);
  ASSERT_EQ(tampered.entries()[3].latency, 999.0);

  sim::ScenarioSource source(run.config, 6);
  const auto policy =
      sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
  const ReplayReport report =
      replay_log(source.instance(), source, *policy, tampered);
  EXPECT_FALSE(report.decisions_match());
  EXPECT_EQ(report.mismatched_rows, 1u);
  EXPECT_FALSE(report.slots[3].row_matches);
  for (std::size_t t = 0; t < 6; ++t) {
    if (t != 3) {
      EXPECT_TRUE(report.slots[t].row_matches) << "slot " << t;
    }
  }
  // The injected error also shows up as a latency gap vs the DES.
  EXPECT_GT(report.max_log_latency_gap, 100.0);
}

TEST(DesReplay, MismatchesWhenReplayedWithTheWrongPolicy) {
  const RecordedRun run = record_run("dpp-bdma", 6);
  sim::ScenarioSource source(run.config, 6);
  const auto policy = sim::make_policy("fixed-max", source.instance(),
                                       sim::PolicyParams{});
  const ReplayReport report =
      replay_log(source.instance(), source, *policy, run.log);
  EXPECT_FALSE(report.decisions_match());
}

TEST(DesReplay, EventLogsAreByteIdenticalAcrossReplays) {
  const RecordedRun run = record_run("dpp-bdma", 8);
  ReplayConfig config;
  config.record_events = true;
  std::vector<FlowEvent> static_events;
  std::vector<FlowEvent> ps_events;
  for (int pass = 0; pass < 2; ++pass) {
    sim::ScenarioSource source(run.config, 8);
    const auto policy =
        sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
    const ReplayReport report =
        replay_log(source.instance(), source, *policy, run.log, config);
    ASSERT_GT(report.static_horizon.event_log.size(), 0u);
    ASSERT_GT(report.ps_horizon.event_log.size(), 0u);
    if (pass == 0) {
      static_events = report.static_horizon.event_log;
      ps_events = report.ps_horizon.event_log;
      continue;
    }
    ASSERT_EQ(static_events.size(), report.static_horizon.event_log.size());
    for (std::size_t e = 0; e < static_events.size(); ++e) {
      EXPECT_TRUE(static_events[e] == report.static_horizon.event_log[e])
          << "static event " << e;
    }
    ASSERT_EQ(ps_events.size(), report.ps_horizon.event_log.size());
    for (std::size_t e = 0; e < ps_events.size(); ++e) {
      EXPECT_TRUE(ps_events[e] == report.ps_horizon.event_log[e])
          << "ps event " << e;
    }
  }
}

// The long-horizon smoke CI runs under ASan+UBSan: a 1000-slot recorded
// run replays decision-exact with the static DES on the analytic value at
// every slot. greedy-budget keeps the policy side cheap so the time goes
// into the event engine.
TEST(DesReplay, ThousandSlotSmokeStaysExact) {
  const RecordedRun run = record_run("greedy-budget", 1000);
  ASSERT_EQ(run.log.rows(), 1000u);
  sim::ScenarioSource source(run.config, 1000);
  const auto policy = sim::make_policy("greedy-budget", source.instance(),
                                       sim::PolicyParams{});
  const ReplayReport report =
      replay_log(source.instance(), source, *policy, run.log);
  EXPECT_TRUE(report.decisions_match());
  EXPECT_LE(report.max_static_device_gap, 1e-9);
  EXPECT_LE(report.max_log_latency_gap, 1e-9);
  EXPECT_EQ(report.static_horizon.slots.size(), 1000u);
}

TEST(DesReplay, RejectsEmptyLogAndAStateStreamOfAnotherLength) {
  const RecordedRun run = record_run("dpp-bdma", 6);
  {
    sim::ScenarioSource source(run.config, 6);
    const auto policy =
        sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
    const sim::DecisionLog empty;
    EXPECT_THROW(
        (void)replay_log(source.instance(), source, *policy, empty),
        std::invalid_argument);
  }
  {
    // The source runs dry after 4 slots but the log has 6.
    sim::ScenarioSource source(run.config, 4);
    const auto policy =
        sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
    EXPECT_THROW(
        (void)replay_log(source.instance(), source, *policy, run.log),
        std::invalid_argument);
  }
  {
    // A longer stream is no replay of the log either; the message names
    // both counts.
    sim::ScenarioSource source(run.config, 8);
    const auto policy =
        sim::make_policy("dpp-bdma", source.instance(), sim::PolicyParams{});
    try {
      (void)replay_log(source.instance(), source, *policy, run.log);
      ADD_FAILURE() << "a longer stream was replayed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(
                    "state stream has 8 slots but the log has 6"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace eotora::des
