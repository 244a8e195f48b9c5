// DecisionLog: CSV round-trips and entries() accessors; DecisionLogWriter:
// the file writer's bytes and error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/dpp.h"
#include "sim/decision_log.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "support/decision_log.h"
#include "test_helpers.h"

namespace eotora {
namespace {

core::DppSlotResult slot_result(double latency, double cost, double queue,
                                std::vector<double> freq) {
  core::DppSlotResult result;
  result.decision.frequencies = std::move(freq);
  result.latency = latency;
  result.energy_cost = cost;
  result.theta = cost - 1.0;
  result.queue_after = queue;
  return result;
}

struct Sample {
  core::SlotState state;
  core::DppSlotResult slot;
};

std::vector<Sample> samples() {
  core::SlotState state = test::uniform_state(3, 2);
  state.slot = 0;
  state.price_per_mwh = 42.5;
  std::vector<Sample> out;
  out.push_back({state, slot_result(0.125, 1.75, 0.75, {1.8, 2.7, 3.6})});
  state.slot = 1;
  state.price_per_mwh = 61.0 / 7.0;  // not exactly representable in decimal
  out.push_back({state, slot_result(1.0 / 3.0, 0.9, 0.0, {2.0, 2.0, 2.0})});
  return out;
}

sim::DecisionLog sample_log() {
  sim::DecisionLog log;
  for (const Sample& sample : samples()) log.record(sample.state, sample.slot);
  return log;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(DecisionLog, RecordTracksRowsAndFrequencyStats) {
  const sim::DecisionLog log = sample_log();
  ASSERT_EQ(log.rows(), 2u);
  const auto& rows = log.entries();
  EXPECT_EQ(rows[0].slot, 0u);
  EXPECT_DOUBLE_EQ(rows[0].price, 42.5);
  EXPECT_DOUBLE_EQ(rows[0].min_ghz, 1.8);
  EXPECT_DOUBLE_EQ(rows[0].max_ghz, 3.6);
  EXPECT_DOUBLE_EQ(rows[0].mean_ghz, (1.8 + 2.7 + 3.6) / 3.0);
  EXPECT_DOUBLE_EQ(rows[1].latency, 1.0 / 3.0);
}

TEST(DecisionLog, CsvRoundTripReproducesEveryRowExactly) {
  const sim::DecisionLog log = sample_log();
  const sim::DecisionLog back = sim::DecisionLog::from_csv(log.to_csv());
  ASSERT_EQ(back.rows(), log.rows());
  for (std::size_t i = 0; i < log.rows(); ++i) {
    EXPECT_EQ(back.entries()[i], log.entries()[i]) << "row " << i;
  }
  // And the re-serialized text is identical (precision 17 round-trips).
  EXPECT_EQ(back.to_csv(), log.to_csv());
}

// A policy's real slots: one row each, header first.
TEST(DecisionLog, RecordsPolicySlotsAndSerializes) {
  sim::ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 100;
  sim::Scenario scenario(config);
  sim::PolicyParams params;
  params.bdma_iterations = 1;
  const auto policy = sim::make_policy("dpp-bdma", scenario.instance(), params);
  sim::DecisionLog log;
  util::Rng rng(1);
  for (int t = 0; t < 5; ++t) {
    const auto state = scenario.next_state();
    log.record(state, policy->step(state, rng));
  }
  EXPECT_EQ(log.rows(), 5u);
  const std::string csv = log.to_csv();
  EXPECT_EQ(csv.rfind("slot,price,latency", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);  // header + 5 rows
}

TEST(DecisionLogWriter, FileBytesEqualToCsvOfTheSameSlots) {
  const std::string path = "test_decision_log_writer.csv";
  sim::DecisionLogWriter writer(path);
  for (const Sample& sample : samples()) {
    writer.record(sample.state, sample.slot);
  }
  EXPECT_EQ(writer.rows(), 2u);
  writer.close();
  writer.close();  // idempotent
  const std::string text = read_file(path);
  EXPECT_EQ(text, sample_log().to_csv());
  EXPECT_EQ(sim::DecisionLog::from_csv(text).entries(),
            sample_log().entries());
  std::remove(path.c_str());
}

TEST(DecisionLog, FromCsvRejectsMalformedInput) {
  EXPECT_THROW(sim::DecisionLog::from_csv(""), std::invalid_argument);
  EXPECT_THROW(sim::DecisionLog::from_csv("wrong,header\n1,2\n"),
               std::invalid_argument);
  const std::string header =
      "slot,price,latency,energy_cost,theta,queue,mean_ghz,min_ghz,max_ghz\n";
  EXPECT_THROW(sim::DecisionLog::from_csv(header + "1,2,3\n"),
               std::invalid_argument);
  EXPECT_THROW(
      sim::DecisionLog::from_csv(header + "0,1,2,3,4,5,6,7,oops\n"),
      std::invalid_argument);
  EXPECT_THROW(
      sim::DecisionLog::from_csv(header + "-1,1,2,3,4,5,6,7,8\n"),
      std::invalid_argument);
  // A well-formed document with a trailing newline parses fine.
  EXPECT_EQ(sim::DecisionLog::from_csv(header + "0,1,2,3,4,5,6,7,8\n").rows(),
            1u);
}

TEST(DecisionLogWriter, UnopenablePathThrowsNamingIt) {
  const std::string bad_path = "/nonexistent-dir/decision_log.csv";
  sim::DecisionLogWriter writer(bad_path);
  const Sample sample = samples().front();
  try {
    writer.record(sample.state, sample.slot);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(bad_path), std::string::npos)
        << error.what();
  }
}

TEST(DecisionLog, EmptyLogRefusesToSerialize) {
  const sim::DecisionLog empty;
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_THROW(empty.to_csv(), std::invalid_argument);
}

TEST(DecisionLogWriter, CloseWithNoRowsThrows) {
  const std::string path = "test_decision_log_writer_empty.csv";
  sim::DecisionLogWriter writer(path);
  EXPECT_THROW(writer.close(), std::invalid_argument);
  EXPECT_FALSE(file_exists(path));
}

TEST(DecisionLogWriter, UnusedWriterLeavesNoFile) {
  const std::string path = "test_decision_log_writer_unused.csv";
  std::remove(path.c_str());
  { const sim::DecisionLogWriter writer(path); }
  EXPECT_FALSE(file_exists(path));
}

}  // namespace
}  // namespace eotora
