#include "sim/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eotora::sim {
namespace {

class ReplayTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = "/tmp/eotora_test_replay.csv";
};

ScenarioConfig tiny() {
  ScenarioConfig config;
  config.devices = 4;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 5;
  return config;
}

TEST_F(ReplayTest, RoundTripIsExact) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(6);
  save_states(path_, states);
  const auto loaded = load_states(path_);
  ASSERT_EQ(loaded.size(), states.size());
  for (std::size_t t = 0; t < states.size(); ++t) {
    EXPECT_EQ(loaded[t].slot, states[t].slot);
    EXPECT_DOUBLE_EQ(loaded[t].price_per_mwh, states[t].price_per_mwh);
    ASSERT_EQ(loaded[t].task_cycles.size(), states[t].task_cycles.size());
    for (std::size_t i = 0; i < states[t].task_cycles.size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded[t].task_cycles[i], states[t].task_cycles[i]);
      EXPECT_DOUBLE_EQ(loaded[t].data_bits[i], states[t].data_bits[i]);
      for (std::size_t k = 0; k < states[t].channel[i].size(); ++k) {
        EXPECT_DOUBLE_EQ(loaded[t].channel[i][k], states[t].channel[i][k]);
      }
    }
  }
}

TEST_F(ReplayTest, ReplayDrivesIdenticalSimulation) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(8);
  save_states(path_, states);
  const auto loaded = load_states(path_);
  PolicyParams params;
  params.bdma_iterations = 2;
  const auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  MaterializedSource original_source(states);
  MaterializedSource replayed_source(loaded);
  const auto original = run_policy(*policy, original_source, 9);
  const auto replayed = run_policy(*policy, replayed_source, 9);
  EXPECT_EQ(original.metrics.latency_series(),
            replayed.metrics.latency_series());
  EXPECT_EQ(original.metrics.queue_series(), replayed.metrics.queue_series());
}

TEST_F(ReplayTest, RejectsEmptyStates) {
  EXPECT_THROW(save_states(path_, {}), std::invalid_argument);
}

TEST_F(ReplayTest, RejectsInconsistentShapes) {
  Scenario scenario(tiny());
  auto states = scenario.generate_states(3);
  states[1].task_cycles.pop_back();
  EXPECT_THROW(save_states(path_, states), std::invalid_argument);
}

TEST_F(ReplayTest, RejectsMalformedHeader) {
  {
    std::ofstream file(path_);
    file << "wrong,header\n1,2\n";
  }
  EXPECT_THROW((void)load_states(path_), std::invalid_argument);
}

TEST_F(ReplayTest, RejectsTruncatedColumns) {
  {
    std::ofstream file(path_);
    // slot,price but no f/d/h columns.
    file << "slot,price,f_0,d_0\n0,50,1e8,5e6\n";
  }
  EXPECT_THROW((void)load_states(path_), std::invalid_argument);
}

TEST_F(ReplayTest, MissingFileThrows) {
  EXPECT_THROW((void)load_states("/tmp/definitely_missing_eotora.csv"),
               std::runtime_error);
}

TEST_F(ReplayTest, LoadStatesErrorNamesOffendingLine) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(3);
  save_states(path_, states);
  {
    // Append a truncated row: header is line 1, rows 2-4, so the bad row
    // lands on line 5.
    std::ofstream file(path_, std::ios::app);
    file << "3,50,1e8\n";
  }
  try {
    (void)load_states(path_);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(":5:"), std::string::npos)
        << error.what();
  }
}

TEST_F(ReplayTest, LoadStatesErrorNamesBadNumberColumn) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(1);
  save_states(path_, states);
  std::string csv;
  {
    std::ifstream file(path_);
    std::getline(file, csv);
  }
  {
    std::ofstream file(path_);
    file << csv << "\n";
    // Row with the price field unparsable; everything else zero.
    file << "0,bogus";
    const auto columns = static_cast<std::size_t>(
        std::count(csv.begin(), csv.end(), ',') + 1);
    for (std::size_t c = 2; c < columns; ++c) file << ",0";
    file << "\n";
  }
  try {
    (void)load_states(path_);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(":2:"), std::string::npos) << what;
    EXPECT_NE(what.find("price"), std::string::npos) << what;
  }
}

TEST_F(ReplayTest, WriterMatchesSaveStatesByteForByte) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(5);
  save_states(path_, states);
  std::string saved;
  {
    std::ifstream file(path_);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    saved = buffer.str();
  }
  const std::string writer_path = "/tmp/eotora_test_replay_writer.csv";
  {
    ReplayWriter writer(writer_path);
    for (const auto& state : states) writer.record(state);
    EXPECT_EQ(writer.rows(), states.size());
    writer.close();
  }
  std::string streamed;
  {
    std::ifstream file(writer_path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    streamed = buffer.str();
  }
  std::remove(writer_path.c_str());
  EXPECT_EQ(saved, streamed);
}

TEST_F(ReplayTest, WriterRejectsShapeDrift) {
  Scenario scenario(tiny());
  auto states = scenario.generate_states(2);
  states[1].data_bits.pop_back();
  ReplayWriter writer(path_);
  writer.record(states[0]);
  EXPECT_THROW(writer.record(states[1]), std::invalid_argument);
}

TEST_F(ReplayTest, ApplyPriceSeriesWrapsAround) {
  Scenario scenario(tiny());
  auto states = scenario.generate_states(5);
  apply_price_series(states, {10.0, 20.0});
  // A 2-price series over 5 slots wraps: 10, 20, 10, 20, 10.
  EXPECT_DOUBLE_EQ(states[0].price_per_mwh, 10.0);
  EXPECT_DOUBLE_EQ(states[1].price_per_mwh, 20.0);
  EXPECT_DOUBLE_EQ(states[2].price_per_mwh, 10.0);
  EXPECT_DOUBLE_EQ(states[3].price_per_mwh, 20.0);
  EXPECT_DOUBLE_EQ(states[4].price_per_mwh, 10.0);
}

TEST_F(ReplayTest, ApplyPriceSeriesRejectsBadInput) {
  Scenario scenario(tiny());
  auto states = scenario.generate_states(2);
  EXPECT_THROW(apply_price_series(states, {}), std::invalid_argument);
  EXPECT_THROW(apply_price_series(states, {10.0, -1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::sim
