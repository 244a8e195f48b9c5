// Scenario-diversity registry: named presets over ScenarioConfig, their
// effect on the state generators, the stream-preservation guarantee (the
// paper preset and disabled knobs draw NOTHING extra, so historical state
// sequences are byte-stable), and the SweepSpec::scenario plumbing.
#include "sim/scenario_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "sim/scenario.h"

namespace eotora::sim {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig config;
  config.devices = 8;
  config.mid_band_stations = 2;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 99;
  return config;
}

TEST(ScenarioRegistry, NamesAndDescriptions) {
  const std::vector<std::string>& names = registered_scenarios();
  const std::vector<std::string> expected = {"paper", "handover", "churn",
                                             "bursty", "price-spike"};
  EXPECT_EQ(names, expected);
  for (const std::string& name : names) {
    EXPECT_FALSE(scenario_description(name).empty()) << name;
  }
}

TEST(ScenarioRegistry, UnknownNamesThrowListingTheRegistry) {
  ScenarioConfig config;
  try {
    apply_scenario_preset("frobnicate", config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("frobnicate"), std::string::npos) << what;
    for (const std::string& name : registered_scenarios()) {
      EXPECT_NE(what.find(name), std::string::npos) << name << ": " << what;
    }
  }
  EXPECT_THROW(scenario_description("frobnicate"), std::invalid_argument);
}

TEST(ScenarioRegistry, PresetsTransformExactlyTheirKnobs) {
  const ScenarioConfig stock;

  ScenarioConfig config;
  apply_scenario_preset("paper", config);
  EXPECT_EQ(config.mobility_slot_seconds, stock.mobility_slot_seconds);
  EXPECT_EQ(config.mid_band_coverage_scale, stock.mid_band_coverage_scale);
  EXPECT_FALSE(config.churn.enabled);
  EXPECT_FALSE(config.bursts.enabled);

  config = ScenarioConfig{};
  apply_scenario_preset("handover", config);
  EXPECT_EQ(config.mobility_slot_seconds, 600.0);
  EXPECT_EQ(config.mid_band_coverage_scale, 0.6);
  EXPECT_FALSE(config.churn.enabled);

  config = ScenarioConfig{};
  apply_scenario_preset("churn", config);
  EXPECT_TRUE(config.churn.enabled);
  EXPECT_FALSE(config.bursts.enabled);

  config = ScenarioConfig{};
  apply_scenario_preset("bursty", config);
  EXPECT_TRUE(config.bursts.enabled);
  EXPECT_EQ(config.workload_trend_weight, 0.9);

  config = ScenarioConfig{};
  apply_scenario_preset("price-spike", config);
  EXPECT_EQ(config.price.spike_probability, 0.10);
  EXPECT_EQ(config.price.spike_multiplier, 6.0);
  // Presets never touch the identity knobs (seed, devices, horizon live
  // elsewhere) so they compose with CLI flags and sweep axes.
  EXPECT_EQ(config.devices, stock.devices);
  EXPECT_EQ(config.seed, stock.seed);
}

// The stream-preservation guarantee: a Scenario whose diversity knobs are
// all at their defaults draws the exact same state sequence as before the
// knobs existed (the churn/burst forks are appended after the historical
// forks and disabled features draw nothing). The "paper" preset is a no-op,
// so both worlds must agree slot for slot, bit for bit.
TEST(ScenarioRegistry, PaperPresetIsByteIdenticalToStockConfig) {
  ScenarioConfig preset_config = tiny_config();
  apply_scenario_preset("paper", preset_config);
  Scenario stock(tiny_config());
  Scenario preset(preset_config);
  for (int t = 0; t < 12; ++t) {
    const core::SlotState a = stock.next_state();
    const core::SlotState b = preset.next_state();
    ASSERT_EQ(a.task_cycles, b.task_cycles) << "slot " << t;
    ASSERT_EQ(a.data_bits, b.data_bits) << "slot " << t;
    ASSERT_EQ(a.channel, b.channel) << "slot " << t;
    ASSERT_EQ(a.price_per_mwh, b.price_per_mwh) << "slot " << t;
  }
}

// Enabling churn perturbs ONLY the workload magnitudes: channels and prices
// come from earlier forks and must stay untouched.
TEST(ScenarioRegistry, ChurnScalesWorkloadsWithoutTouchingOtherStreams) {
  ScenarioConfig churn_config = tiny_config();
  apply_scenario_preset("churn", churn_config);
  Scenario stock(tiny_config());
  Scenario churned(churn_config);
  std::size_t away_observations = 0;
  for (int t = 0; t < 40; ++t) {
    const core::SlotState a = stock.next_state();
    const core::SlotState b = churned.next_state();
    ASSERT_EQ(a.channel, b.channel) << "slot " << t;
    ASSERT_EQ(a.price_per_mwh, b.price_per_mwh) << "slot " << t;
    for (std::size_t i = 0; i < a.task_cycles.size(); ++i) {
      if (b.task_cycles[i] != a.task_cycles[i]) {
        // Away devices trickle at exactly the configured fraction.
        EXPECT_NEAR(b.task_cycles[i],
                    0.05 * a.task_cycles[i], 1e-6 * a.task_cycles[i]);
        EXPECT_NEAR(b.data_bits[i], 0.05 * a.data_bits[i],
                    1e-6 * a.data_bits[i]);
        ++away_observations;
      }
    }
  }
  // With leave 0.08 / join 0.25 over 40 slots x 8 devices, some device is
  // away for a meaningful share of the horizon.
  EXPECT_GT(away_observations, 10u);
}

TEST(ScenarioRegistry, BurstsScaleWholeSlotsByTheMultiplier) {
  ScenarioConfig bursty_config = tiny_config();
  bursty_config.workload_trend_weight = 0.5;  // isolate the burst knob
  bursty_config.bursts.enabled = true;
  bursty_config.bursts.probability = 0.2;
  Scenario stock(tiny_config());
  Scenario bursty(bursty_config);
  std::size_t burst_slots = 0;
  for (int t = 0; t < 60; ++t) {
    const core::SlotState a = stock.next_state();
    const core::SlotState b = bursty.next_state();
    ASSERT_EQ(a.channel, b.channel) << "slot " << t;
    const bool burst = b.task_cycles[0] != a.task_cycles[0];
    if (burst) {
      ++burst_slots;
      for (std::size_t i = 0; i < a.task_cycles.size(); ++i) {
        // Correlated: EVERY device in the slot carries the same 2.5x.
        EXPECT_NEAR(b.task_cycles[i], 2.5 * a.task_cycles[i],
                    1e-6 * a.task_cycles[i]);
        EXPECT_NEAR(b.data_bits[i], 2.5 * a.data_bits[i],
                    1e-6 * a.data_bits[i]);
      }
    }
  }
  EXPECT_GT(burst_slots, 3u);
  EXPECT_LT(burst_slots, 30u);
}

TEST(ScenarioRegistry, PriceSpikePresetRaisesTailPrices) {
  ScenarioConfig spike_config = tiny_config();
  apply_scenario_preset("price-spike", spike_config);
  Scenario stock(tiny_config());
  Scenario spiked(spike_config);
  double stock_max = 0.0;
  double spiked_max = 0.0;
  for (int t = 0; t < 200; ++t) {
    stock_max = std::max(stock_max, stock.next_state().price_per_mwh);
    spiked_max = std::max(spiked_max, spiked.next_state().price_per_mwh);
  }
  // p = 0.10 over 200 slots makes a 6x spike all but certain; the stock
  // trace spikes 3x with p = 0.01.
  EXPECT_GT(spiked_max, stock_max);
}

TEST(ScenarioRegistry, ConfigValidationRejectsBadKnobs) {
  ScenarioConfig config = tiny_config();
  config.mobility_slot_seconds = 0.0;
  EXPECT_THROW(Scenario{config}, std::invalid_argument);
  config = tiny_config();
  config.mid_band_coverage_scale = -1.0;
  EXPECT_THROW(Scenario{config}, std::invalid_argument);
  config = tiny_config();
  config.churn.leave_probability = 1.5;
  EXPECT_THROW(Scenario{config}, std::invalid_argument);
  config = tiny_config();
  config.churn.away_workload_fraction = 0.0;
  EXPECT_THROW(Scenario{config}, std::invalid_argument);
  config = tiny_config();
  config.bursts.multiplier = 0.5;
  EXPECT_THROW(Scenario{config}, std::invalid_argument);
}

// --- SweepSpec::scenario plumbing ---------------------------------------

SweepSpec tiny_sweep(const std::string& scenario) {
  SweepSpec spec;
  spec.name = "scenario_smoke";
  spec.base = tiny_config();
  spec.scenario = scenario;
  spec.axes = {{"budget", {0.9, 1.1}}};
  spec.policies = {"greedy-budget"};
  spec.horizon = 6;
  spec.window = 6;
  return spec;
}

TEST(SweepScenario, UnknownPresetThrowsAtValidation) {
  EXPECT_THROW((void)run_sweep(tiny_sweep("frobnicate"), 1),
               std::invalid_argument);
}

TEST(SweepScenario, PresetIsAppliedAndStampedIntoTheArtifact) {
  const SweepResult plain = run_sweep(tiny_sweep(""), 1);
  const SweepResult churned = run_sweep(tiny_sweep("churn"), 1);
  EXPECT_EQ(churned.scenario, "churn");
  EXPECT_TRUE(plain.scenario.empty());
  // Churn shrinks real load, so the two sweeps cannot coincide.
  ASSERT_EQ(plain.cells.size(), churned.cells.size());
  bool differs = false;
  for (std::size_t c = 0; c < plain.cells.size(); ++c) {
    differs = differs ||
              plain.cells[c].avg_latency != churned.cells[c].avg_latency;
  }
  EXPECT_TRUE(differs);
  // The artifact names the preset; a plain sweep omits the key.
  EXPECT_EQ(churned.to_json()["scenario"].as_string(), "churn");
  EXPECT_FALSE(plain.to_json().contains("scenario"));
}

TEST(SweepScenario, ResultsAreIdenticalAcrossThreadCounts) {
  const SweepResult one = run_sweep(tiny_sweep("bursty"), 1);
  const SweepResult eight = run_sweep(tiny_sweep("bursty"), 8);
  ASSERT_EQ(one.cells.size(), eight.cells.size());
  for (std::size_t c = 0; c < one.cells.size(); ++c) {
    EXPECT_EQ(one.cells[c].avg_latency, eight.cells[c].avg_latency);
    EXPECT_EQ(one.cells[c].avg_cost, eight.cells[c].avg_cost);
    EXPECT_EQ(one.cells[c].tail.latency, eight.cells[c].tail.latency);
  }
}

}  // namespace
}  // namespace eotora::sim
