// The delta ingest layer: SlotDelta validation and application edge cases,
// the recorder's bit-pattern diffing, and the headline determinism
// contract — a recorded delta stream replayed through DeltaSource yields
// decisions bit-identical to the batch run_policy drain over the original
// states.
#include "sim/delta.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/state_source.h"
#include "support/sim_oracles.h"

namespace eotora::sim {
namespace {

ScenarioConfig tiny() {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 2;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 7;
  return config;
}

// A minimal hand-built world: 2 devices x 2 base stations.
constexpr std::size_t kDevices = 2;
constexpr std::size_t kStations = 2;

SlotDelta snapshot(std::uint64_t slot) {
  SlotDelta delta;
  delta.slot = slot;
  delta.has_price = true;
  delta.price = 40.0;
  for (std::uint32_t i = 0; i < kDevices; ++i) {
    SlotDelta::Join join;
    join.device = i;
    join.task_cycles = 1e9 * (i + 1);
    join.data_bits = 1e6 * (i + 1);
    join.channel_row = {0.5, 0.25};
    delta.joins.push_back(join);
  }
  return delta;
}

void expect_states_equal(const core::SlotState& a, const core::SlotState& b,
                         std::size_t t) {
  EXPECT_EQ(a.slot, b.slot) << "slot index " << t;
  EXPECT_EQ(a.price_per_mwh, b.price_per_mwh) << "slot index " << t;
  EXPECT_EQ(a.task_cycles, b.task_cycles) << "slot index " << t;
  EXPECT_EQ(a.data_bits, b.data_bits) << "slot index " << t;
  EXPECT_EQ(a.channel, b.channel) << "slot index " << t;
}

TEST(DeltaApplier, SnapshotPopulatesState) {
  DeltaApplier applier(kDevices, kStations);
  core::SlotState state;
  applier.apply(snapshot(0), state);
  EXPECT_EQ(state.slot, 0u);
  EXPECT_DOUBLE_EQ(state.price_per_mwh, 40.0);
  EXPECT_DOUBLE_EQ(state.task_cycles[1], 2e9);
  EXPECT_DOUBLE_EQ(state.channel[0][1], 0.25);
  EXPECT_EQ(applier.active_devices(), kDevices);
}

TEST(DeltaApplier, RejectsJoinOfPresentDevice) {
  DeltaApplier applier(kDevices, kStations);
  core::SlotState state;
  applier.apply(snapshot(0), state);
  SlotDelta again;
  again.slot = 1;
  again.joins = snapshot(0).joins;  // device 0 is already present
  try {
    applier.apply(again, state);
    FAIL() << "duplicate join was accepted";
  } catch (const DeltaError& error) {
    EXPECT_EQ(error.kind(), DeltaError::Kind::kDuplicateJoin);
    EXPECT_EQ(error.slot(), 1u);
    EXPECT_EQ(error.device(), 0u);
  }
}

TEST(DeltaApplier, RejectsIntraDeltaDuplicateJoin) {
  DeltaApplier applier(kDevices, kStations);
  SlotDelta delta = snapshot(0);
  delta.joins.push_back(delta.joins[0]);  // same device twice in one delta
  core::SlotState state;
  EXPECT_THROW(applier.apply(delta, state), DeltaError);
}

TEST(DeltaApplier, RejectsLeaveOfUnknownDevice) {
  DeltaApplier applier(kDevices, kStations);
  SlotDelta delta;
  delta.slot = 0;
  delta.leaves.push_back(1);  // never joined
  core::SlotState state;
  try {
    applier.apply(delta, state);
    FAIL() << "leave of an absent device was accepted";
  } catch (const DeltaError& error) {
    EXPECT_EQ(error.kind(), DeltaError::Kind::kUnknownDevice);
    EXPECT_EQ(error.device(), 1u);
  }
}

// The first delta is a full snapshot: one that skips a device is refused,
// naming the first device it skips, and the applier is left untouched.
TEST(DeltaApplier, RejectsFirstDeltaThatSkipsADevice) {
  DeltaApplier applier(kDevices, kStations);
  SlotDelta partial = snapshot(0);
  partial.joins.erase(partial.joins.begin());  // device 0 never joins
  core::SlotState state;
  try {
    applier.apply(partial, state);
    FAIL() << "a first delta without device 0 was accepted";
  } catch (const DeltaError& error) {
    EXPECT_EQ(error.kind(), DeltaError::Kind::kMissingJoin);
    EXPECT_EQ(error.slot(), 0u);
    EXPECT_EQ(error.device(), 0u);
  }
  EXPECT_EQ(applier.applied(), 0u);
  EXPECT_EQ(applier.active_devices(), 0u);
  EXPECT_EQ(applier.state().task_cycles, std::vector<double>(kDevices, 0.0));
  // A price tick is no snapshot either.
  SlotDelta tick;
  tick.slot = 0;
  tick.has_price = true;
  tick.price = 50.0;
  EXPECT_THROW(applier.apply(tick, state), DeltaError);
  EXPECT_EQ(applier.applied(), 0u);
  // A full snapshot still starts the stream, and after reset() the rule
  // holds again.
  applier.apply(snapshot(0), state);
  EXPECT_EQ(applier.active_devices(), kDevices);
  applier.reset();
  EXPECT_THROW(applier.apply(partial, state), DeltaError);
}

TEST(DeltaApplier, RejectsOutOfOrderSlotCommit) {
  DeltaApplier applier(kDevices, kStations);
  core::SlotState state;
  applier.apply(snapshot(0), state);
  SlotDelta skip;
  skip.slot = 5;  // expected 1
  try {
    applier.apply(skip, state);
    FAIL() << "slot skip was accepted";
  } catch (const DeltaError& error) {
    EXPECT_EQ(error.kind(), DeltaError::Kind::kOutOfOrderSlot);
  }
  // Replaying the SAME slot again is equally out of order.
  SlotDelta same;
  same.slot = 0;
  EXPECT_THROW(applier.apply(same, state), DeltaError);
  // The stream can start at any slot number, though.
  DeltaApplier late(kDevices, kStations);
  EXPECT_NO_THROW(late.apply(snapshot(17), state));
  EXPECT_EQ(state.slot, 17u);
}

TEST(DeltaApplier, PriceOnlyDeltaLeavesEverythingElse) {
  DeltaApplier applier(kDevices, kStations);
  core::SlotState before;
  applier.apply(snapshot(0), before);
  SlotDelta tick;
  tick.slot = 1;
  tick.has_price = true;
  tick.price = 95.5;
  core::SlotState after;
  applier.apply(tick, after);
  EXPECT_EQ(after.slot, 1u);
  EXPECT_DOUBLE_EQ(after.price_per_mwh, 95.5);
  EXPECT_EQ(after.task_cycles, before.task_cycles);
  EXPECT_EQ(after.data_bits, before.data_bits);
  EXPECT_EQ(after.channel, before.channel);
  EXPECT_EQ(applier.active_devices(), kDevices);
}

TEST(DeltaApplier, RejectedDeltaMutatesNothing) {
  DeltaApplier applier(kDevices, kStations);
  core::SlotState before;
  applier.apply(snapshot(0), before);
  // Valid price AND an invalid workload in the same delta: the price must
  // NOT stick.
  SlotDelta bad;
  bad.slot = 1;
  bad.has_price = true;
  bad.price = 99.0;
  bad.workloads.push_back({0, -1.0, 1e6});
  core::SlotState scratch;
  EXPECT_THROW(applier.apply(bad, scratch), DeltaError);
  EXPECT_EQ(applier.applied(), 1u);
  expect_states_equal(applier.state(), before, 1);
  // The stream continues as if the bad delta never arrived.
  SlotDelta good;
  good.slot = 1;
  good.workloads.push_back({0, 3e9, 2e6});
  core::SlotState after;
  EXPECT_NO_THROW(applier.apply(good, after));
  EXPECT_DOUBLE_EQ(after.price_per_mwh, 40.0);
  EXPECT_DOUBLE_EQ(after.task_cycles[0], 3e9);
}

TEST(DeltaApplier, LeaveScalesToKeepAliveAndRejoinRestores) {
  DeltaApplier applier(kDevices, kStations, 0.5);
  core::SlotState state;
  applier.apply(snapshot(0), state);
  SlotDelta leave;
  leave.slot = 1;
  leave.leaves.push_back(0);
  applier.apply(leave, state);
  EXPECT_EQ(applier.active_devices(), kDevices - 1);
  EXPECT_DOUBLE_EQ(state.task_cycles[0], 0.5e9);  // keep-alive trickle
  EXPECT_DOUBLE_EQ(state.data_bits[0], 0.5e6);
  EXPECT_DOUBLE_EQ(state.channel[0][0], 0.5);  // channel row intact
  // An update of a left device is rejected...
  SlotDelta update;
  update.slot = 2;
  update.workloads.push_back({0, 1e9, 1e6});
  EXPECT_THROW(applier.apply(update, state), DeltaError);
  // ...but a rejoin reactivates the slot with fresh values.
  SlotDelta rejoin;
  rejoin.slot = 2;
  SlotDelta::Join join;
  join.device = 0;
  join.task_cycles = 7e9;
  join.data_bits = 7e6;
  join.channel_row = {0.1, 0.2};
  rejoin.joins.push_back(join);
  applier.apply(rejoin, state);
  EXPECT_EQ(applier.active_devices(), kDevices);
  EXPECT_DOUBLE_EQ(state.task_cycles[0], 7e9);
}

TEST(DeltaApplier, RejectsBadValuesAndShapes) {
  core::SlotState state;
  {
    DeltaApplier applier(kDevices, kStations);
    SlotDelta delta = snapshot(0);
    delta.joins[0].channel_row = {0.5};  // wrong row width
    EXPECT_THROW(applier.apply(delta, state), DeltaError);
  }
  {
    DeltaApplier applier(kDevices, kStations);
    SlotDelta delta = snapshot(0);
    delta.joins[0].device = 9;  // out of range
    EXPECT_THROW(applier.apply(delta, state), DeltaError);
  }
  {
    DeltaApplier applier(kDevices, kStations);
    SlotDelta delta = snapshot(0);
    delta.joins[1].channel_row[0] = -0.25;  // negative efficiency
    EXPECT_THROW(applier.apply(delta, state), DeltaError);
  }
  {
    DeltaApplier applier(kDevices, kStations);
    SlotDelta delta = snapshot(0);
    delta.price = -5.0;  // non-positive price
    EXPECT_THROW(applier.apply(delta, state), DeltaError);
  }
}

TEST(DeltaRecorder, UnchangedStateDiffsToEmptyDelta) {
  DeltaRecorder recorder;
  Scenario scenario(tiny());
  auto states = scenario.generate_states(1);
  SlotDelta delta;
  recorder.diff(states[0], delta);
  EXPECT_EQ(delta.joins.size(), tiny().devices);  // full snapshot first
  EXPECT_TRUE(delta.has_price);
  core::SlotState repeat = states[0];
  repeat.slot = 1;
  recorder.diff(repeat, delta);
  EXPECT_TRUE(delta.joins.empty());
  EXPECT_TRUE(delta.workloads.empty());
  EXPECT_TRUE(delta.channels.empty());
  EXPECT_FALSE(delta.has_price);
  EXPECT_EQ(delta.slot, 1u);
}

TEST(DeltaRecorder, MinusZeroCountsAsAChange) {
  DeltaRecorder recorder;
  core::SlotState state;
  state.slot = 0;
  state.task_cycles = {1e9};
  state.data_bits = {1e6};
  state.channel = {{0.0}};
  SlotDelta delta;
  recorder.diff(state, delta);
  state.slot = 1;
  state.channel = {{-0.0}};  // same value, different bit pattern
  recorder.diff(state, delta);
  ASSERT_EQ(delta.channels.size(), 1u);
}

// A stream's shape is fixed by its first state: dropping a device or
// resizing one channel row later is rejected, not diffed.
TEST(DeltaRecorder, RejectsAMidStreamShapeChange) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(2);
  SlotDelta delta;
  {
    DeltaRecorder recorder;
    recorder.diff(states[0], delta);
    core::SlotState fewer = states[1];
    fewer.task_cycles.pop_back();
    fewer.data_bits.pop_back();
    fewer.channel.pop_back();
    EXPECT_THROW(recorder.diff(fewer, delta), std::invalid_argument);
  }
  {
    DeltaRecorder recorder;
    recorder.diff(states[0], delta);
    core::SlotState narrower = states[1];
    narrower.channel[3].pop_back();
    EXPECT_THROW(recorder.diff(narrower, delta), std::invalid_argument);
  }
  {
    DeltaRecorder recorder;
    recorder.diff(states[0], delta);
    core::SlotState ragged = states[1];
    ragged.data_bits.pop_back();  // one vector shorter than the others
    EXPECT_THROW(recorder.diff(ragged, delta), std::invalid_argument);
  }
}

TEST(DeltaSource, ReconstructsRecordedStatesByteForByte) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(48);
  const auto deltas = record_deltas(states);
  ASSERT_EQ(deltas.size(), states.size());
  DeltaSource source(deltas, tiny().devices,
                     states[0].channel[0].size());
  EXPECT_EQ(source.size_hint(), states.size());
  core::SlotState state;
  for (std::size_t t = 0; t < states.size(); ++t) {
    ASSERT_TRUE(source.next(state));
    expect_states_equal(state, states[t], t);
  }
  EXPECT_FALSE(source.next(state));
  // reset() replays the identical sequence.
  source.reset();
  ASSERT_TRUE(source.next(state));
  expect_states_equal(state, states[0], 0);
}

// The headline contract: decisions over the delta-reconstructed stream are
// bit-identical to the batch run over the original states, for every
// registry policy (warm-start state and the virtual queue included).
TEST(DeltaSource, RunPolicyMatchesBatchBitForBit) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(72);
  const auto deltas = record_deltas(states);
  for (const std::string& name : registered_policies()) {
    auto batch_policy =
        make_policy(name, scenario.instance(), PolicyParams{});
    MaterializedSource batch_source(states);
    const auto batch = run_policy(*batch_policy, batch_source);

    DeltaSource source(deltas, tiny().devices,
                       states[0].channel[0].size());
    auto replay_policy =
        make_policy(name, scenario.instance(), PolicyParams{});
    const auto replayed = run_policy(*replay_policy, source);

    EXPECT_EQ(batch.metrics.latency_series(),
              replayed.metrics.latency_series())
        << "policy " << name;
    EXPECT_EQ(batch.metrics.cost_series(), replayed.metrics.cost_series())
        << "policy " << name;
    EXPECT_EQ(batch.metrics.queue_series(), replayed.metrics.queue_series())
        << "policy " << name;
  }
}

}  // namespace
}  // namespace eotora::sim
