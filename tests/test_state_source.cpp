// The streaming state pipeline: StateSource implementations must deliver
// byte-identical sequences to the materialized era, and run_policy over a
// stream must be bit-for-bit equal to run_policy over the pre-generated
// vector — that equivalence is what lets the goldens stand untouched.
#include "sim/state_source.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

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

// A 4-district metro world: every device has a roaming box, so the channel
// model keeps shadowing only for its own district's stations.
ScenarioConfig small_metro() {
  ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 16;
  config.servers_per_cluster = 2;
  config.seed = 7;
  return config;
}

void expect_states_equal(const core::SlotState& a, const core::SlotState& b,
                         std::size_t t) {
  EXPECT_EQ(a.slot, b.slot) << "slot index " << t;
  EXPECT_EQ(a.price_per_mwh, b.price_per_mwh) << "slot index " << t;
  EXPECT_EQ(a.task_cycles, b.task_cycles) << "slot index " << t;
  EXPECT_EQ(a.data_bits, b.data_bits) << "slot index " << t;
  EXPECT_EQ(a.channel, b.channel) << "slot index " << t;
}

std::vector<core::SlotState> drain(StateSource& source) {
  std::vector<core::SlotState> states;
  core::SlotState state;
  while (source.next(state)) states.push_back(state);
  return states;
}

TEST(MaterializedSourceTest, DeliversTheVectorThenExhausts) {
  Scenario scenario(tiny());
  const auto states = scenario.generate_states(5);
  MaterializedSource source(states);
  EXPECT_EQ(source.size_hint(), 5u);
  const auto streamed = drain(source);
  ASSERT_EQ(streamed.size(), states.size());
  for (std::size_t t = 0; t < states.size(); ++t) {
    expect_states_equal(streamed[t], states[t], t);
  }
  core::SlotState extra;
  EXPECT_FALSE(source.next(extra));
  source.reset();
  EXPECT_TRUE(source.next(extra));
  expect_states_equal(extra, states[0], 0);
}

TEST(ScenarioSourceTest, MatchesGenerateStatesExactly) {
  Scenario materialized(tiny());
  const auto states = materialized.generate_states(10);
  ScenarioSource source(tiny(), 10);
  EXPECT_EQ(source.size_hint(), 10u);
  const auto streamed = drain(source);
  ASSERT_EQ(streamed.size(), states.size());
  for (std::size_t t = 0; t < states.size(); ++t) {
    expect_states_equal(streamed[t], states[t], t);
  }
}

TEST(ScenarioSourceTest, ResetReplaysTheIdenticalSequence) {
  for (const ScenarioConfig& config : {tiny(), small_metro()}) {
    SCOPED_TRACE("metro_districts=" + std::to_string(config.metro_districts));
    ScenarioSource source(config, 6);
    const auto first = drain(source);
    source.reset();
    const auto second = drain(source);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t t = 0; t < first.size(); ++t) {
      expect_states_equal(first[t], second[t], t);
    }
  }
}

TEST(ScenarioSourceTest, InPlaceGenerationReusesTheBuffers) {
  Scenario scenario(tiny());
  core::SlotState state;
  scenario.next_state(state);  // settle the shapes
  const double* task_data = state.task_cycles.data();
  const double* bits_data = state.data_bits.data();
  const double* channel_row0 = state.channel.front().data();
  const auto* channel_rows = state.channel.data();
  for (int t = 0; t < 20; ++t) {
    scenario.next_state(state);
    // Same capacity refilled in place: no per-slot allocations, so the
    // data pointers must not move.
    EXPECT_EQ(state.task_cycles.data(), task_data);
    EXPECT_EQ(state.data_bits.data(), bits_data);
    EXPECT_EQ(state.channel.data(), channel_rows);
    EXPECT_EQ(state.channel.front().data(), channel_row0);
  }
}

TEST(ScenarioSourceTest, InPlaceAndValueFormsDrawTheSameStream) {
  Scenario by_value(tiny());
  Scenario in_place(tiny());
  core::SlotState buffer;
  for (std::size_t t = 0; t < 8; ++t) {
    const core::SlotState fresh = by_value.next_state();
    in_place.next_state(buffer);
    expect_states_equal(fresh, buffer, t);
  }
}

TEST(PrefetchSourceTest, DeliversTheInnerSequenceUnchanged) {
  ScenarioSource reference(tiny(), 12);
  const auto expected = drain(reference);
  ScenarioSource inner(tiny(), 12);
  PrefetchSource prefetch(inner);
  EXPECT_EQ(prefetch.size_hint(), 12u);
  const auto streamed = drain(prefetch);
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    expect_states_equal(streamed[t], expected[t], t);
  }
  core::SlotState extra;
  EXPECT_FALSE(prefetch.next(extra));
}

TEST(PrefetchSourceTest, ResetReplays) {
  ScenarioSource inner(tiny(), 5);
  PrefetchSource prefetch(inner);
  const auto first = drain(prefetch);
  prefetch.reset();
  const auto second = drain(prefetch);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t t = 0; t < first.size(); ++t) {
    expect_states_equal(first[t], second[t], t);
  }
}

// Streams `good_slots` states from a ScenarioSource, then throws from
// next() — the producer-side failure mode (e.g. a StateLogSource hitting a
// truncated frame mid-stream).
class ThrowingSource final : public StateSource {
 public:
  ThrowingSource(const ScenarioConfig& config, std::size_t good_slots)
      : inner_(config, good_slots + 1), good_slots_(good_slots) {}

  bool next(core::SlotState& out) override {
    if (produced_ >= good_slots_) {
      throw std::runtime_error("synthetic stream failure");
    }
    ++produced_;
    return inner_.next(out);
  }
  void reset() override {
    inner_.reset();
    produced_ = 0;
  }

 private:
  ScenarioSource inner_;
  std::size_t good_slots_;
  std::size_t produced_ = 0;
};

// The PR 5 bugfix: a producer error must NOT jump the queue. Every slot
// the inner source produced before throwing is delivered first — prefetch
// matches plain streaming slot-for-slot up to the failure — and only then
// does next() rethrow.
TEST(PrefetchSourceTest, DrainsProducedSlotsBeforeRethrowingProducerError) {
  constexpr std::size_t kGoodSlots = 8;
  // Reference: drain the throwing source directly (plain streaming).
  ThrowingSource reference(tiny(), kGoodSlots);
  std::vector<core::SlotState> expected;
  core::SlotState buffer;
  for (std::size_t t = 0; t < kGoodSlots; ++t) {
    ASSERT_TRUE(reference.next(buffer));
    expected.push_back(buffer);
  }
  EXPECT_THROW(reference.next(buffer), std::runtime_error);

  ThrowingSource inner(tiny(), kGoodSlots);
  // depth > good_slots lets the producer buffer everything AND hit the
  // error long before the consumer asks — the order the old code got wrong.
  PrefetchSource prefetch(inner, /*depth=*/kGoodSlots + 2);
  std::vector<core::SlotState> streamed;
  try {
    core::SlotState state;
    while (prefetch.next(state)) streamed.push_back(state);
    FAIL() << "prefetch swallowed the producer error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "synthetic stream failure");
  }
  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    expect_states_equal(streamed[t], expected[t], t);
  }
}

// After the rethrow the stream is terminal: subsequent next() calls keep
// rethrowing the same error rather than resuming data delivery or
// reporting a clean end of stream. reset() recovers.
TEST(PrefetchSourceTest, ProducerErrorIsTerminalUntilReset) {
  constexpr std::size_t kGoodSlots = 3;
  ThrowingSource inner(tiny(), kGoodSlots);
  PrefetchSource prefetch(inner, /*depth=*/kGoodSlots + 2);
  core::SlotState state;
  std::size_t delivered = 0;
  try {
    while (prefetch.next(state)) ++delivered;
    FAIL() << "prefetch swallowed the producer error";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(delivered, kGoodSlots);
  // Still throwing — and still the SAME error, not a clean end.
  EXPECT_THROW(prefetch.next(state), std::runtime_error);
  EXPECT_THROW(prefetch.next(state), std::runtime_error);
  // reset() rewinds the inner source and clears the error.
  prefetch.reset();
  EXPECT_TRUE(prefetch.next(state));
}

TEST(PrefetchSourceTest, StatsCountDeliveriesAndRestartOnReset) {
  ScenarioSource inner(tiny(), 7);
  PrefetchSource prefetch(inner);
  const auto first = drain(prefetch);
  ASSERT_EQ(first.size(), 7u);
  const auto stats = prefetch.stats();
  EXPECT_EQ(stats.delivered, 7u);
  EXPECT_GE(stats.max_ready_depth, 1u);
  EXPECT_GE(stats.ready_depth_sum, stats.delivered);
  prefetch.reset();
  EXPECT_EQ(prefetch.stats().delivered, 0u);
}

// The tentpole guarantee: for EVERY registered policy and several seeds,
// run_policy over a ScenarioSource is bit-for-bit identical to run_policy
// over a MaterializedSource of the same scenario's pre-generated states.
// This is the differential that lets streaming drains and identical-input
// comparisons share one run path, and the golden fixtures stand
// byte-identical.
TEST(StreamingDifferentialTest, StreamingEqualsMaterializedForAllPolicies) {
  const std::size_t horizon = 6;
  for (const std::string& name : registered_policies()) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      // Seed 4 runs the metro layout, whose boxed devices take the
      // coverage-shaped channel path.
      ScenarioConfig config = seed == 4 ? small_metro() : tiny();
      config.seed = 100 + seed;
      PolicyParams params;
      params.bdma_iterations = 2;
      params.mcba_iterations = 200;
      params.mpc.window = 2;

      Scenario scenario(config);
      const auto states = scenario.generate_states(horizon);
      MaterializedSource pre_drawn(states);
      auto materialized_policy = make_policy(name, scenario.instance(), params);
      const auto materialized =
          run_policy(*materialized_policy, pre_drawn, seed);

      ScenarioSource source(config, horizon);
      auto streaming_policy = make_policy(name, source.instance(), params);
      const auto streamed = run_policy(*streaming_policy, source, seed);

      SCOPED_TRACE("policy=" + name + " seed=" + std::to_string(seed));
      EXPECT_EQ(materialized.policy_name, streamed.policy_name);
      ASSERT_EQ(materialized.metrics.slots(), streamed.metrics.slots());
      // Bit-for-bit: the full per-slot series compare with double ==.
      EXPECT_EQ(materialized.metrics.latency_series(),
                streamed.metrics.latency_series());
      EXPECT_EQ(materialized.metrics.cost_series(),
                streamed.metrics.cost_series());
      EXPECT_EQ(materialized.metrics.queue_series(),
                streamed.metrics.queue_series());
      EXPECT_EQ(materialized.metrics.average_latency(),
                streamed.metrics.average_latency());
      EXPECT_EQ(materialized.metrics.average_energy_cost(),
                streamed.metrics.average_energy_cost());
      EXPECT_EQ(materialized.metrics.average_queue(),
                streamed.metrics.average_queue());
    }
  }
}

TEST(StreamingRunPolicyTest, AuditedOverloadMatchesMaterialized) {
  ScenarioConfig config = tiny();
  const std::size_t horizon = 5;
  AuditConfig audit;
  audit.mode = AuditMode::kEverySlot;

  Scenario scenario(config);
  const auto states = scenario.generate_states(horizon);
  MaterializedSource pre_drawn(states);
  auto policy_a = make_policy("dpp-bdma", scenario.instance());
  const auto materialized =
      run_policy(*policy_a, scenario.instance(), pre_drawn, audit, 4);

  ScenarioSource source(config, horizon);
  auto policy_b = make_policy("dpp-bdma", source.instance());
  const auto streamed =
      run_policy(*policy_b, source.instance(), source, audit, 4);

  EXPECT_EQ(materialized.audit.slots_audited, streamed.audit.slots_audited);
  EXPECT_EQ(materialized.audit.total_violations(),
            streamed.audit.total_violations());
  EXPECT_EQ(materialized.metrics.latency_series(),
            streamed.metrics.latency_series());
}

TEST(StreamingRunPolicyTest, EmptySourceThrows) {
  const std::vector<core::SlotState> empty;
  MaterializedSource source(empty);
  Scenario scenario(tiny());
  auto policy = make_policy("fixed-min", scenario.instance());
  EXPECT_THROW((void)run_policy(*policy, source), std::invalid_argument);
}

TEST(StreamingRunPolicyTest, KeepSeriesFalseKeepsAggregatesOnly) {
  ScenarioConfig config = tiny();
  const std::size_t horizon = 6;
  ScenarioSource source(config, horizon);
  auto policy = make_policy("dpp-bdma", source.instance());
  const auto lean = run_policy(*policy, source, 1, /*keep_series=*/false);

  Scenario scenario(config);
  const auto states = scenario.generate_states(horizon);
  MaterializedSource pre_drawn(states);
  auto reference_policy = make_policy("dpp-bdma", scenario.instance());
  const auto full = run_policy(*reference_policy, pre_drawn, 1);

  EXPECT_FALSE(lean.metrics.keeps_series());
  EXPECT_TRUE(lean.metrics.latency_series().empty());
  EXPECT_EQ(lean.metrics.slots(), full.metrics.slots());
  EXPECT_EQ(lean.metrics.average_latency(), full.metrics.average_latency());
  EXPECT_EQ(lean.metrics.average_energy_cost(),
            full.metrics.average_energy_cost());
  EXPECT_EQ(lean.metrics.average_queue(), full.metrics.average_queue());
  EXPECT_EQ(lean.metrics.max_queue(), full.metrics.max_queue());
  EXPECT_THROW((void)tail_averages(lean, 2), std::invalid_argument);
}

TEST(MetricsKeepSeriesTest, CannotFlipAfterRecording) {
  core::MetricsCollector metrics;
  core::DppSlotResult slot;
  slot.decision.frequencies = {1.0};
  metrics.record(slot);
  EXPECT_THROW(metrics.set_keep_series(false), std::invalid_argument);
}

TEST(TailAveragesTest, OversizedWindowNamesBothValues) {
  ScenarioSource source(tiny(), 4);
  auto policy = make_policy("fixed-min", source.instance());
  const auto result = run_policy(*policy, source, 1);
  try {
    (void)tail_averages(result, 10);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("window=10"), std::string::npos) << what;
    EXPECT_NE(what.find("4"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace eotora::sim
