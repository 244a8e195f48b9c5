// The serve layer: wire codec round trips (fuzzed), strict decode of
// malformed frames, incremental frame reassembly, the SPSC ring under a
// real two-thread producer/consumer, and the ServeLoop differential — the
// daemon's decide loop must reproduce run_policy bit for bit.
#include "serve/codec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "serve/ring.h"
#include "serve/server.h"
#include "sim/delta.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace eotora::serve {
namespace {

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

// A random delta exercising every section, including adversarial doubles
// (negative zero, denormals, huge magnitudes) that only survive a round
// trip if the codec moves raw bit patterns.
sim::SlotDelta random_delta(util::Rng& rng) {
  const auto weird_double = [&rng]() -> double {
    switch (rng.uniform_int(0, 4)) {
      case 0: return -0.0;
      case 1: return 5e-324;  // smallest denormal
      case 2: return 1.7976931348623157e308;
      case 3: return rng.uniform(-1e6, 1e6);
      default: return rng.normal(0.0, 1e3);
    }
  };
  const auto row = [&](std::size_t width) {
    std::vector<double> values(width);
    for (double& v : values) v = weird_double();
    return values;
  };
  sim::SlotDelta delta;
  delta.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  delta.has_price = rng.uniform_int(0, 1) == 1;
  delta.price = delta.has_price ? weird_double() : 0.0;
  const std::size_t width = static_cast<std::size_t>(rng.uniform_int(1, 5));
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    sim::SlotDelta::Join join;
    join.device = static_cast<std::uint32_t>(rng.uniform_int(0, 100));
    join.task_cycles = weird_double();
    join.data_bits = weird_double();
    join.channel_row = row(width);
    delta.joins.push_back(std::move(join));
  }
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    delta.leaves.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 100)));
  }
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    delta.workloads.push_back(
        {static_cast<std::uint32_t>(rng.uniform_int(0, 100)), weird_double(),
         weird_double()});
  }
  for (std::int64_t i = rng.uniform_int(0, 3); i > 0; --i) {
    delta.channels.push_back(
        {static_cast<std::uint32_t>(rng.uniform_int(0, 100)), row(width)});
  }
  return delta;
}

TEST(Codec, HelloRoundTrip) {
  Hello hello;
  hello.devices = 123;
  hello.base_stations = 45;
  hello.want_decisions = true;
  const Hello back = decode_hello(encode_hello(hello));
  EXPECT_EQ(back.devices, 123u);
  EXPECT_EQ(back.base_stations, 45u);
  EXPECT_TRUE(back.want_decisions);
}

TEST(Codec, HelloRejectsBadMagicAndVersion) {
  Hello hello;
  hello.devices = 1;
  hello.base_stations = 1;
  auto payload = encode_hello(hello);
  auto corrupt = payload;
  corrupt[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)decode_hello(corrupt), CodecError);
  corrupt = payload;
  corrupt[4] ^= 0xFF;  // version
  EXPECT_THROW((void)decode_hello(corrupt), CodecError);
}

TEST(Codec, DecisionRoundTripIsBitExact) {
  DecisionReply reply;
  reply.slot = 0xDEADBEEFCAFEull;
  reply.latency = -0.0;
  reply.energy_cost = 5e-324;
  reply.theta = -123.456;
  reply.queue_after = 1e308;
  const DecisionReply back = decode_decision(encode_decision(reply));
  EXPECT_EQ(back.slot, reply.slot);
  EXPECT_EQ(std::memcmp(&back.latency, &reply.latency, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.energy_cost, &reply.energy_cost,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&back.theta, &reply.theta, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&back.queue_after, &reply.queue_after,
                        sizeof(double)),
            0);
}

// The fuzz: 25 seeds x 40 deltas; SlotDelta's operator== compares bit
// patterns, so this asserts exact reconstruction.
TEST(Codec, DeltaRoundTripFuzz) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const sim::SlotDelta delta = random_delta(rng);
      const sim::SlotDelta back = decode_delta(encode_delta(delta));
      EXPECT_EQ(back, delta) << "seed " << seed << ", delta " << i;
    }
  }
}

// Strictness: every truncation of a valid payload must throw, never return
// a partial delta; so must trailing garbage.
TEST(Codec, DeltaRejectsTruncationAndTrailingBytes) {
  util::Rng rng(3);
  const auto payload = encode_delta(random_delta(rng));
  ASSERT_GT(payload.size(), 2u);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + cut);
    EXPECT_THROW((void)decode_delta(truncated), CodecError) << "cut " << cut;
  }
  auto extended = payload;
  extended.push_back(0);
  EXPECT_THROW((void)decode_delta(extended), CodecError);
}

// A corrupt element count must not provoke a giant allocation: counts are
// bounded by the bytes actually remaining in the payload.
TEST(Codec, DeltaRejectsOversizedCounts) {
  sim::SlotDelta delta;
  delta.slot = 1;
  auto payload = encode_delta(delta);
  // The joins count lives right after slot(8) + has_price(1) + price(8).
  const std::size_t count_offset = 8 + 1 + 8;
  ASSERT_LT(count_offset + 4, payload.size() + 4);
  payload[count_offset] = 0xFF;
  payload[count_offset + 1] = 0xFF;
  payload[count_offset + 2] = 0xFF;
  payload[count_offset + 3] = 0x7F;
  EXPECT_THROW((void)decode_delta(payload), CodecError);
}

TEST(FrameAssembler, ReassemblesAcrossArbitrarySplits) {
  util::Rng rng(11);
  std::vector<sim::SlotDelta> deltas;
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 10; ++i) {
    deltas.push_back(random_delta(rng));
    const auto frame =
        encode_frame(FrameType::kDelta, encode_delta(deltas.back()));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  // Feed the byte stream in random-sized chunks, including 1-byte feeds.
  FrameAssembler assembler;
  std::vector<sim::SlotDelta> decoded;
  std::size_t offset = 0;
  Frame frame;
  while (offset < wire.size()) {
    const std::size_t chunk = static_cast<std::size_t>(rng.uniform_int(
        1, std::min<std::int64_t>(7, wire.size() - offset)));
    assembler.feed(wire.data() + offset, chunk);
    offset += chunk;
    while (assembler.next(frame)) {
      ASSERT_EQ(frame.type, FrameType::kDelta);
      decoded.push_back(sim::SlotDelta{});
      decoded.back() = serve::decode_delta(frame.payload);
    }
  }
  EXPECT_EQ(assembler.buffered(), 0u);
  ASSERT_EQ(decoded.size(), deltas.size());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_EQ(decoded[i], deltas[i]) << "frame " << i;
  }
}

TEST(FrameAssembler, RejectsCorruptLengthAndType) {
  {
    FrameAssembler assembler;
    // Length prefix above kMaxFramePayload.
    const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    assembler.feed(huge, 4);
    Frame frame;
    EXPECT_THROW((void)assembler.next(frame), CodecError);
  }
  {
    FrameAssembler assembler;
    // Valid length, unknown type tag 0x63.
    const std::uint8_t bad_type[6] = {2, 0, 0, 0, 0x63, 0};
    assembler.feed(bad_type, 6);
    Frame frame;
    EXPECT_THROW((void)assembler.next(frame), CodecError);
  }
  {
    FrameAssembler assembler;
    // Zero-length frame: no room for even the type tag.
    const std::uint8_t empty[4] = {0, 0, 0, 0};
    assembler.feed(empty, 4);
    Frame frame;
    EXPECT_THROW((void)assembler.next(frame), CodecError);
  }
}

TEST(SpscRing, CapacityRoundsUpAndBounds) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_TRUE(!ring.try_push(99));  // full
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));  // slot freed
  for (int expected = 1; expected <= 4; ++expected) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.empty());
}

// Two real threads hammer a small ring; every element must arrive exactly
// once, in order. CI additionally runs this binary under TSan.
TEST(SpscRing, TwoThreadStressPreservesFifoOrder) {
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(64);
  std::atomic<bool> start{false};
  std::uint64_t received = 0;
  bool ordered = true;
  std::thread consumer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    std::uint64_t value = 0;
    while (received < kCount) {
      if (ring.try_pop(value)) {
        ordered = ordered && value == received;
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::thread producer([&] {
    start.store(true, std::memory_order_release);
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(std::uint64_t(i))) std::this_thread::yield();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_TRUE(ordered);
  EXPECT_TRUE(ring.empty());
}

// The tentpole differential: a ServeLoop fed the recorded delta stream from
// another thread produces per-slot decisions bit-identical to the batch
// run_policy drain over the original states.
TEST(ServeLoop, DecisionsMatchRunPolicyBitForBit) {
  sim::Scenario scenario(tiny());
  const auto states = scenario.generate_states(72);
  const auto deltas = sim::record_deltas(states);

  auto batch_policy =
      sim::make_policy("dpp-bdma", scenario.instance(), sim::PolicyParams{});
  sim::MaterializedSource batch_source(states);
  const auto batch = sim::run_policy(*batch_policy, batch_source);

  ServeOptions options;
  options.ring_capacity = 8;  // force back-pressure on the producer
  ServeLoop loop(scenario.instance(),
                 sim::make_policy("dpp-bdma", scenario.instance(),
                                  sim::PolicyParams{}),
                 options);
  std::vector<double> latency;
  std::vector<double> cost;
  std::vector<double> queue;
  std::vector<std::uint64_t> slots;
  loop.set_decision_callback(
      [&](std::uint64_t slot, const core::DppSlotResult& result) {
        slots.push_back(slot);
        latency.push_back(result.latency);
        cost.push_back(result.energy_cost);
        queue.push_back(result.queue_after);
      });
  std::thread decide([&loop] { loop.run(); });
  for (const sim::SlotDelta& delta : deltas) {
    while (!loop.submit(delta)) {
      ASSERT_FALSE(loop.failed());
      std::this_thread::yield();
    }
  }
  while (!loop.drained()) std::this_thread::yield();
  loop.request_stop();
  decide.join();
  ASSERT_FALSE(loop.failed());

  EXPECT_EQ(batch.metrics.latency_series(), latency);
  EXPECT_EQ(batch.metrics.cost_series(), cost);
  EXPECT_EQ(batch.metrics.queue_series(), queue);
  ASSERT_EQ(slots.size(), states.size());
  for (std::size_t t = 0; t < slots.size(); ++t) {
    EXPECT_EQ(slots[t], states[t].slot) << "slot index " << t;
  }

  const ServeMetrics metrics = loop.metrics();
  EXPECT_EQ(metrics.slots_decided, states.size());
  EXPECT_EQ(metrics.deltas_submitted, states.size());
  EXPECT_EQ(metrics.last_slot, states.back().slot);
  EXPECT_EQ(metrics.ingest_depth, 0u);
  EXPECT_LE(metrics.ingest_depth_max, 8u);
  EXPECT_TRUE(metrics.error.empty());
  EXPECT_GT(metrics.decide_p99_us, 0.0);
  EXPECT_GE(metrics.decide_max_us, metrics.decide_p99_us);
  const util::Json doc = metrics.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "eotora-serve-metrics-v1");
  EXPECT_EQ(doc.at("slots_decided").as_number(),
            static_cast<double>(states.size()));
}

// A rejected delta poisons the loop: failed() turns true, the structured
// message lands in metrics().error, and later submits bounce.
TEST(ServeLoop, RejectedDeltaPoisonsTheLoop) {
  sim::Scenario scenario(tiny());
  const auto states = scenario.generate_states(2);
  auto deltas = sim::record_deltas(states);
  deltas[1].slot = 99;  // out-of-order commit
  ServeLoop loop(scenario.instance(),
                 sim::make_policy("greedy-budget", scenario.instance(),
                                  sim::PolicyParams{}),
                 ServeOptions{});
  std::thread decide([&loop] { loop.run(); });
  for (const sim::SlotDelta& delta : deltas) {
    while (!loop.submit(delta) && !loop.failed()) {
      std::this_thread::yield();
    }
  }
  while (!loop.drained()) std::this_thread::yield();
  loop.request_stop();
  decide.join();
  EXPECT_TRUE(loop.failed());
  const ServeMetrics metrics = loop.metrics();
  EXPECT_EQ(metrics.slots_decided, 1u);
  EXPECT_NE(metrics.error.find("out-of-order slot"), std::string::npos)
      << metrics.error;
  EXPECT_FALSE(loop.submit(deltas[0]));  // poisoned loops accept nothing
}

}  // namespace
}  // namespace eotora::serve
