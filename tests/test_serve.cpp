// The serve layer: wire codec round trips (fuzzed), strict decode of
// malformed frames, incremental frame reassembly, the SPSC ring under a
// real two-thread producer/consumer, the ServeLoop differential — the
// daemon's decide loop must reproduce run_policy bit for bit —, state
// logs, whose replay must reproduce the recorded run bit for bit and
// reject every file or slot the instance cannot take, and the client
// session over a real Unix socket, which must answer every error with a
// kError.
#include "serve/codec.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/ring.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/state_log.h"
#include "sim/delta.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/scenario_registry.h"
#include "sim/simulator.h"
#include "sim/state_source.h"
#include "support/sim_oracles.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

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

// The decide-latency window keeps the most recent samples for the
// percentiles and every sample for the max: at capacity 4, after 6 samples
// the percentiles see the last 4 and the max sees all 6.
TEST(LatencyWindow, PercentilesSeeTheLastSamplesAndTheMaxSeesAll) {
  LatencyWindow window(4);
  ServeMetrics empty;
  fill_decide_latencies(window.samples(), window.max(), empty);
  EXPECT_EQ(empty.decide_p50_us, 0.0);
  EXPECT_EQ(empty.decide_max_us, 0.0);
  for (const double us : {100.0, 1.0, 2.0, 3.0, 4.0, 5.0}) window.add(us);
  ASSERT_EQ(window.samples().size(), 4u);
  ServeMetrics metrics;
  fill_decide_latencies(window.samples(), window.max(), metrics);
  const std::vector<double> last_four = {2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(metrics.decide_p50_us, util::percentile(last_four, 50.0));
  EXPECT_EQ(metrics.decide_p99_us, util::percentile(last_four, 99.0));
  EXPECT_EQ(metrics.decide_max_us, 100.0);
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

// ---------------------------------------------------------------------------
// State logs

// A log (or socket) path unique to the running test and process, removed
// on scope exit.
struct ScratchLog {
  explicit ScratchLog(const std::string& tag = "",
                      const std::string& extension = ".eot") {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    path = (std::filesystem::temp_directory_path() /
            ("eotora_" + std::string(test->name()) + tag + "_" +
             std::to_string(::getpid()) + extension))
               .string();
    std::remove(path.c_str());
  }
  ~ScratchLog() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Hello hello_for(const core::Instance& instance, bool want_decisions = false) {
  Hello hello;
  hello.devices = static_cast<std::uint32_t>(instance.num_devices());
  hello.base_stations =
      static_cast<std::uint32_t>(instance.num_base_stations());
  hello.want_decisions = want_decisions;
  return hello;
}

// The session a client would send: a hello, then one frame per delta.
std::vector<std::uint8_t> session_bytes(
    const core::Instance& instance, const std::vector<sim::SlotDelta>& deltas) {
  std::vector<std::uint8_t> bytes =
      encode_frame(FrameType::kHello, encode_hello(hello_for(instance)));
  for (const sim::SlotDelta& delta : deltas) {
    const auto frame = encode_frame(FrameType::kDelta, encode_delta(delta));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

std::vector<core::SlotState> drain(sim::StateSource& source) {
  std::vector<core::SlotState> states;
  core::SlotState state;
  while (source.next(state)) states.push_back(state);
  return states;
}

// Bit-for-bit equality of two state sequences: SlotDelta's == compares
// IEEE-754 bit patterns, and a sequence's recorded stream starts with a
// full snapshot, so equal streams mean equal bits in every field.
void expect_bit_identical(const std::vector<core::SlotState>& a,
                          const std::vector<core::SlotState>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(sim::record_deltas(a) == sim::record_deltas(b));
}

// Opening the log fails, naming what is wrong with the file.
void expect_open_fails(const std::string& path, const std::string& what) {
  try {
    StateLogSource source(path);
    ADD_FAILURE() << "opened " << path;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << error.what();
  }
}

// The tee writes exactly the session a served run ingests: a hello with
// want_decisions off, then DeltaRecorder's stream, one frame per slot.
TEST(StateLog, TeeWritesTheSessionAClientWouldSend) {
  const ScratchLog log;
  sim::ScenarioSource inner(tiny(), 12);
  RecordingSource tee(inner, log.path);
  const auto states = drain(tee);
  EXPECT_EQ(file_bytes(log.path),
            session_bytes(inner.instance(), sim::record_deltas(states)));
}

// The hello's base-station count comes from the first row, so a state with
// a row of another width cannot be recorded.
TEST(StateLog, TeeRejectsARaggedChannelRow) {
  const ScratchLog log;
  sim::Scenario scenario(tiny());
  auto states = scenario.generate_states(1);
  states[0].channel[2].pop_back();
  sim::MaterializedSource inner(states);
  RecordingSource tee(inner, log.path);
  core::SlotState state;
  EXPECT_THROW((void)tee.next(state), std::invalid_argument);
}

// Every registered preset on a small paper world, plus a 4-district metro
// world whose devices see only their own district's stations.
TEST(StateLog, EveryPresetAndAMetroWorldReplayBitForBit) {
  std::vector<std::pair<std::string, sim::ScenarioConfig>> worlds;
  for (const std::string& name : sim::registered_scenarios()) {
    sim::ScenarioConfig config;
    sim::apply_scenario_preset(name, config);
    config.devices = 8;
    config.seed = 7;
    worlds.emplace_back(name, config);
  }
  sim::ScenarioConfig metro;
  metro.metro_districts = 4;
  metro.devices = 16;
  metro.servers_per_cluster = 2;
  metro.seed = 7;
  worlds.emplace_back("metro-4", metro);

  for (const auto& [name, config] : worlds) {
    SCOPED_TRACE(name);
    const ScratchLog log(name);
    sim::ScenarioSource inner(config, 24);
    RecordingSource tee(inner, log.path);
    const auto recorded = drain(tee);
    ASSERT_EQ(recorded.size(), 24u);
    const auto bytes = file_bytes(log.path);

    StateLogSource replay(log.path);
    EXPECT_EQ(replay.devices(), inner.instance().num_devices());
    EXPECT_EQ(replay.base_stations(), inner.instance().num_base_stations());
    expect_bit_identical(drain(replay), recorded);
    replay.reset();
    expect_bit_identical(drain(replay), recorded);

    // The tee's reset() starts the log again and rewrites the same bytes.
    tee.reset();
    EXPECT_EQ(drain(tee).size(), recorded.size());
    EXPECT_EQ(file_bytes(log.path), bytes);
  }
}

// The log differential: a dpp-bdma run over the log decides exactly what
// the run that recorded it decided, queue and solver work included.
TEST(StateLog, DppBdmaOverTheLogDecidesWhatTheRecordingRunDecided) {
  const ScratchLog log;
  sim::ScenarioSource inner(tiny(), 48);
  RecordingSource tee(inner, log.path);
  auto live_policy =
      sim::make_policy("dpp-bdma", inner.instance(), sim::PolicyParams{});
  const auto live = sim::run_policy(*live_policy, tee);

  StateLogSource replay(log.path);
  auto replay_policy =
      sim::make_policy("dpp-bdma", inner.instance(), sim::PolicyParams{});
  const auto replayed = sim::run_policy(*replay_policy, replay);

  EXPECT_EQ(live.metrics.latency_series(), replayed.metrics.latency_series());
  EXPECT_EQ(live.metrics.cost_series(), replayed.metrics.cost_series());
  EXPECT_EQ(live.metrics.queue_series(), replayed.metrics.queue_series());
  EXPECT_TRUE(live.counters == replayed.counters);
}

TEST(StateLog, MissingFileIsRejected) {
  const ScratchLog log;
  expect_open_fails(log.path, "cannot open state log");
}

TEST(StateLog, EmptyFileIsRejected) {
  const ScratchLog log;
  write_bytes(log.path, {});
  expect_open_fails(log.path, "is empty");
}

TEST(StateLog, LogWithoutALeadingHelloIsRejected) {
  const ScratchLog log;
  write_bytes(log.path,
              encode_frame(FrameType::kDelta, encode_delta(sim::SlotDelta{})));
  expect_open_fails(log.path, "does not start with a kHello");
}

// A shape whose snapshot could not fit one frame cannot come from a
// recording, and is refused before anything is sized for it.
TEST(StateLog, HelloWithAnImpossibleShapeIsRejected) {
  const ScratchLog log;
  for (const auto& [devices, stations] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 6},
        {30, 0},
        {1u << 20, 1u << 20},
        {1, 0xFFFFFFFFu},
        {0xFFFFFFFFu, 1}}) {
    Hello hello;
    hello.devices = devices;
    hello.base_stations = stations;
    write_bytes(log.path, encode_frame(FrameType::kHello, encode_hello(hello)));
    expect_open_fails(log.path, "impossible shape");
  }
}

// A log cut mid-frame delivers its whole slots, then fails on the partial
// one instead of ending cleanly one slot short.
TEST(StateLog, TruncatedTailIsRejected) {
  const ScratchLog log;
  sim::ScenarioSource inner(tiny(), 4);
  RecordingSource tee(inner, log.path);
  auto recorded = drain(tee);
  auto bytes = file_bytes(log.path);
  bytes.resize(bytes.size() - 5);
  write_bytes(log.path, bytes);

  StateLogSource replay(log.path);
  std::vector<core::SlotState> delivered(recorded.size() - 1);
  for (core::SlotState& state : delivered) ASSERT_TRUE(replay.next(state));
  recorded.pop_back();
  expect_bit_identical(delivered, recorded);
  core::SlotState state;
  EXPECT_THROW((void)replay.next(state), CodecError);
}

// Slot 1 of a clean 2-slot log, corrupted one way per case: the applier
// rejects it with the matching kind, naming slot 1 and the device.
TEST(StateLog, OutOfDomainSlotIsRejectedNamingSlotAndDevice) {
  sim::Scenario scenario(tiny());
  const auto states = scenario.generate_states(2);
  const auto clean = sim::record_deltas(states);
  ASSERT_EQ(clean[1].slot, 1u);
  using Kind = sim::DeltaError::Kind;
  const auto expect_rejected = [&](const std::string& name, Kind kind,
                                   std::size_t device, auto corrupt) {
    SCOPED_TRACE(name);
    sim::SlotDelta slot1 = clean[1];
    corrupt(slot1);
    const ScratchLog log(name);
    write_bytes(log.path,
                session_bytes(scenario.instance(), {clean[0], slot1}));
    StateLogSource replay(log.path);
    core::SlotState state;
    ASSERT_TRUE(replay.next(state));
    try {
      (void)replay.next(state);
      FAIL() << "the corrupt slot was applied";
    } catch (const sim::DeltaError& error) {
      EXPECT_EQ(error.kind(), kind) << error.what();
      EXPECT_EQ(error.slot(), 1u) << error.what();
      EXPECT_EQ(error.device(), device) << error.what();
    }
  };
  const core::SlotState& live = states[1];
  expect_rejected("negative_price", Kind::kBadValue,
                  sim::DeltaError::kNoDevice, [](sim::SlotDelta& delta) {
                    delta.has_price = true;
                    delta.price = -40.0;
                  });
  expect_rejected("negative_channel", Kind::kBadValue, 2,
                  [&](sim::SlotDelta& delta) {
                    delta.channels.push_back({2, live.channel[2]});
                    delta.channels.back().row[0] = -3.0;
                  });
  expect_rejected("negative_task", Kind::kBadValue, 3,
                  [&](sim::SlotDelta& delta) {
                    delta.workloads.push_back({3, -5e8, live.data_bits[3]});
                  });
  expect_rejected("zero_task", Kind::kBadValue, 4, [&](sim::SlotDelta& delta) {
    delta.workloads.push_back({4, 0.0, live.data_bits[4]});
  });
  expect_rejected("short_row", Kind::kBadShape, 1,
                  [&](sim::SlotDelta& delta) {
                    delta.channels.push_back({1, live.channel[1]});
                    delta.channels.back().row.pop_back();
                  });
}

// A hand-written log whose first delta skips device 2 never reaches the
// solver: the reader refuses that slot, naming the device.
TEST(StateLog, FirstDeltaThatSkipsADeviceIsRejected) {
  sim::Scenario scenario(tiny());
  auto deltas = sim::record_deltas(scenario.generate_states(2));
  auto& joins = deltas[0].joins;
  joins.erase(joins.begin() + 2);
  const ScratchLog log("skipped_join");
  write_bytes(log.path, session_bytes(scenario.instance(), deltas));
  StateLogSource replay(log.path);
  core::SlotState state;
  try {
    (void)replay.next(state);
    FAIL() << "a snapshot without device 2 was applied";
  } catch (const sim::DeltaError& error) {
    EXPECT_EQ(error.kind(), sim::DeltaError::Kind::kMissingJoin)
        << error.what();
    EXPECT_EQ(error.slot(), 0u) << error.what();
    EXPECT_EQ(error.device(), 2u) << error.what();
  }
}

// ---------------------------------------------------------------------------
// The client session

// A plain write() to a closed peer raises SIGPIPE, which kills the
// process; write_all must throw instead.
TEST(Socket, WriteToAClosedPeerThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const Fd ours(fds[0]);
  Fd(fds[1]).close();
  const std::uint8_t byte = 0;
  EXPECT_THROW(write_all(ours, &byte, 1), std::runtime_error);
}

// Serves one session on a temp Unix socket: `client` drives the connecting
// end on its own thread while the calling thread runs loop.serve().
sim::SimulationResult serve_session(ServeLoop& loop,
                                    const std::function<void(Fd)>& client,
                                    const sim::SlotObserver& observer = {}) {
  const ScratchLog socket("", ".sock");
  const Fd listener = listen_unix(socket.path);
  std::thread peer([&] { client(connect_unix(socket.path)); });
  sim::SimulationResult result;
  {
    // Closing this end after the session lets a client read to EOF.
    const Fd server = accept_client(listener);
    result = loop.serve(server, {sim::AuditMode::kOff}, observer);
  }
  peer.join();
  return result;
}

Frame expect_frame(const Fd& fd, FrameAssembler& assembler, FrameType type) {
  Frame frame;
  EXPECT_TRUE(recv_frame(fd, assembler, frame));
  EXPECT_EQ(frame.type, type);
  return frame;
}

std::string text_of(const Frame& frame) {
  return {frame.payload.begin(), frame.payload.end()};
}

void send_bytes(const Fd& fd, const std::vector<std::uint8_t>& bytes) {
  write_all(fd, bytes.data(), bytes.size());
}

std::unique_ptr<sim::Policy> policy_for(const sim::Scenario& scenario,
                                        const std::string& name) {
  return sim::make_policy(name, scenario.instance(), sim::PolicyParams{});
}

TEST(ServeSession, HelloWithTheWrongShapeGetsAnErrorNamingBothShapes) {
  sim::Scenario scenario(tiny());
  const core::Instance& instance = scenario.instance();
  ServeLoop loop(instance, policy_for(scenario, "greedy-budget"));
  std::string reply;
  (void)serve_session(loop, [&](Fd fd) {
    Hello hello = hello_for(instance);
    ++hello.devices;
    send_frame(fd, FrameType::kHello, encode_hello(hello));
    FrameAssembler assembler;
    reply = text_of(expect_frame(fd, assembler, FrameType::kError));
  });
  const std::string stations =
      " devices x " + std::to_string(instance.num_base_stations());
  EXPECT_NE(reply.find("client has 7" + stations), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("scenario has 6" + stations), std::string::npos)
      << reply;
  EXPECT_TRUE(loop.failed());
  EXPECT_EQ(loop.metrics().error, reply);
}

// Lock-step decision replies are the batch run's decisions, bit for bit,
// and the served run reports the batch run's solver work.
TEST(ServeSession, DecisionRepliesMatchRunPolicyBitForBit) {
  sim::Scenario scenario(tiny());
  const auto states = scenario.generate_states(24);
  const auto deltas = sim::record_deltas(states);
  auto batch_policy = policy_for(scenario, "dpp-bdma");
  sim::MaterializedSource batch_source(states);
  const auto batch = sim::run_policy(*batch_policy, batch_source);

  ServeLoop loop(scenario.instance(), policy_for(scenario, "dpp-bdma"));
  std::vector<DecisionReply> replies;
  const auto served = serve_session(loop, [&](Fd fd) {
    send_frame(fd, FrameType::kHello,
               encode_hello(hello_for(scenario.instance(), true)));
    FrameAssembler assembler;
    for (const sim::SlotDelta& delta : deltas) {
      send_frame(fd, FrameType::kDelta, encode_delta(delta));
      replies.push_back(decode_decision(
          expect_frame(fd, assembler, FrameType::kDecision).payload));
    }
    send_frame(fd, FrameType::kShutdown, {});
  });
  ASSERT_FALSE(loop.failed()) << loop.metrics().error;
  ASSERT_EQ(replies.size(), states.size());
  for (std::size_t t = 0; t < states.size(); ++t) {
    EXPECT_EQ(replies[t].slot, states[t].slot);
    EXPECT_EQ(replies[t].latency, batch.metrics.latency_series()[t]);
    EXPECT_EQ(replies[t].energy_cost, batch.metrics.cost_series()[t]);
    EXPECT_EQ(replies[t].queue_after, batch.metrics.queue_series()[t]);
  }
  EXPECT_EQ(served.metrics.slots(), states.size());
  EXPECT_TRUE(served.counters == batch.counters);
  ASSERT_EQ(served.stages.size(), batch.stages.size());
  for (std::size_t i = 0; i < served.stages.size(); ++i) {
    EXPECT_EQ(served.stages[i].name, batch.stages[i].name);
    EXPECT_TRUE(served.stages[i].counters == batch.stages[i].counters);
  }
}

// kMetricsRequest is a barrier: the reply covers every delta sent before.
TEST(ServeSession, MetricsRequestReportsEverySlotSentBeforeIt) {
  sim::Scenario scenario(tiny());
  const auto states = scenario.generate_states(5);
  ServeLoop loop(scenario.instance(), policy_for(scenario, "greedy-budget"));
  util::Json reply;
  const auto served = serve_session(loop, [&](Fd fd) {
    send_bytes(fd,
               session_bytes(scenario.instance(), sim::record_deltas(states)));
    send_frame(fd, FrameType::kMetricsRequest, {});
    FrameAssembler assembler;
    reply = util::Json::parse(
        text_of(expect_frame(fd, assembler, FrameType::kMetricsReply)));
    send_frame(fd, FrameType::kShutdown, {});
  });
  ASSERT_FALSE(loop.failed()) << loop.metrics().error;
  EXPECT_EQ(reply.at("slots_decided").as_number(), 5.0);
  EXPECT_EQ(reply.at("deltas_submitted").as_number(), 5.0);
  EXPECT_EQ(reply.at("last_slot").as_number(),
            static_cast<double>(states.back().slot));
  EXPECT_EQ(reply.at("error").as_string(), "");
  EXPECT_EQ(served.metrics.slots(), 5u);
}

TEST(ServeSession, RejectedDeltaGetsAnErrorCarryingTheDeltaError) {
  sim::Scenario scenario(tiny());
  auto deltas = sim::record_deltas(scenario.generate_states(3));
  deltas[2].slot = 99;  // out-of-order commit
  ServeLoop loop(scenario.instance(), policy_for(scenario, "greedy-budget"));
  std::string reply;
  const auto served = serve_session(loop, [&](Fd fd) {
    send_bytes(fd, session_bytes(scenario.instance(), deltas));
    FrameAssembler assembler;
    reply = text_of(expect_frame(fd, assembler, FrameType::kError));
  });
  EXPECT_NE(reply.find("out-of-order slot"), std::string::npos) << reply;
  EXPECT_TRUE(loop.failed());
  const ServeMetrics metrics = loop.metrics();
  EXPECT_EQ(metrics.error, reply);
  EXPECT_EQ(metrics.slots_decided, 2u);
  // The run keeps the two slots decided before the rejected delta.
  EXPECT_EQ(served.metrics.slots(), 2u);
}

// A delta frame cut to 5 body bytes is a codec error, and the client hears
// of it as a kError.
TEST(ServeSession, TruncatedDeltaGetsAnError) {
  sim::Scenario scenario(tiny());
  const auto deltas = sim::record_deltas(scenario.generate_states(1));
  ServeLoop loop(scenario.instance(), policy_for(scenario, "greedy-budget"));
  std::string reply;
  (void)serve_session(loop, [&](Fd fd) {
    send_frame(fd, FrameType::kHello,
               encode_hello(hello_for(scenario.instance())));
    auto body = encode_delta(deltas[0]);
    body.resize(5);
    send_frame(fd, FrameType::kDelta, body);
    FrameAssembler assembler;
    reply = text_of(expect_frame(fd, assembler, FrameType::kError));
  });
  EXPECT_NE(reply.find("codec error"), std::string::npos) << reply;
  EXPECT_TRUE(loop.failed());
  EXPECT_EQ(loop.metrics().error, reply);
  EXPECT_EQ(loop.metrics().slots_decided, 0u);
}

TEST(ServeSession, HelloThenShutdownEndsCleanWithNoSlots) {
  sim::Scenario scenario(tiny());
  ServeLoop loop(scenario.instance(), policy_for(scenario, "dpp-bdma"));
  bool eof = false;
  const auto served = serve_session(loop, [&](Fd fd) {
    send_frame(fd, FrameType::kHello,
               encode_hello(hello_for(scenario.instance())));
    send_frame(fd, FrameType::kShutdown, {});
    FrameAssembler assembler;
    Frame frame;
    eof = !recv_frame(fd, assembler, frame);
  });
  EXPECT_TRUE(eof);
  EXPECT_FALSE(loop.failed()) << loop.metrics().error;
  EXPECT_EQ(served.metrics.slots(), 0u);
  EXPECT_EQ(loop.metrics().slots_decided, 0u);
  EXPECT_EQ(loop.metrics().error, "");
}

// A decisions client that closes before its replies are written ends the
// session with an error, not with SIGPIPE.
TEST(ServeSession, ClientThatClosesEarlyEndsTheSessionWithAnError) {
  sim::Scenario scenario(tiny());
  const auto deltas = sim::record_deltas(scenario.generate_states(3));
  ServeLoop loop(scenario.instance(), policy_for(scenario, "greedy-budget"));
  std::atomic<bool> closed{false};
  (void)serve_session(
      loop,
      [&](Fd fd) {
        send_frame(fd, FrameType::kHello,
                   encode_hello(hello_for(scenario.instance(), true)));
        for (const sim::SlotDelta& delta : deltas) {
          send_frame(fd, FrameType::kDelta, encode_delta(delta));
        }
        fd.close();
        closed.store(true, std::memory_order_release);
      },
      // Holds the first slot until the client is gone, so the next reply
      // is written to a closed socket.
      [&](const core::SlotState&, const core::DppSlotResult&, double) {
        while (!closed.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      });
  EXPECT_TRUE(loop.failed());
  EXPECT_FALSE(loop.metrics().error.empty());
}

}  // namespace
}  // namespace eotora::serve
