// eotora_loadgen: drives an eotora_serve daemon with a recorded delta
// stream at full wire speed and reports the achieved ingest rate plus the
// daemon's final metrics.
//
// The stream is produced exactly like a batch run would see it: a scenario
// generates SlotStates, DeltaRecorder diffs consecutive states into
// SlotDeltas (first delta = full snapshot), and every frame is pre-encoded
// before the timer starts — so the measured slots/sec is the end-to-end
// ingest path (socket write, daemon read, frame decode, ring submit), not
// scenario generation.
//
//   $ ./examples/eotora_serve --socket=/tmp/eotora.sock --devices=30 &
//   $ ./examples/eotora_loadgen --socket=/tmp/eotora.sock --devices=30
//         --slots=1000 --metrics-out=metrics.json  (one command line)
#include <iostream>

#include "eotora/eotora.h"
#include "serve/codec.h"
#include "serve/socket.h"
#include "util/args.h"
#include "util/timer.h"

namespace {

void print_usage() {
  std::cout <<
      R"(eotora_loadgen - replay a scenario's delta stream into eotora_serve

options (all --key=value):
  --socket   daemon's Unix-domain socket path                 (required)
  --devices  scenario device count (must match the daemon's)  [100]
  --slots    number of slots to stream                        [1000]
  --budget   energy budget in $ per slot                      [1.0]
  --seed     scenario seed (must match the daemon's)          [42]
  --scenario named preset applied before the flags above      [paper]
  --want-decisions  subscribe to per-slot kDecision frames and read
             them in lock-step (one per delta); slows ingest to the
             solver's pace, so leave it off for throughput runs
  --metrics-out  write the daemon's final metrics JSON here
  --help     this text

After streaming, the loadgen issues a kMetricsRequest (a drain barrier:
the reply reflects every submitted slot), prints the metrics JSON, and
shuts the daemon down.
)";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"socket", "devices", "slots", "budget", "seed",
                           "scenario", "want-decisions", "metrics-out",
                           "help"});
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty()) {
      throw std::invalid_argument("--socket requires a socket path");
    }
    const long slots = args.get_int("slots", 1000);
    if (slots <= 0) {
      throw std::invalid_argument("--slots must be a positive count, got " +
                                  args.get("slots", ""));
    }

    sim::ScenarioConfig config;
    if (args.has("scenario")) {
      sim::apply_scenario_preset(args.get("scenario", ""), config);
    }
    config.devices = args.get_uint("devices", 100);
    config.budget_per_slot = args.get_double("budget", 1.0);
    config.seed = args.get_uint("seed", 42);
    sim::ScenarioSource source(config, static_cast<std::size_t>(slots));
    const core::Instance& instance = source.instance();

    // Record and pre-encode the whole stream before connecting, so the
    // timed loop below measures transport + ingest only.
    const std::vector<sim::SlotDelta> deltas = sim::record_deltas(source);
    std::vector<std::vector<std::uint8_t>> frames;
    frames.reserve(deltas.size());
    for (const sim::SlotDelta& delta : deltas) {
      frames.push_back(serve::encode_frame(serve::FrameType::kDelta,
                                           serve::encode_delta(delta)));
    }

    const bool want_decisions = args.has("want-decisions");
    serve::Fd fd = serve::connect_unix(socket_path);
    serve::FrameAssembler assembler;
    serve::Frame frame;
    serve::Hello hello;
    hello.devices = static_cast<std::uint32_t>(instance.num_devices());
    hello.base_stations =
        static_cast<std::uint32_t>(instance.num_base_stations());
    hello.want_decisions = want_decisions;
    serve::send_frame(fd, serve::FrameType::kHello,
                      serve::encode_hello(hello));

    util::Timer timer;
    std::uint64_t decisions_seen = 0;
    for (const std::vector<std::uint8_t>& wire : frames) {
      serve::write_all(fd, wire.data(), wire.size());
      if (want_decisions) {
        // Lock-step: read the decision for this slot before sending the
        // next delta, so neither side's socket buffer can fill up.
        if (!serve::recv_frame(fd, assembler, frame)) {
          throw std::runtime_error("daemon closed the socket mid-stream");
        }
        if (frame.type == serve::FrameType::kError) {
          throw std::runtime_error("daemon error: " +
                                   std::string(frame.payload.begin(),
                                               frame.payload.end()));
        }
        const serve::DecisionReply reply =
            serve::decode_decision(frame.payload);
        ++decisions_seen;
        if (decisions_seen <= 3) {
          std::cout << "decision slot=" << reply.slot
                    << " latency=" << reply.latency
                    << " cost=" << reply.energy_cost
                    << " queue=" << reply.queue_after << "\n";
        }
      }
    }
    const double stream_seconds = timer.elapsed_seconds();

    // Drain barrier + metrics snapshot.
    serve::send_frame(fd, serve::FrameType::kMetricsRequest, {});
    if (!serve::recv_frame(fd, assembler, frame)) {
      throw std::runtime_error("daemon closed the socket before replying");
    }
    if (frame.type == serve::FrameType::kError) {
      throw std::runtime_error(
          "daemon error: " +
          std::string(frame.payload.begin(), frame.payload.end()));
    }
    if (frame.type != serve::FrameType::kMetricsReply) {
      throw std::runtime_error("expected a kMetricsReply frame");
    }
    const std::string metrics_text(frame.payload.begin(),
                                   frame.payload.end());
    const util::Json metrics = util::Json::parse(metrics_text);
    if (args.has("metrics-out")) {
      util::write_json_file(args.get("metrics-out", ""), metrics);
    }

    serve::send_frame(fd, serve::FrameType::kShutdown, {});
    while (serve::recv_frame(fd, assembler, frame)) {
      // Drain anything in flight until the daemon closes cleanly.
    }

    const double rate =
        stream_seconds > 0.0 ? static_cast<double>(deltas.size()) /
                                   stream_seconds
                             : 0.0;
    std::cout << "ingest: " << deltas.size() << " slots in " << stream_seconds
              << " s (" << rate << " slots/sec)\n";
    if (want_decisions) {
      std::cout << "decisions received: " << decisions_seen << "\n";
    }
    std::cout << metrics.dump(2) << std::endl;
    const std::uint64_t decided = static_cast<std::uint64_t>(
        metrics.at("slots_decided").as_number());
    if (decided != deltas.size()) {
      std::cerr << "error: daemon decided " << decided << " of "
                << deltas.size() << " submitted slots\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
