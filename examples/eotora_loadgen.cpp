// eotora_loadgen: drives a serve daemon (`eotora_cli --serve`) with a
// recorded state log at full wire speed and reports the achieved ingest
// rate plus the daemon's final metrics.
//
// The log (eotora_cli --record, serve/state_log.h) already is the session
// a client sends: a hello naming the instance shape, then one delta frame
// per slot, the first a full snapshot. Every frame is read before the
// loadgen connects, so the measured slots/sec is the end-to-end ingest
// path (socket write, daemon read, frame decode, ring submit), not file
// reads. The loadgen sends its own hello (with --want-decisions set) and
// then the recorded deltas verbatim.
//
//   $ ./examples/eotora_cli --policy=greedy --devices=30 --horizon=1000
//         --record=run.eot
//   $ ./examples/eotora_cli --policy=greedy --devices=30
//         --serve=/tmp/eotora.sock &
//   $ ./examples/eotora_loadgen --socket=/tmp/eotora.sock --replay=run.eot
//         --metrics-out=metrics.json  (one command line each)
#include <fstream>
#include <iostream>

#include "eotora/eotora.h"
#include "serve/codec.h"
#include "serve/socket.h"
#include "serve/state_log.h"
#include "util/args.h"
#include "util/timer.h"

namespace {

void print_usage() {
  std::cout <<
      R"(eotora_loadgen - replay a recorded state log into a serve daemon
(eotora_cli --serve)

options (all --key=value):
  --socket   daemon's Unix-domain socket path (its --serve)   (required)
  --replay   state log to send (eotora_cli --record); its devices x
             base stations must match the daemon's instance   (required)
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

// The kError a daemon sends before it ends a session, as an exception.
[[noreturn]] void throw_daemon_error(const eotora::serve::Frame& frame) {
  throw std::runtime_error(
      "daemon error: " +
      std::string(frame.payload.begin(), frame.payload.end()));
}

// Writes `size` bytes to the daemon. A daemon that ended the session (on a
// hello or delta it rejected) stops reading, so the write fails with a
// broken pipe; the kError it sent first says why, and is what gets thrown
// when it is there to read.
void write_to_daemon(const eotora::serve::Fd& fd,
                     eotora::serve::FrameAssembler& assembler,
                     const std::uint8_t* data, std::size_t size) {
  using namespace eotora;
  try {
    serve::write_all(fd, data, size);
  } catch (const std::exception&) {
    serve::Frame frame;
    bool pending = false;
    try {
      pending = serve::recv_frame(fd, assembler, frame);
    } catch (const std::exception&) {
      // Nothing readable either: the write's own error stands.
    }
    if (pending && frame.type == serve::FrameType::kError) {
      throw_daemon_error(frame);
    }
    throw;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"socket", "replay", "want-decisions",
                           "metrics-out", "help"});
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty()) {
      throw std::invalid_argument("--socket requires a socket path");
    }
    const std::string log_path = args.get("replay", "");
    if (log_path.empty()) {
      throw std::invalid_argument("--replay requires a state log path");
    }

    // Read every delta frame before connecting, so the timed loop below
    // measures transport + ingest only.
    std::ifstream log;
    serve::FrameAssembler log_assembler;
    serve::Hello hello =
        serve::open_state_log(log_path, log, log_assembler);
    std::vector<std::vector<std::uint8_t>> frames;
    serve::Frame frame;
    while (serve::read_frame(log, log_assembler, frame)) {
      if (frame.type != serve::FrameType::kDelta) {
        throw std::runtime_error("state log '" + log_path +
                                 "' holds a non-delta frame after its hello");
      }
      frames.push_back(
          serve::encode_frame(serve::FrameType::kDelta, frame.payload));
    }

    const bool want_decisions = args.has("want-decisions");
    serve::Fd fd = serve::connect_unix(socket_path);
    serve::FrameAssembler assembler;
    hello.want_decisions = want_decisions;
    serve::send_frame(fd, serve::FrameType::kHello,
                      serve::encode_hello(hello));

    util::Timer timer;
    std::uint64_t decisions_seen = 0;
    for (const std::vector<std::uint8_t>& wire : frames) {
      write_to_daemon(fd, assembler, wire.data(), wire.size());
      if (want_decisions) {
        // Lock-step: read the decision for this slot before sending the
        // next delta, so neither side's socket buffer can fill up.
        if (!serve::recv_frame(fd, assembler, frame)) {
          throw std::runtime_error("daemon closed the socket mid-stream");
        }
        if (frame.type == serve::FrameType::kError) throw_daemon_error(frame);
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
    const std::vector<std::uint8_t> request =
        serve::encode_frame(serve::FrameType::kMetricsRequest, {});
    write_to_daemon(fd, assembler, request.data(), request.size());
    if (!serve::recv_frame(fd, assembler, frame)) {
      throw std::runtime_error("daemon closed the socket before replying");
    }
    if (frame.type == serve::FrameType::kError) throw_daemon_error(frame);
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
        stream_seconds > 0.0 ? static_cast<double>(frames.size()) /
                                   stream_seconds
                             : 0.0;
    std::cout << "ingest: " << frames.size() << " slots in " << stream_seconds
              << " s (" << rate << " slots/sec)\n";
    if (want_decisions) {
      std::cout << "decisions received: " << decisions_seen << "\n";
    }
    std::cout << metrics.dump(2) << std::endl;
    const std::uint64_t decided = static_cast<std::uint64_t>(
        metrics.at("slots_decided").as_number());
    if (decided != frames.size()) {
      std::cerr << "error: daemon decided " << decided << " of "
                << frames.size() << " submitted slots\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
