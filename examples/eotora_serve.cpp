// eotora_serve: the online controller daemon.
//
// Listens on a Unix-domain socket, accepts ONE client session, and runs the
// decide loop on a dedicated thread while the main thread ingests frames:
//
//   client ──kHello──▶ validate shape ──kDelta*──▶ SPSC ring ──▶ decide
//          ◀─kDecision (if requested)             (ServeLoop, warm-started
//          ──kMetricsRequest──▶ drain barrier      policy persists across
//          ◀─kMetricsReply (JSON)                  every slot)
//          ──kShutdown──▶ drain, close, exit
//
// The policy object lives for the whole session, so solver warm-start state
// (WCG arena, DPP virtual queue, the carried CGBA assignment each slot's
// first P2-A solve starts from) carries across slots exactly as in a batch
// run — decisions are bit-identical to run_policy over the same stream.
//
//   $ ./examples/eotora_serve --socket=/tmp/eotora.sock --devices=30 &
//   $ ./examples/eotora_loadgen --socket=/tmp/eotora.sock --replay=run.eot
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "eotora/eotora.h"
#include "serve/codec.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/args.h"

namespace {

void print_usage() {
  std::cout <<
      R"(eotora_serve - online controller daemon (one client session, then exit)

options (all --key=value):
  --socket   Unix-domain socket path to listen on             (required)
  --policy   registry policy name or alias (see eotora_cli)   [bdma]
  --devices  number of device slots in the instance           [100]
  --budget   energy budget in $ per slot                      [1.0]
  --v        DPP penalty weight V                             [100]
  --q0       initial queue backlog Q(1)                       [0]
  --z        BDMA iterations                                  [5]
  --seed     scenario seed (fixes the instance topology)      [42]
  --rng-seed policy rng stream seed (run_policy default)      [1]
  --scenario named preset applied before the flags above      [paper]
  --ring     ingest ring capacity (rounded to a power of 2)   [1024]
  --metrics-out  write the final metrics JSON to this path
  --help     this text

The daemon exits 0 after a clean session (client shutdown or disconnect)
and 1 once a delta is rejected (the error also travels to the client as a
kError frame).
)";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"socket", "policy", "devices", "budget", "v", "q0",
                           "z", "seed", "rng-seed", "scenario", "ring",
                           "metrics-out", "help"});
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty()) {
      throw std::invalid_argument("--socket requires a socket path");
    }
    const long ring = args.get_int("ring", 1024);
    if (ring <= 0) {
      throw std::invalid_argument("--ring must be a positive capacity, got " +
                                  args.get("ring", ""));
    }

    sim::ScenarioConfig config;
    if (args.has("scenario")) {
      sim::apply_scenario_preset(args.get("scenario", ""), config);
    }
    config.devices = args.get_uint("devices", 100, 1);
    config.budget_per_slot = args.get_double("budget", 1.0);
    config.seed = args.get_uint("seed", 42);
    sim::Scenario world(config);
    const core::Instance& instance = world.instance();

    sim::PolicyParams params;
    params.v = args.get_double("v", 100.0);
    params.initial_queue = args.get_double("q0", 0.0);
    params.bdma_iterations = args.get_uint("z", 5, 1);
    std::unique_ptr<sim::Policy> policy =
        sim::make_policy(sim::resolve_policy_alias(args.get("policy", "bdma")),
                         instance, params);

    serve::ServeOptions options;
    options.rng_seed = args.get_uint("rng-seed", 1);
    options.ring_capacity = static_cast<std::size_t>(ring);
    serve::ServeLoop loop(instance, std::move(policy), options);

    serve::Fd listener = serve::listen_unix(socket_path);
    std::cout << "eotora_serve: listening on " << socket_path << " ("
              << instance.num_devices() << " devices, "
              << instance.num_base_stations() << " base stations)"
              << std::endl;
    serve::Fd client = serve::accept_client(listener);

    // Hello handshake: the client's claimed shape must match the instance
    // the daemon was started with, else every delta would be rejected.
    serve::FrameAssembler assembler;
    serve::Frame frame;
    std::mutex write_mutex;  // decide thread (decisions) vs ingest (replies)
    const auto send = [&](serve::FrameType type,
                          const std::vector<std::uint8_t>& payload) {
      const std::lock_guard<std::mutex> lock(write_mutex);
      serve::send_frame(client, type, payload);
    };
    const auto send_error = [&](const std::string& message) {
      send(serve::FrameType::kError,
           std::vector<std::uint8_t>(message.begin(), message.end()));
    };
    if (!serve::recv_frame(client, assembler, frame) ||
        frame.type != serve::FrameType::kHello) {
      send_error("expected a kHello frame first");
      return 1;
    }
    const serve::Hello hello = serve::decode_hello(frame.payload);
    if (hello.devices != instance.num_devices() ||
        hello.base_stations != instance.num_base_stations()) {
      send_error("shape mismatch: client announced " +
                 std::to_string(hello.devices) + "x" +
                 std::to_string(hello.base_stations) + ", daemon instance is " +
                 std::to_string(instance.num_devices()) + "x" +
                 std::to_string(instance.num_base_stations()));
      return 1;
    }
    if (hello.want_decisions) {
      loop.set_decision_callback(
          [&](std::uint64_t slot, const core::DppSlotResult& result) {
            serve::DecisionReply reply;
            reply.slot = slot;
            reply.latency = result.latency;
            reply.energy_cost = result.energy_cost;
            reply.theta = result.theta;
            reply.queue_after = result.queue_after;
            send(serve::FrameType::kDecision, serve::encode_decision(reply));
          });
    }

    std::thread decide([&loop] { loop.run(); });
    bool clean = true;
    try {
      while (serve::recv_frame(client, assembler, frame)) {
        if (frame.type == serve::FrameType::kDelta) {
          const sim::SlotDelta delta = serve::decode_delta(frame.payload);
          // A full ring back-pressures naturally: the daemon stops reading
          // the socket until the decide loop drains a slot.
          while (!loop.submit(delta)) {
            if (loop.failed()) break;
            std::this_thread::yield();
          }
          if (loop.failed()) {
            send_error(loop.metrics().error);
            clean = false;
            break;
          }
        } else if (frame.type == serve::FrameType::kMetricsRequest) {
          // Control-path barrier: the reply reflects every delta submitted
          // before the request, so clients see a consistent snapshot.
          while (!loop.drained()) std::this_thread::yield();
          if (loop.failed()) {
            send_error(loop.metrics().error);
            clean = false;
            break;
          }
          const std::string body = loop.metrics().to_json().dump();
          send(serve::FrameType::kMetricsReply,
               std::vector<std::uint8_t>(body.begin(), body.end()));
        } else if (frame.type == serve::FrameType::kShutdown) {
          break;
        } else {
          send_error("unexpected frame type from client");
          clean = false;
          break;
        }
      }
    } catch (const std::exception& error) {
      std::cerr << "session error: " << error.what() << "\n";
      clean = false;
    }

    loop.request_stop();
    decide.join();
    client.close();
    const serve::ServeMetrics metrics = loop.metrics();
    if (args.has("metrics-out")) {
      util::write_json_file(args.get("metrics-out", ""), metrics.to_json());
    }
    std::cout << "eotora_serve: session over, " << metrics.slots_decided
              << " slots decided";
    if (!metrics.error.empty()) std::cout << " (error: " << metrics.error << ")";
    std::cout << "\n" << metrics.to_json().dump(2) << std::endl;
    return (clean && !loop.failed()) ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
