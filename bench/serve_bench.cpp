// Online-controller bench: sustained ingest throughput and per-slot decide
// latency of the serve layer, at the paper's two device scales.
//
// Two measurements per device count, deliberately separated because they
// bound different resources:
//
//   ingest   the data path WITHOUT the solver — frame reassembly, strict
//            decode, and DeltaApplier::apply into the persistent state.
//            This is the rate at which the daemon can absorb state updates
//            while the decide loop lags (ring buffering); the acceptance
//            floor is 1e4 slots/sec.
//   decide   the full ServeLoop: a producer thread submits the recorded
//            delta stream through the SPSC ring while the consumer applies
//            and steps the dpp-bdma policy (warm-started across slots, as
//            in production). Reported as p50/p99/max per-slot latency from
//            the loop's own metrics surface.
//
// The artifact (--out) is an eotora-sweep-v1 document with one record per
// device count; BENCH_serve.json at the repo root is the committed
// snapshot (see EXPERIMENTS.md for regeneration).
//
//   --slots=N --seed=S --out=path.json
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "eotora/eotora.h"
#include "serve/codec.h"
#include "serve/server.h"
#include "util/args.h"

namespace {

struct ServeCell {
  std::size_t devices = 0;
  std::size_t slots = 0;
  double ingest_slots_per_sec = 0.0;
  double wire_bytes_per_slot = 0.0;
  eotora::serve::ServeMetrics metrics;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv, {"slots", "seed", "out"});
    const auto slots = args.get_uint("slots", 2000);
    const auto seed = args.get_uint("seed", 42);
    const std::vector<std::size_t> device_counts = {30, 100};

    std::vector<ServeCell> cells;
    for (const std::size_t devices : device_counts) {
      sim::ScenarioConfig config;
      config.devices = devices;
      config.seed = seed;
      sim::ScenarioSource source(config, slots);
      const core::Instance& instance = source.instance();
      const auto deltas = sim::record_deltas(source);

      // Pre-encode the whole stream: the timed section is ingest, not
      // scenario generation or encoding.
      std::vector<std::vector<std::uint8_t>> wire;
      wire.reserve(deltas.size());
      std::size_t wire_bytes = 0;
      for (const sim::SlotDelta& delta : deltas) {
        wire.push_back(serve::encode_frame(serve::FrameType::kDelta,
                                           serve::encode_delta(delta)));
        wire_bytes += wire.back().size();
      }

      ServeCell cell;
      cell.devices = devices;
      cell.slots = deltas.size();
      cell.wire_bytes_per_slot =
          static_cast<double>(wire_bytes) / static_cast<double>(wire.size());

      // ---- ingest: reassemble + decode + apply, no solver ----------------
      {
        sim::DeltaApplier applier(instance.num_devices(),
                                  instance.num_base_stations());
        serve::FrameAssembler assembler;
        serve::Frame frame;
        core::SlotState state;
        util::Timer timer;
        for (const auto& bytes : wire) {
          assembler.feed(bytes.data(), bytes.size());
          if (!assembler.next(frame)) {
            throw std::runtime_error("frame did not reassemble");
          }
          applier.apply(serve::decode_delta(frame.payload), state);
        }
        const double seconds = timer.elapsed_seconds();
        cell.ingest_slots_per_sec =
            seconds > 0.0 ? static_cast<double>(wire.size()) / seconds : 0.0;
      }

      // ---- decide: the full ServeLoop with a real producer thread --------
      {
        serve::ServeLoop loop(
            instance, sim::make_policy("dpp-bdma", instance,
                                       sim::PolicyParams{}));
        std::thread decide([&loop] { loop.run(); });
        for (const sim::SlotDelta& delta : deltas) {
          while (!loop.submit(delta)) {
            if (loop.failed()) break;
            std::this_thread::yield();
          }
        }
        while (!loop.drained()) std::this_thread::yield();
        loop.request_stop();
        decide.join();
        if (loop.failed()) {
          throw std::runtime_error("serve loop failed: " +
                                   loop.metrics().error);
        }
        cell.metrics = loop.metrics();
      }
      cells.push_back(cell);

      std::cout << "devices=" << devices << " slots=" << cell.slots
                << " ingest=" << cell.ingest_slots_per_sec << " slots/sec"
                << " decide_p50=" << cell.metrics.decide_p50_us << "us"
                << " decide_p99=" << cell.metrics.decide_p99_us << "us"
                << " decide_max=" << cell.metrics.decide_max_us << "us\n";
    }

    if (args.has("out")) {
      util::Json doc = util::Json::object();
      doc["schema"] = "eotora-sweep-v1";
      doc["commit"] = util::build_info().commit;
      doc["build_type"] = util::build_info().build_type;
      doc["name"] = "serve_bench";
      doc["slots"] = slots;
      doc["seed"] = seed;
      doc["policy"] = "dpp-bdma";
      util::Json axes = util::Json::array();
      util::Json axis = util::Json::object();
      axis["name"] = "devices";
      util::Json values = util::Json::array();
      for (const std::size_t devices : device_counts) {
        values.push_back(devices);
      }
      axis["values"] = std::move(values);
      axes.push_back(std::move(axis));
      doc["axes"] = std::move(axes);
      util::Json records = util::Json::array();
      for (const ServeCell& cell : cells) {
        util::Json record = util::Json::object();
        record["devices"] = cell.devices;
        record["slots"] = cell.slots;
        record["ingest_slots_per_sec"] = cell.ingest_slots_per_sec;
        record["wire_bytes_per_slot"] = cell.wire_bytes_per_slot;
        record["decide_p50_us"] = cell.metrics.decide_p50_us;
        record["decide_p99_us"] = cell.metrics.decide_p99_us;
        record["decide_max_us"] = cell.metrics.decide_max_us;
        record["ingest_depth_max"] = cell.metrics.ingest_depth_max;
        record["avg_latency"] = cell.metrics.avg_latency;
        record["avg_energy_cost"] = cell.metrics.avg_energy_cost;
        record["queue_backlog"] = cell.metrics.queue_backlog;
        records.push_back(std::move(record));
      }
      doc["records"] = std::move(records);
      const std::string path = args.get("out", "");
      util::write_json_file(path, doc);
      std::cout << "wrote " << path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
