// The online controller's decide loop and its metrics surface.
//
// ServeLoop is the transport-independent core of the eotora_serve daemon:
// a producer (socket ingest thread, load generator, or a test) submits
// SlotDeltas into the lock-free SPSC ring, and run() — the consumer —
// applies each delta to the persistent SlotState and steps the policy on
// the result. The policy object lives across every slot, so the solver's
// warm-start machinery (the WCG arena rebuild() path, cached precompute
// tables, the DPP virtual queue, the carried CGBA assignment that seeds
// each slot's first P2-A solve) carries over exactly as in a batch
// run_policy drain, and only the policy's reset() clears it: the decisions
// a ServeLoop produces for a delta stream are bit-identical to run_policy
// over the equivalent DeltaSource (differential-tested in
// tests/test_serve.cpp).
//
// Error contract: a delta the applier rejects (sim::DeltaError) poisons the
// loop — run() stops, the structured message lands in
// ServeMetrics::error, and failed() turns true. The daemon relays it to
// the client as a kError frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dpp.h"
#include "core/instance.h"
#include "serve/ring.h"
#include "sim/delta.h"
#include "sim/policy.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace eotora::serve {

struct ServeOptions {
  // Seed of the rng stream handed to policy.step(), matching run_policy's
  // default so serve and batch runs are comparable out of the box.
  std::uint64_t rng_seed = 1;
  // Ring capacity (rounded up to a power of two). A full ring
  // back-pressures the producer.
  std::size_t ring_capacity = 1024;
  // Keep-alive workload fraction for departed devices (sim::DeltaApplier).
  double away_workload_fraction = 0.05;
  // At most this many per-slot decide latencies are retained for the
  // p50/p99 percentiles; once full, the reservoir stops growing and the
  // percentiles describe the first `latency_capacity` slots.
  std::size_t latency_capacity = std::size_t{1} << 20;
};

// A point-in-time snapshot of the controller's health. All wall-clock
// derived fields (the percentiles) are nondeterministic; everything else is
// reproducible for a fixed delta stream.
struct ServeMetrics {
  std::uint64_t slots_decided = 0;
  std::uint64_t deltas_submitted = 0;
  std::uint64_t last_slot = 0;           // most recently committed slot
  std::uint64_t ingest_depth = 0;        // ring occupancy at snapshot time
  std::uint64_t ingest_depth_max = 0;    // max occupancy observed at pops
  double decide_p50_us = 0.0;
  double decide_p99_us = 0.0;
  double decide_max_us = 0.0;
  double queue_backlog = 0.0;            // Q(t+1) after the last slot
  double avg_latency = 0.0;              // time-average T_t
  double avg_energy_cost = 0.0;          // time-average C_t
  std::size_t active_devices = 0;
  std::string error;                     // empty while healthy

  // Serializes as schema "eotora-serve-metrics-v1".
  [[nodiscard]] util::Json to_json() const;
};

class ServeLoop {
 public:
  // Called after every decided slot, from the decide thread.
  using DecisionCallback = std::function<void(
      std::uint64_t slot, const core::DppSlotResult& result)>;

  // `instance` must outlive the loop; `policy` is owned and reset() once at
  // the start of run().
  ServeLoop(const core::Instance& instance,
            std::unique_ptr<sim::Policy> policy, ServeOptions options = {});

  // Producer side: enqueues one delta. Returns false when the ring is full
  // (back-pressure; retry after the consumer drains) or after the loop has
  // failed. Single producer only.
  bool submit(sim::SlotDelta delta);

  // Consumer side: pops, applies, and decides until request_stop() has
  // been called AND the ring is drained — or a DeltaError poisons the
  // loop. Runs the caller's thread; call it from exactly one thread.
  void run();

  // Asks run() to return once the ring is empty. Callable from any thread.
  void request_stop();

  // True once run() has returned because of a rejected delta.
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }
  // True when every submitted delta has been decided (or the loop failed).
  [[nodiscard]] bool drained() const;

  [[nodiscard]] ServeMetrics metrics() const;

  void set_decision_callback(DecisionCallback callback) {
    on_decision_ = std::move(callback);
  }

 private:
  const core::Instance* instance_;
  std::unique_ptr<sim::Policy> policy_;
  ServeOptions options_;
  SpscRing<sim::SlotDelta> ring_;
  sim::DeltaApplier applier_;
  util::Rng rng_;
  DecisionCallback on_decision_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> submitted_{0};

  // Control path: everything the decide thread publishes for metrics()
  // readers goes through this mutex. Taken once per slot — microseconds
  // against a solve that costs milliseconds — so the data path stays
  // effectively lock-free.
  mutable std::mutex metrics_mutex_;
  std::uint64_t slots_decided_ = 0;
  std::uint64_t last_slot_ = 0;
  std::uint64_t ingest_depth_max_ = 0;
  std::vector<double> decide_us_;
  util::RunningStats latency_stats_;
  util::RunningStats cost_stats_;
  double queue_backlog_ = 0.0;
  std::size_t active_devices_ = 0;
  std::string error_;
};

}  // namespace eotora::serve
