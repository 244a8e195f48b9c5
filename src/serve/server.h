// The online controller: the decide loop, its client session and its
// metrics surface.
//
// ServeLoop runs sim::run_policy over a ring-fed StateSource. A producer
// (the session's ingest thread, a load generator, or a test) submits
// SlotDeltas into the lock-free SPSC ring; run() — the consumer — is the
// batch slot loop, whose source pops each delta and folds it into the
// persistent SlotState. The policy object lives across every slot, so the
// solver's warm-start machinery (the WCG components, whose builds keep the
// option rows and engine tables of every device a delta left unchanged,
// cached precompute tables, the DPP virtual queue, the carried CGBA
// assignment that seeds each slot's first P2-A solve) carries over exactly
// as in any other run_policy drain: the decisions a ServeLoop produces for
// a delta stream are bit-identical to run_policy over the equivalent
// DeltaSource
// (differential-tested in tests/test_serve.cpp), and a served run reports
// the same counters, stage stats and audit.
//
// serve() is the session `eotora_cli --serve` runs on one connected client:
//
//   client ──kHello──▶ shape check ──kDelta*──▶ SPSC ring ──▶ run()
//          ◀─kDecision (if requested)          (calling thread)
//          ──kMetricsRequest──▶ drain barrier
//          ◀─kMetricsReply (JSON)
//          ──kShutdown (or EOF)──▶ drain, return
//
// Error contract: a delta the applier rejects (sim::DeltaError), a
// malformed or unexpected frame, a failed socket read or write, or an
// exception from the observer poisons the loop — run() stops before its
// next slot and returns the slots it decided, the first message lands in
// ServeMetrics::error, and failed() turns true. serve() also sends that
// message to the client as a kError frame.
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
#include "serve/socket.h"
#include "sim/audit.h"
#include "sim/delta.h"
#include "sim/policy.h"
#include "sim/simulator.h"
#include "util/json.h"
#include "util/stats.h"

namespace eotora::serve {

struct ServeOptions {
  // Ring capacity (rounded up to a power of two). A full ring
  // back-pressures the producer.
  std::size_t ring_capacity = 1024;
};

// A point-in-time snapshot of the controller's health. All wall-clock
// derived fields (the decide latencies) are nondeterministic; everything
// else is reproducible for a fixed delta stream.
struct ServeMetrics {
  std::uint64_t slots_decided = 0;
  std::uint64_t deltas_submitted = 0;
  std::uint64_t last_slot = 0;           // most recently committed slot
  std::uint64_t ingest_depth = 0;        // ring occupancy at snapshot time
  std::uint64_t ingest_depth_max = 0;    // max occupancy observed at pops
  // Per-slot decide time: the percentiles over the most recent 2^20 slots
  // (LatencyWindow), the max over every slot decided.
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

// The decide-latency window behind ServeMetrics: the most recent
// `capacity` samples in a ring, which the percentiles read, and the largest
// sample ever added. The ring grows to its capacity as samples arrive.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity);

  void add(double us);

  // The retained samples, in ring order rather than time order.
  [[nodiscard]] const std::vector<double>& samples() const {
    return samples_;
  }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  // the slot the next sample overwrites once full
  std::vector<double> samples_;
  double max_ = 0.0;
};

// Writes decide_p50_us and decide_p99_us of `samples` (sorted once, in
// place) and decide_max_us = `max_us` into `out`; leaves all three at 0
// when `samples` is empty.
void fill_decide_latencies(std::vector<double> samples, double max_us,
                           ServeMetrics& out);

// The shape check an EOT1 stream passes before its first slot: throws
// std::invalid_argument naming both shapes unless `what` (a replay log, a
// client) announced `instance`'s devices x base stations.
void check_shape(const std::string& what, std::size_t devices,
                 std::size_t base_stations, const core::Instance& instance);

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

  // Consumer side: run_policy (rng seed 1, no per-slot series) over the
  // ring until request_stop() has been called AND the ring is drained — or
  // an error poisons the loop. Each slot publishes the metrics, then calls
  // the decision callback, then `observer`. Returns the run's result —
  // on a poisoned loop, the slots decided before the error — or an empty
  // one when the loop failed or stopped before its first slot.
  // Runs on the caller's thread; call it from exactly one thread. The
  // audit is off unless asked for, since AuditConfig{} audits every slot.
  sim::SimulationResult run(
      const sim::AuditConfig& audit = {sim::AuditMode::kOff},
      const sim::SlotObserver& observer = {});

  // Serves one client connected on `client` (see the top of this file):
  // checks its hello against the instance, moves its frames into the ring
  // on an ingest thread, and decides on the calling thread with run().
  // Every session error is sent to the client as a kError and ends the
  // session with failed() set; returns run()'s result, which keeps the
  // slots decided before the error.
  sim::SimulationResult serve(const Fd& client, const sim::AuditConfig& audit,
                              const sim::SlotObserver& observer);

  // Asks run() to return once the ring is empty. Callable from any thread.
  void request_stop();

  // True once an error has poisoned the loop.
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
  class RingSource;

  // Yields until the ring holds a delta (true), or request_stop() has been
  // called and the ring is drained (false).
  bool await_delta() const;
  void publish(const core::SlotState& state, const core::DppSlotResult& slot,
               double step_seconds);
  // Poisons the loop, keeping the first error's message.
  void fail(const std::string& message);

  const core::Instance* instance_;
  std::unique_ptr<sim::Policy> policy_;
  SpscRing<sim::SlotDelta> ring_;
  sim::DeltaApplier applier_;
  DecisionCallback on_decision_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::uint64_t pop_depth_ = 0;  // ring occupancy at the last pop

  // Control path: everything the decide thread publishes for metrics()
  // readers goes through this mutex. The decide thread takes it once per
  // slot, for a few stores; metrics() holds it only to copy, and sorts its
  // copy after releasing it, so a metrics request never stalls a slot
  // behind a sort.
  mutable std::mutex metrics_mutex_;
  std::uint64_t slots_decided_ = 0;
  std::uint64_t last_slot_ = 0;
  std::uint64_t ingest_depth_max_ = 0;
  LatencyWindow decide_us_;
  util::RunningStats latency_stats_;
  util::RunningStats cost_stats_;
  double queue_backlog_ = 0.0;
  std::size_t active_devices_ = 0;
  std::string error_;
};

}  // namespace eotora::serve
