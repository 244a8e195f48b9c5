#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "serve/codec.h"
#include "util/check.h"

namespace eotora::serve {

namespace {

// The decide latencies the p50/p99 percentiles describe: the most recent
// kLatencyCapacity slots.
constexpr std::size_t kLatencyCapacity = std::size_t{1} << 20;

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return {text.begin(), text.end()};
}

}  // namespace

LatencyWindow::LatencyWindow(std::size_t capacity) : capacity_(capacity) {
  EOTORA_REQUIRE(capacity > 0);
}

void LatencyWindow::add(double us) {
  if (samples_.empty() || us > max_) max_ = us;
  if (samples_.size() < capacity_) {
    samples_.push_back(us);
    return;
  }
  samples_[next_] = us;
  next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
}

void fill_decide_latencies(std::vector<double> samples, double max_us,
                           ServeMetrics& out) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  out.decide_p50_us = util::percentile_sorted(samples, 50.0);
  out.decide_p99_us = util::percentile_sorted(samples, 99.0);
  out.decide_max_us = max_us;
}

util::Json ServeMetrics::to_json() const {
  util::Json doc = util::Json::object();
  doc["schema"] = "eotora-serve-metrics-v1";
  doc["slots_decided"] = slots_decided;
  doc["deltas_submitted"] = deltas_submitted;
  doc["last_slot"] = last_slot;
  doc["ingest_depth"] = ingest_depth;
  doc["ingest_depth_max"] = ingest_depth_max;
  doc["decide_p50_us"] = decide_p50_us;
  doc["decide_p99_us"] = decide_p99_us;
  doc["decide_max_us"] = decide_max_us;
  doc["queue_backlog"] = queue_backlog;
  doc["avg_latency"] = avg_latency;
  doc["avg_energy_cost"] = avg_energy_cost;
  doc["active_devices"] = active_devices;
  doc["error"] = error;
  return doc;
}

void check_shape(const std::string& what, std::size_t devices,
                 std::size_t base_stations, const core::Instance& instance) {
  if (devices == instance.num_devices() &&
      base_stations == instance.num_base_stations()) {
    return;
  }
  throw std::invalid_argument(
      what + " has " + std::to_string(devices) + " devices x " +
      std::to_string(base_stations) + " base stations but the scenario has " +
      std::to_string(instance.num_devices()) + " devices x " +
      std::to_string(instance.num_base_stations()) +
      " base stations; pass the recording's world flags");
}

// The StateSource run() drains: each next() waits for a delta, pops it and
// folds it into the state with the loop's DeltaApplier. The source ends on
// a poisoned loop, and poisons it itself on a delta the applier rejects
// (sim::DeltaError), so run_policy returns the slots decided before.
class ServeLoop::RingSource final : public sim::StateSource {
 public:
  explicit RingSource(ServeLoop& loop) : loop_(&loop) {}

  bool next(core::SlotState& out) override {
    if (loop_->failed() || !loop_->await_delta()) return false;
    loop_->pop_depth_ = loop_->ring_.size();
    const bool popped = loop_->ring_.try_pop(delta_);
    EOTORA_ASSERT(popped);
    try {
      loop_->applier_.apply(delta_, out);
    } catch (const std::exception& error) {
      loop_->fail(error.what());
      return false;
    }
    return true;
  }

  void reset() override {
    throw std::logic_error("a ring-fed state source cannot rewind");
  }

 private:
  ServeLoop* loop_;
  sim::SlotDelta delta_;
};

ServeLoop::ServeLoop(const core::Instance& instance,
                     std::unique_ptr<sim::Policy> policy,
                     ServeOptions options)
    : instance_(&instance),
      policy_(std::move(policy)),
      ring_(options.ring_capacity),
      applier_(instance.num_devices(), instance.num_base_stations()),
      decide_us_(kLatencyCapacity) {
  EOTORA_REQUIRE(policy_ != nullptr);
}

bool ServeLoop::submit(sim::SlotDelta delta) {
  if (failed_.load(std::memory_order_acquire)) return false;
  if (!ring_.try_push(std::move(delta))) return false;
  submitted_.fetch_add(1, std::memory_order_release);
  return true;
}

bool ServeLoop::await_delta() const {
  while (ring_.empty()) {
    // The ring is looked at again after the stop flag, so a delta
    // submitted before request_stop() is never left behind.
    if (stop_.load(std::memory_order_acquire)) return !ring_.empty();
    // Idle: the producer is slower than the solver right now. Yield rather
    // than spin hot — decide latency is measured per slot, not across the
    // wait.
    std::this_thread::yield();
  }
  return true;
}

sim::SimulationResult ServeLoop::run(const sim::AuditConfig& audit,
                                     const sim::SlotObserver& observer) {
  // run_policy needs a slot; a loop stopped before its first delta has
  // decided nothing.
  if (!await_delta()) return {};
  RingSource source(*this);
  try {
    return sim::run_policy(
        *policy_, *instance_, source, audit, 1, /*keep_series=*/false,
        [&](const core::SlotState& state, const core::DppSlotResult& slot,
            double step_seconds) {
          publish(state, slot, step_seconds);
          try {
            if (on_decision_) on_decision_(state.slot, slot);
            if (observer) observer(state, slot, step_seconds);
          } catch (const std::exception& error) {
            // A failed reply or log write: the slot stays decided, and the
            // source ends the run before the next one.
            fail(error.what());
          }
        });
  } catch (const std::exception& error) {
    // A run that ended before its first slot (run_policy needs one), or,
    // defensively, anything the solver threw on a pathological but
    // validated state. Either way the loop stops deciding.
    fail(error.what());
    return {};
  }
}

sim::SimulationResult ServeLoop::serve(const Fd& client,
                                       const sim::AuditConfig& audit,
                                       const sim::SlotObserver& observer) {
  std::mutex write_mutex;  // decide thread (decisions) vs ingest (replies)
  const auto send = [&](FrameType type,
                        const std::vector<std::uint8_t>& payload) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    send_frame(client, type, payload);
  };
  FrameAssembler assembler;
  Frame frame;
  const auto ingest = [&] {
    try {
      while (recv_frame(client, assembler, frame)) {
        if (frame.type == FrameType::kDelta) {
          const sim::SlotDelta delta = decode_delta(frame.payload);
          // A full ring back-pressures naturally: the session stops reading
          // the socket until the decide loop drains a slot.
          while (!submit(delta) && !failed()) std::this_thread::yield();
        } else if (frame.type == FrameType::kMetricsRequest) {
          // Control-path barrier: the reply reflects every delta submitted
          // before the request.
          while (!drained()) std::this_thread::yield();
          if (!failed()) {
            send(FrameType::kMetricsReply,
                 bytes_of(metrics().to_json().dump()));
          }
        } else if (frame.type == FrameType::kShutdown) {
          break;
        } else {
          throw std::runtime_error(
              "unexpected frame type " +
              std::to_string(static_cast<int>(frame.type)) +
              " from the client");
        }
        if (failed()) break;
      }
    } catch (const std::exception& error) {
      fail(error.what());
    }
    request_stop();
  };

  sim::SimulationResult result;
  std::thread ingest_thread;
  try {
    // Hello handshake: the client's shape must be the instance's, else
    // every delta would be rejected.
    if (!recv_frame(client, assembler, frame) ||
        frame.type != FrameType::kHello) {
      throw CodecError("expected a kHello frame first");
    }
    const Hello hello = decode_hello(frame.payload);
    check_shape("client", hello.devices, hello.base_stations, *instance_);
    ingest_thread = std::thread(ingest);
    result = run(audit, [&](const core::SlotState& state,
                            const core::DppSlotResult& slot,
                            double step_seconds) {
      if (hello.want_decisions) {
        send(FrameType::kDecision,
             encode_decision({state.slot, slot.latency, slot.energy_cost,
                              slot.theta, slot.queue_after}));
      }
      if (observer) observer(state, slot, step_seconds);
    });
  } catch (const std::exception& error) {
    fail(error.what());
  }
  if (failed()) {
    try {
      send(FrameType::kError, bytes_of(metrics().error));
    } catch (const std::exception&) {
      // The client is gone; the error stays in the metrics.
    }
    // The ingest thread may be blocked on a client that waits for a reply;
    // ending the read side wakes it.
    ::shutdown(client.get(), SHUT_RD);
  }
  if (ingest_thread.joinable()) ingest_thread.join();
  return result;
}

void ServeLoop::publish(const core::SlotState& state,
                        const core::DppSlotResult& slot,
                        double step_seconds) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  ++slots_decided_;
  last_slot_ = state.slot;
  if (pop_depth_ > ingest_depth_max_) ingest_depth_max_ = pop_depth_;
  decide_us_.add(step_seconds * 1e6);
  latency_stats_.add(slot.latency);
  cost_stats_.add(slot.energy_cost);
  queue_backlog_ = slot.queue_after;
  active_devices_ = applier_.active_devices();
}

void ServeLoop::fail(const std::string& message) {
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    if (error_.empty()) error_ = message;
  }
  failed_.store(true, std::memory_order_release);
}

void ServeLoop::request_stop() {
  stop_.store(true, std::memory_order_release);
}

bool ServeLoop::drained() const {
  if (failed_.load(std::memory_order_acquire)) return true;
  const std::uint64_t submitted = submitted_.load(std::memory_order_acquire);
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  return slots_decided_ == submitted;
}

ServeMetrics ServeLoop::metrics() const {
  ServeMetrics snapshot;
  snapshot.deltas_submitted = submitted_.load(std::memory_order_acquire);
  snapshot.ingest_depth = ring_.size();
  std::vector<double> decide_us;
  double decide_max_us = 0.0;
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    snapshot.slots_decided = slots_decided_;
    snapshot.last_slot = last_slot_;
    snapshot.ingest_depth_max = ingest_depth_max_;
    decide_us = decide_us_.samples();
    decide_max_us = decide_us_.max();
    snapshot.queue_backlog = queue_backlog_;
    if (latency_stats_.count() > 0) {
      snapshot.avg_latency = latency_stats_.mean();
      snapshot.avg_energy_cost = cost_stats_.mean();
    }
    snapshot.active_devices = active_devices_;
    snapshot.error = error_;
  }
  fill_decide_latencies(std::move(decide_us), decide_max_us, snapshot);
  return snapshot;
}

}  // namespace eotora::serve
