// Pull-based streaming of slot states — the O(1)-memory spine of the
// simulation pipeline.
//
// Every consumer of β_t (run_policy, the sweep runner, the golden recorder,
// the CLI) used to materialize a whole horizon up front via
// Scenario::generate_states(), so memory grew as O(horizon × devices ×
// stations) before a single decision was made. StateSource inverts that:
// the controller pulls one SlotState at a time into a caller-owned buffer
// (observe β_t, decide α_t, discard), which is how the paper's online
// controller actually operates and what long-horizon runs need.
//
// Implementations:
//   ScenarioSource      wraps a Scenario; Scenario::next_state(SlotState&)
//                       refills the per-device vectors and the channel
//                       matrix in place, so the steady state allocates
//                       nothing per slot. reset() rebuilds the Scenario
//                       from its config — generation is deterministic in
//                       the seed, so the replay is bit-identical.
//   MaterializedSource  adapts an existing std::vector<SlotState>, so
//                       Fig.-9-style identical-input comparisons (several
//                       policies over one pre-drawn vector) go through the
//                       same run_policy as every other drain.
//   PrefetchSource      double-buffered producer: generates the next state
//                       on a background thread while the consumer decides
//                       the current slot. Output is bit-identical to the
//                       wrapped source; only wall-clock overlap changes.
//
// Recorded runs live elsewhere: sim::DeltaSource replays an in-memory delta
// stream (sim/delta.h), and serve::RecordingSource / serve::StateLogSource
// write and stream a state log, an EOT1 frame file (serve/state_log.h).
//
// Determinism contract: a StateSource is a pure position in a deterministic
// stream. next() fills the buffer and advances; reset() rewinds to the
// first slot; two drains of the same source (or of two sources built from
// the same inputs) yield byte-identical state sequences.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/types.h"
#include "sim/scenario.h"

namespace eotora::sim {

class StateSource {
 public:
  // size_hint() value when the remaining length is unknown (a state log).
  static constexpr std::size_t kUnknownSize = static_cast<std::size_t>(-1);

  virtual ~StateSource() = default;

  // Fills `out` with the next slot state and returns true, or returns false
  // when the stream is exhausted (out is then unspecified). Implementations
  // reuse out's capacity where possible, so callers should keep one buffer
  // alive across the whole drain.
  virtual bool next(core::SlotState& out) = 0;

  // Rewinds to the first slot; the following drain repeats the exact same
  // sequence.
  virtual void reset() = 0;

  // Total number of slots a full drain from the start produces, or
  // kUnknownSize. Used to pre-size metric series; never required.
  [[nodiscard]] virtual std::size_t size_hint() const { return kUnknownSize; }
};

// Adapts a pre-generated state vector. The source merely views `states`,
// which the caller keeps alive; a temporary vector would dangle, so that
// constructor is deleted.
class MaterializedSource final : public StateSource {
 public:
  explicit MaterializedSource(const std::vector<core::SlotState>& states);
  explicit MaterializedSource(std::vector<core::SlotState>&& states) = delete;

  bool next(core::SlotState& out) override;
  void reset() override { index_ = 0; }
  [[nodiscard]] std::size_t size_hint() const override {
    return states_->size();
  }

 private:
  const std::vector<core::SlotState>* states_;
  std::size_t index_ = 0;
};

// Streams `horizon` states from a Scenario built from `config`, refilling
// the buffer in place (no steady-state allocations). reset() rebuilds the
// Scenario, which replays the identical sequence — and replaces the
// Instance that instance() returns, so a policy built on the old one must
// not be run after a reset().
class ScenarioSource final : public StateSource {
 public:
  ScenarioSource(const ScenarioConfig& config, std::size_t horizon);

  bool next(core::SlotState& out) override;
  void reset() override;
  [[nodiscard]] std::size_t size_hint() const override { return horizon_; }

  [[nodiscard]] const core::Instance& instance() const {
    return scenario_->instance();
  }
  [[nodiscard]] const Scenario& scenario() const { return *scenario_; }
  [[nodiscard]] std::size_t horizon() const { return horizon_; }

 private:
  ScenarioConfig config_;
  std::size_t horizon_;
  std::unique_ptr<Scenario> scenario_;
  std::size_t produced_ = 0;
};

// Double-buffered prefetch: a dedicated producer thread pulls from `inner`
// into a small ring of recycled buffers while the consumer processes the
// current slot, overlapping state generation with policy decisions. (A
// dedicated thread rather than the shared util::ThreadPool because the
// pool only exposes blocking fork-join parallelism, and a prefetcher must
// outlive individual calls.) The delivered sequence is bit-identical to
// draining `inner` directly.
//
// Error contract: when the inner source throws on the producer thread, the
// already-produced slots are still delivered in order; next() rethrows the
// buffered exception only once the ready queue has drained, so `--prefetch`
// matches plain streaming slot-for-slot up to the failure point. The error
// is terminal: every subsequent next() rethrows the same exception (the
// stream never resumes or reports a clean end). reset() discards the error
// along with the rest of the stream position. Not thread-safe for
// concurrent next() callers.
class PrefetchSource final : public StateSource {
 public:
  // Queue-depth observations, for tuning `depth`. ready/free depths are
  // sampled at each next() call (after the wait, before the pop):
  // ready == 0 means the consumer stalled waiting on the producer. Counts
  // restart on reset(). These are wall-clock-dependent — they belong in
  // traces and logs, never in deterministic artifacts.
  struct Stats {
    std::uint64_t delivered = 0;        // slots handed to the consumer
    std::uint64_t ready_depth_sum = 0;  // Σ ready depth at delivery
    std::uint64_t max_ready_depth = 0;
    std::uint64_t consumer_stalls = 0;  // deliveries the consumer had to
                                        // block for (ready was empty)
  };

  // `inner` must outlive this source. `depth` >= 1 buffers are kept in
  // flight.
  explicit PrefetchSource(StateSource& inner, std::size_t depth = 2);
  ~PrefetchSource() override;

  bool next(core::SlotState& out) override;
  void reset() override;
  [[nodiscard]] std::size_t size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] Stats stats() const;

 private:
  void start();
  void stop();
  void producer_loop();

  StateSource* inner_;
  std::size_t depth_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<core::SlotState> ready_;  // FIFO of filled buffers
  std::vector<core::SlotState> free_;   // recycled empty buffers
  bool exhausted_ = false;
  bool stopping_ = false;
  std::exception_ptr error_;
  Stats stats_;
  std::thread producer_;
};

}  // namespace eotora::sim
