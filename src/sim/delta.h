// Per-slot state deltas — the online controller's ingest format.
//
// Every batch entry point observes β_t as a complete SlotState; a live
// controller instead receives what CHANGED since the previous slot: devices
// joining or leaving, per-device channel rows moving, workloads and the
// energy price ticking. SlotDelta is that unit of change, DeltaApplier
// folds a delta stream into a persistent SlotState, DeltaRecorder produces
// the stream by diffing consecutive states, and DeltaSource replays a
// recorded stream back through the ordinary sim::StateSource interface.
//
// Determinism contract: deltas carry doubles verbatim (the serve codec
// encodes their IEEE-754 bits, and the recorder diffs bit patterns, not
// values), so applying the stream DeltaRecorder produced from a state
// sequence reconstructs that sequence byte-for-byte. A recorded run
// replayed through DeltaSource therefore yields decisions bit-identical to
// the equivalent batch run_policy drain — a differential test
// (tests/test_delta.cpp) gates this.
//
// The instance shape is immutable (every solver sizes its arenas from
// core::Instance), so "join" and "leave" address device SLOTS of a fixed
// population: the first delta must join every device (a full snapshot), a
// later leave scales the device's workload down to a keep-alive trickle —
// exactly the churn model of sim/scenario.h (Huang et al., arXiv
// 1904.13024) — and a rejoin reactivates the slot with fresh values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/state_source.h"

namespace eotora::sim {

// One slot's worth of state change. Empty sections simply leave that part
// of the persistent state untouched (a delta carrying only a price tick is
// legal), but every slot needs exactly one delta: applying it commits the
// slot.
struct SlotDelta {
  struct Join {
    std::uint32_t device = 0;
    double task_cycles = 0.0;            // f_{i,t}, cycles
    double data_bits = 0.0;              // d_{i,t}, bits
    std::vector<double> channel_row;     // h_{i,*,t}, one entry per BS
  };
  struct Workload {
    std::uint32_t device = 0;
    double task_cycles = 0.0;
    double data_bits = 0.0;
  };
  struct ChannelRow {
    std::uint32_t device = 0;
    std::vector<double> row;             // full row, one entry per BS
  };

  std::uint64_t slot = 0;
  bool has_price = false;
  double price = 0.0;                    // $/MWh, used when has_price
  std::vector<Join> joins;
  std::vector<std::uint32_t> leaves;
  std::vector<Workload> workloads;
  std::vector<ChannelRow> channels;
};

// Bitwise equality (doubles compared by IEEE bit pattern, so -0.0 != 0.0
// and the codec round-trip fuzz can assert exact reconstruction).
[[nodiscard]] bool operator==(const SlotDelta& a, const SlotDelta& b);
[[nodiscard]] inline bool operator!=(const SlotDelta& a, const SlotDelta& b) {
  return !(a == b);
}

// Structured delta-application failure: every rejected delta names what was
// wrong (kind), which slot carried it, and — when one is implicated —
// which device. The applier validates before mutating, so a throwing
// apply() leaves the persistent state untouched.
class DeltaError : public std::runtime_error {
 public:
  enum class Kind {
    kOutOfOrderSlot,  // delta.slot != previous committed slot + 1
    kDuplicateJoin,   // join of an already-present device
    kUnknownDevice,   // leave/update of a device that is not present
    kBadShape,        // device index or channel row size off the instance
    kBadValue,        // non-finite or out-of-domain numeric payload
    kMissingJoin,     // a first delta that does not join every device
  };

  static constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

  DeltaError(Kind kind, std::uint64_t slot, std::size_t device,
             const std::string& message);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::uint64_t slot() const { return slot_; }
  // kNoDevice when no single device is implicated.
  [[nodiscard]] std::size_t device() const { return device_; }

 private:
  Kind kind_;
  std::uint64_t slot_;
  std::size_t device_;
};

// Folds SlotDeltas into a persistent SlotState sized for a fixed
// (devices x base_stations) instance shape.
class DeltaApplier {
 public:
  // `away_workload_fraction` (in (0, 1]) is the keep-alive trickle a left
  // device's task and data shrink to, mirroring
  // ScenarioConfig::Churn::away_workload_fraction: the slot stays feasible
  // for every solver (f > 0) while carrying negligible load.
  DeltaApplier(std::size_t devices, std::size_t base_stations,
               double away_workload_fraction = 0.05);

  // Validates `delta` completely, then applies it and copies the resulting
  // post-delta state into `out`. Throws DeltaError without mutating
  // anything on the first violation. The first applied delta must join
  // every device (kMissingJoin names the first it skips) and fixes the
  // starting slot; every later delta must carry exactly previous + 1 (an
  // out-of-order commit is a protocol error, not a reorder request).
  void apply(const SlotDelta& delta, core::SlotState& out);

  [[nodiscard]] std::size_t devices() const { return devices_; }
  [[nodiscard]] std::size_t base_stations() const { return base_stations_; }
  [[nodiscard]] const core::SlotState& state() const { return state_; }
  [[nodiscard]] std::size_t active_devices() const;
  // Number of deltas applied since construction / reset().
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

  // Forgets everything: the next apply() starts a fresh stream.
  void reset();

 private:
  std::size_t devices_;
  std::size_t base_stations_;
  double away_fraction_;
  core::SlotState state_;
  std::vector<char> active_;
  std::uint64_t applied_ = 0;
};

// Streaming differ: feeds on consecutive SlotStates and emits the minimal
// SlotDelta between them (first call: a full snapshot joining every
// device). Comparisons are on IEEE bit patterns, so applying the emitted
// stream reconstructs the input byte-for-byte.
class DeltaRecorder {
 public:
  // Diffs `state` against the previously seen one into `out` (cleared
  // first). Shape changes between states throw std::invalid_argument.
  void diff(const core::SlotState& state, SlotDelta& out);

  void reset();

 private:
  core::SlotState previous_;
  bool have_previous_ = false;
};

// The materialized form of DeltaRecorder: every delta of `source`.
[[nodiscard]] std::vector<SlotDelta> record_deltas(StateSource& source);

// Replays a recorded delta stream as a StateSource: next() applies the next
// delta and hands out the reconstructed state. This is the bridge that
// lets the SAME slot stream a live controller ingested be re-driven
// through run_policy for bit-identity checks against the batch path.
class DeltaSource final : public StateSource {
 public:
  DeltaSource(std::vector<SlotDelta> deltas, std::size_t devices,
              std::size_t base_stations,
              double away_workload_fraction = 0.05);

  bool next(core::SlotState& out) override;
  void reset() override;
  [[nodiscard]] std::size_t size_hint() const override {
    return deltas_.size();
  }

 private:
  std::vector<SlotDelta> deltas_;
  DeltaApplier applier_;
  std::size_t index_ = 0;
};

}  // namespace eotora::sim
