// State logs: a recorded run as one file of EOT1 frames.
//
// A state log is exactly the session a client would send the serve daemon,
// `eotora_cli --serve` (serve/codec.h): one kHello naming the instance shape (devices x base
// stations, want_decisions = 0), then one kDelta per slot, the first a
// full snapshot. RecordingSource writes one by teeing a live StateSource
// through sim::DeltaRecorder; StateLogSource streams one back through
// sim::DeltaApplier, which checks every slot's shape and values and names
// the slot and device it rejects. Doubles travel as their IEEE-754 bits,
// so a log replays its run bit for bit, and eotora_loadgen can send a log
// to the daemon verbatim.
//
// Limit: every slot's delta must fit one frame (kMaxFramePayload, 64 MiB);
// recording a larger slot throws encode_frame's CodecError, which names the
// cap. The snapshot is the largest slot, at about devices x (24 + 8 x base
// stations) bytes: 10.5 MB for 10^4 devices x 128 stations, while at 512
// stations the cap is reached near 16k devices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <optional>
#include <string>

#include "core/types.h"
#include "serve/codec.h"
#include "sim/delta.h"
#include "sim/state_source.h"

namespace eotora::serve {

// Reads the next complete frame from `in` into `out`, feeding `assembler`
// in fixed-size chunks (the file analogue of recv_frame), and returns
// true, or returns false at a clean end of stream on a frame boundary.
// Throws CodecError on a truncated tail or a malformed frame.
bool read_frame(std::istream& in, FrameAssembler& assembler, Frame& out);

// Opens the state log at `path` into `in` and reads its kHello, leaving
// `in` at the first delta. Throws std::runtime_error when the file cannot
// be opened and CodecError when it is empty, does not start with a hello,
// or names a shape whose snapshot could not fit one frame (or is empty).
Hello open_state_log(const std::string& path, std::ifstream& in,
                     FrameAssembler& assembler);

// Tee: forwards `inner` unchanged while appending every state to a state
// log at `path`. The file is created, and the hello written, on the first
// state; the first state's channel rows fix the base-station count, and a
// later shape change throws std::invalid_argument. When `inner` runs out
// the file is closed and the write checked (std::runtime_error on
// failure). reset() resets `inner` and starts the log again.
class RecordingSource final : public sim::StateSource {
 public:
  // `inner` must outlive this source.
  RecordingSource(sim::StateSource& inner, std::string path);

  bool next(core::SlotState& out) override;
  void reset() override;
  [[nodiscard]] std::size_t size_hint() const override {
    return inner_->size_hint();
  }

 private:
  sim::StateSource* inner_;
  std::string path_;
  std::ofstream out_;
  sim::DeltaRecorder recorder_;
  sim::SlotDelta delta_;
  std::size_t base_stations_ = 0;
};

// Streams a state log slot by slot in O(devices x stations) memory: each
// next() reads one kDelta and applies it. The hello is read on
// construction, so devices() and base_stations() are known before the
// first slot. reset() reopens the file.
class StateLogSource final : public sim::StateSource {
 public:
  explicit StateLogSource(std::string path);

  bool next(core::SlotState& out) override;
  void reset() override;

  [[nodiscard]] std::size_t devices() const { return applier_->devices(); }
  [[nodiscard]] std::size_t base_stations() const {
    return applier_->base_stations();
  }

 private:
  std::string path_;
  std::ifstream in_;
  FrameAssembler assembler_;
  Frame frame_;
  std::optional<sim::DeltaApplier> applier_;
};

}  // namespace eotora::serve
