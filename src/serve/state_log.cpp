#include "serve/state_log.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.h"

namespace eotora::serve {

bool read_frame(std::istream& in, FrameAssembler& assembler, Frame& out) {
  if (assembler.next(out)) return true;
  // FrameAssembler::next erases each frame from the front of its buffer,
  // so feeding a whole file at once would move the rest of the file once
  // per frame; small chunks keep the buffer at about one frame.
  char buffer[4096];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    assembler.feed(reinterpret_cast<const std::uint8_t*>(buffer),
                   static_cast<std::size_t>(in.gcount()));
    if (assembler.next(out)) return true;
  }
  if (in.bad()) throw std::runtime_error("state log read failed");
  if (assembler.buffered() != 0) {
    throw CodecError("stream ends mid-frame (" +
                     std::to_string(assembler.buffered()) +
                     " bytes buffered)");
  }
  return false;
}

Hello open_state_log(const std::string& path, std::ifstream& in,
                     FrameAssembler& assembler) {
  in.close();
  in.clear();
  in.open(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open state log '" + path + "'");
  assembler = FrameAssembler{};
  Frame frame;
  if (!read_frame(in, assembler, frame)) {
    throw CodecError("state log '" + path + "' is empty");
  }
  if (frame.type != FrameType::kHello) {
    throw CodecError("state log '" + path +
                     "' does not start with a kHello frame");
  }
  const Hello hello = decode_hello(frame.payload);
  // The first delta is a full snapshot of about devices x (24 + 8 x
  // stations) bytes and must fit one frame, so a larger shape cannot come
  // from a recording; rejecting it here also bounds what the applier
  // allocates for the shape.
  const std::size_t stations = hello.base_stations;
  const std::size_t device_bytes = 24 + 8 * stations;
  if (hello.devices == 0 || stations == 0 ||
      stations > kMaxFramePayload / 8 ||
      hello.devices > kMaxFramePayload / device_bytes) {
    throw CodecError("state log '" + path + "' names an impossible shape (" +
                     std::to_string(hello.devices) + " devices x " +
                     std::to_string(stations) + " base stations)");
  }
  return hello;
}

// ---------------------------------------------------------------------------
// RecordingSource

RecordingSource::RecordingSource(sim::StateSource& inner, std::string path)
    : inner_(&inner), path_(std::move(path)) {}

bool RecordingSource::next(core::SlotState& out) {
  const auto write = [this](FrameType type,
                            const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> frame = encode_frame(type, payload);
    out_.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    if (!out_) {
      throw std::runtime_error("write to state log '" + path_ + "' failed");
    }
  };
  if (!inner_->next(out)) {
    if (out_.is_open()) {
      out_.close();
      if (!out_) {
        throw std::runtime_error("closing state log '" + path_ + "' failed");
      }
    }
    return false;
  }
  if (!out_.is_open()) {
    EOTORA_REQUIRE_MSG(!out.channel.empty() && !out.channel.front().empty(),
                       "a state log needs at least one device and one "
                       "base station");
    base_stations_ = out.channel.front().size();
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw std::runtime_error("cannot create state log '" + path_ + "'");
    }
    Hello hello;
    hello.devices = static_cast<std::uint32_t>(out.task_cycles.size());
    hello.base_stations = static_cast<std::uint32_t>(base_stations_);
    write(FrameType::kHello, encode_hello(hello));
  }
  for (std::size_t i = 0; i < out.channel.size(); ++i) {
    EOTORA_REQUIRE_MSG(out.channel[i].size() == base_stations_,
                       "slot " << out.slot << ", device " << i
                               << ": channel row has "
                               << out.channel[i].size()
                               << " entries, the log has " << base_stations_
                               << " base stations");
  }
  recorder_.diff(out, delta_);
  write(FrameType::kDelta, encode_delta(delta_));
  return true;
}

void RecordingSource::reset() {
  inner_->reset();
  out_.close();
  out_.clear();
  recorder_.reset();
}

// ---------------------------------------------------------------------------
// StateLogSource

StateLogSource::StateLogSource(std::string path) : path_(std::move(path)) {
  reset();
}

bool StateLogSource::next(core::SlotState& out) {
  if (!read_frame(in_, assembler_, frame_)) return false;
  if (frame_.type != FrameType::kDelta) {
    throw CodecError("state log '" + path_ + "' holds a frame of type " +
                     std::to_string(static_cast<int>(frame_.type)) +
                     " after its hello; only kDelta frames may follow");
  }
  applier_->apply(decode_delta(frame_.payload), out);
  return true;
}

void StateLogSource::reset() {
  const Hello hello = open_state_log(path_, in_, assembler_);
  applier_.emplace(hello.devices, hello.base_stations);
}

}  // namespace eotora::serve
