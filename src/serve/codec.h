// The serve daemon's wire protocol (`eotora_cli --serve`,
// serve::ServeLoop::serve): length-prefixed binary frames.
//
// Framing (all integers little-endian):
//   frame   := u32 payload_length | payload
//   payload := u8 frame_type | body
//
// Frame types and bodies:
//   kHello          u32 magic "EOT1" | u16 version | u32 devices |
//                   u32 base_stations | u8 want_decisions
//                   — the client's opening frame; the daemon validates the
//                   shape against its instance and replies kError on
//                   mismatch.
//   kDelta          a sim::SlotDelta (encode_delta below); one frame per
//                   slot, applying it commits the slot.
//   kDecision       u64 slot | f64 latency | f64 energy_cost | f64 theta |
//                   f64 queue_after — published per slot back to clients
//                   that set want_decisions.
//   kMetricsRequest empty body. Control-path barrier: the reply reflects
//                   every delta submitted before the request.
//   kMetricsReply   UTF-8 JSON bytes (schema eotora-serve-metrics-v1).
//   kShutdown       empty body; the daemon drains its ring and exits.
//   kError          UTF-8 message bytes, sent before the daemon closes a
//                   poisoned connection: a rejected hello or delta, a
//                   malformed or unexpected frame, or a failed reply.
//
// Doubles travel as their raw IEEE-754 bit patterns (u64), so an
// encode/decode round trip is exact — the byte-identity contract of the
// delta layer survives the wire. Decoding is strict: truncated bodies,
// trailing bytes, unknown frame types, and length prefixes above
// kMaxFramePayload all throw CodecError rather than yielding a partial
// value.
//
// A state log (serve/state_log.h) is an EOT1 session on disk: the kHello a
// client would send, then one kDelta per slot. eotora_cli --record writes
// one, and eotora_cli --replay and eotora_loadgen --replay read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/delta.h"

namespace eotora::serve {

inline constexpr std::uint32_t kProtocolMagic = 0x31544F45u;  // "EOT1"
inline constexpr std::uint16_t kProtocolVersion = 1;
// Upper bound on a single frame's payload. A corrupt length prefix must
// fail fast instead of provoking a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kDelta = 2,
  kDecision = 3,
  kMetricsRequest = 4,
  kMetricsReply = 5,
  kShutdown = 6,
  kError = 7,
};

// Malformed wire data (truncation, trailing bytes, bad magic/type/length).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& message)
      : std::runtime_error("codec error: " + message) {}
};

struct Hello {
  std::uint32_t devices = 0;
  std::uint32_t base_stations = 0;
  bool want_decisions = false;
};

struct DecisionReply {
  std::uint64_t slot = 0;
  double latency = 0.0;
  double energy_cost = 0.0;
  double theta = 0.0;
  double queue_after = 0.0;
};

struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

// Payload codecs (the body bytes, without the type tag or length prefix).
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] Hello decode_hello(const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_delta(
    const sim::SlotDelta& delta);
[[nodiscard]] sim::SlotDelta decode_delta(
    const std::vector<std::uint8_t>& payload);

[[nodiscard]] std::vector<std::uint8_t> encode_decision(
    const DecisionReply& decision);
[[nodiscard]] DecisionReply decode_decision(
    const std::vector<std::uint8_t>& payload);

// Wraps a payload into a complete wire frame (length prefix + type tag).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, const std::vector<std::uint8_t>& payload);

// Incremental reassembly of frames from an arbitrary byte stream (socket
// reads deliver whatever chunk sizes they like). feed() appends bytes;
// next() pops the earliest complete frame. A corrupt length prefix or
// empty payload throws CodecError from next().
class FrameAssembler {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  // Moves the next complete frame into `out` and returns true, or returns
  // false when no complete frame is buffered yet.
  bool next(Frame& out);
  // Bytes currently buffered (diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

}  // namespace eotora::serve
