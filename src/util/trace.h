// Low-overhead execution tracing — scoped spans and counter samples that
// can be dumped as Chrome `chrome://tracing` / Perfetto JSON.
//
// This is the observability half of the per-slot instrumentation layer
// (core/counters.h is the deterministic half): spans attribute wall-clock
// time to phases (state-gen / decide / audit, BDMA's P2-A vs P2-B, sweep
// cells), counter samples record evolving quantities (prefetch queue
// depths). Nothing here ever touches an RNG or a result value, so enabling
// tracing cannot perturb any deterministic output — the golden fixtures
// must stay byte-identical with tracing on and off (docs/TESTING.md).
//
// Cost model: tracing is OFF by default. A disabled Span is one relaxed
// atomic load and a branch — no clock read, no allocation. An enabled span
// is two steady_clock reads plus an append to a per-thread buffer (no
// locks on the hot path; the buffer registry is only locked on first use
// per thread and at dump/clear time). Defining EOTORA_TRACE_OFF at compile
// time turns the EOTORA_TRACE_SPAN macro into nothing.
//
// Event names must be string literals (or otherwise outlive the trace):
// events store the pointer, not a copy, to keep the hot path allocation
// free.
//
// clear() / to_chrome_json() / write_chrome_json() must not race with
// in-flight emission: call them while no other thread is inside a span
// (the sweep runner dumps after the pool has drained; the CLI after the
// run returns).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace eotora::util {

class Json;  // util/json.h

namespace trace {

using Clock = std::chrono::steady_clock;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// Runtime switch. Off by default; flipping it on only affects spans that
// START afterwards (a span armed while enabled records even if tracing is
// disabled before it closes, so dumps never contain half-open intervals).
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Drops every recorded event (all threads) and resets the drop counter.
void clear();

// Per-thread buffers are capped so an unbounded horizon with tracing left
// on cannot exhaust memory; overflow is dropped and counted.
inline constexpr std::size_t kMaxEventsPerThread = 1'000'000;

// Events recorded / dropped at the cap.
[[nodiscard]] std::size_t event_count();
[[nodiscard]] std::size_t dropped_count();

// Records a completed span [begin, end) on the calling thread. `name` must
// outlive the trace (string literal). No-op when tracing is disabled.
void emit_span(const char* name, Clock::time_point begin,
               Clock::time_point end);

// Records a counter sample (Chrome "C" event) at now(). No-op when
// disabled.
void emit_counter(const char* name, double value);

// RAII scoped span. Decides at construction: when tracing is disabled the
// constructor is a relaxed load + branch and the destructor a null check.
class Span {
 public:
  explicit Span(const char* name)
      : name_(enabled() ? name : nullptr),
        begin_(name_ != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (name_ != nullptr) emit_span(name_, begin_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  Clock::time_point begin_;
};

// The whole trace as a Chrome JSON document: {"traceEvents": [...]} with
// events sorted by timestamp (monotone `ts`), timestamps rebased so the
// earliest event is at ts = 0, microsecond units. Span events use ph "X"
// (complete), counter samples ph "C". Thread ids are small sequential
// integers in registration order (1 = first emitting thread).
[[nodiscard]] Json to_chrome_json();

// dump(to_chrome_json()) to `path`; throws std::runtime_error when the
// file cannot be written.
void write_chrome_json(const std::string& path);

}  // namespace trace
}  // namespace eotora::util

// Scoped-span convenience macro; compiles to nothing with EOTORA_TRACE_OFF.
#if defined(EOTORA_TRACE_OFF)
#define EOTORA_TRACE_SPAN(name)
#else
#define EOTORA_TRACE_SPAN_CONCAT2(a, b) a##b
#define EOTORA_TRACE_SPAN_CONCAT(a, b) EOTORA_TRACE_SPAN_CONCAT2(a, b)
#define EOTORA_TRACE_SPAN(name)                             \
  ::eotora::util::trace::Span EOTORA_TRACE_SPAN_CONCAT(     \
      eotora_trace_span_, __LINE__)(name)
#endif
