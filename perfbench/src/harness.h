// Workload-independent pieces of the repository benchmark: the tail
// percentile rule, the span clock behind the per-layer numbers, build
// provenance and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

[[nodiscard]] double median(const std::vector<double>& xs);

// A tail percentile is reported only where at least this many samples lie
// beyond it, so one slow slot cannot move it on its own.
inline constexpr std::size_t kTailBeyond = 10;

// Samples strictly above the rank the linear-interpolation percentile q
// (util::percentile) reads in n distinct samples: n - 1 - floor(q/100 *
// (n - 1)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

// The highest of the percentiles 99.9, 99, 95, 90, 80, 75, 50 that keeps at
// least kTailBeyond of n samples beyond it: p99 at 2000 slots, p90 at 100.
// Throws std::invalid_argument when even the median would not (n < 20).
[[nodiscard]] double tail_percentile(std::size_t n);

// Per-slot minimum over passes that repeat the same slots: element i is the
// least of passes[p][i]. A repeated pass makes the same decisions bit for
// bit, so what differs between passes is the host, whose CPU speed can drop
// by up to 2x for seconds at a time; the fastest pass of each slot tracks
// the undisturbed speed. Throws std::invalid_argument when there is no pass
// or the passes differ in length.
[[nodiscard]] std::vector<double> slotwise_min(
    const std::vector<std::vector<double>>& passes);

// The host's speed, from a fixed reference kernel (a square-root and
// division sweep over 2048 doubles) that calls nothing in the library. A
// shared host also runs all its CPUs slower together, by up to 30% for
// minutes, which no statistic within a run can filter: every pass meets it.
// The reference meets it too, so a run's timings are scaled by
// kReferenceMs over its reference time (the 10th percentile of its
// samples, taken between the workload's drains). A change to the library
// moves the timings and not the reference.
class HostSpeed {
 public:
  // The reference kernel's time at nominal speed, about its 10th
  // percentile on a 4-core x86-64 VM.
  static constexpr double kReferenceMs = 0.5;
  static constexpr std::size_t kSamplesPerCall = 4;

  // Times the reference kernel kSamplesPerCall times.
  void sample();
  // The 10th percentile of the samples. Throws std::logic_error before the
  // first sample.
  [[nodiscard]] double reference_ms() const;
  // What a timing is multiplied by: kReferenceMs / reference_ms().
  [[nodiscard]] double scale() const { return kReferenceMs / reference_ms(); }

 private:
  std::vector<double> samples_ms_;
  volatile double sink_ = 0.0;  // keeps the kernel's result alive
};

// The CPUs this process may run on, to pin a thread to each in turn. On a
// shared host the slow phases strike single CPUs (another tenant on the
// same core) and can outlast a run, so the passes of a slot go to different
// CPUs for slotwise_min to find an undisturbed one. A thread started by a
// pinned thread inherits its CPU, so a workload whose library starts worker
// threads is not pinned. On destruction the constructing thread gets back
// its original CPU set. Pinning does nothing where the platform lacks it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  [[nodiscard]] std::size_t size() const { return cpus_.size(); }
  // Pins the calling thread to CPU `turn` mod size() of the set.
  void pin(std::size_t turn) const;

 private:
  std::vector<int> cpus_;
};

// Wall-clock and solver-counter accumulator for named layers. A Span times
// one call into a layer and installs a counters::Scope on that layer's
// counters; spans nest, and a span's self time is its duration minus the
// time its child spans cover (its counters are likewise its own, since a
// nested Scope takes over the sink). Single-threaded use only.
class LayerClock {
 public:
  explicit LayerClock(std::size_t layers);

  class Span {
   public:
    Span(LayerClock& clock, std::size_t layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    LayerClock& clock_;
    std::size_t layer_;
    double child_seconds_ = 0.0;
    Span* parent_;
    eotora::core::counters::Scope scope_;
    Clock::time_point start_;
  };

  [[nodiscard]] double self_seconds(std::size_t layer) const {
    return self_seconds_.at(layer);
  }
  [[nodiscard]] const eotora::core::counters::SolverCounters& counters(
      std::size_t layer) const {
    return counters_.at(layer);
  }
  // Counters of the listed layers merged.
  [[nodiscard]] eotora::core::counters::SolverCounters counters_of(
      const std::vector<std::size_t>& layers) const;

 private:
  std::vector<double> self_seconds_;
  std::vector<eotora::core::counters::SolverCounters> counters_;
  Span* open_ = nullptr;
};

// Share of `decide_seconds` that no listed layer's self time accounts for:
// (decide - sum of self times) / decide. Negative when the layers, timed on
// a shadow run of the same work, took longer than the timed decision.
[[nodiscard]] double unattributed_frac(double decide_seconds,
                                       const LayerClock& clock,
                                       const std::vector<std::size_t>& layers);

// Where a result came from. Only a clean Release build may be recorded as a
// baseline.
struct Provenance {
  std::string commit;  // `git describe --always --dirty` at configure time
  bool dirty = false;
  std::string build_type;
  std::string kernel_backend;  // kernels::dispatch()
  std::size_t nproc = 0;
  std::size_t shard_workers = 0;

  [[nodiscard]] bool baseline_ok() const {
    return !dirty && commit != "unknown" && build_type == "Release";
  }
  [[nodiscard]] eotora::util::Json to_json() const;
};

[[nodiscard]] Provenance provenance(std::size_t shard_workers);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line's content: correctness, slot counts and metrics.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // One line per failed gate, printed before the result line.
  std::vector<std::string> failures;

  void fail(std::uint64_t slots, const std::string& why);
  void add(std::string name, double value, std::string unit);
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on one
// line.
[[nodiscard]] std::string result_line(const RunResult& result);

}  // namespace perfbench
