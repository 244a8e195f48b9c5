#include "harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/kernels/kernels.h"
#include "util/build_info.h"
#include "util/stats.h"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

using eotora::util::percentile;

double median(const std::vector<double>& xs) { return percentile(xs, 50.0); }

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::floor(q / 100.0 * static_cast<double>(n - 1)));
  return n - 1 - rank;
}

double tail_percentile(std::size_t n) {
  static constexpr std::array<double, 7> kLadder = {99.9, 99.0, 95.0, 90.0,
                                                    80.0, 75.0, 50.0};
  for (const double q : kLadder) {
    if (samples_beyond(n, q) >= kTailBeyond) return q;
  }
  throw std::invalid_argument(
      "tail percentile needs at least " + std::to_string(2 * kTailBeyond) +
      " samples, got " + std::to_string(n));
}

std::vector<double> slotwise_min(
    const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) throw std::invalid_argument("no passes");
  std::vector<double> out = passes.front();
  for (const std::vector<double>& pass : passes) {
    if (pass.size() != out.size()) {
      throw std::invalid_argument("passes differ in length");
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::min(out[i], pass[i]);
    }
  }
  return out;
}

void HostSpeed::sample() {
  constexpr std::size_t kSize = 2048;
  constexpr int kRounds = 60;
  std::array<double, kSize> xs{};
  for (std::size_t s = 0; s < kSamplesPerCall; ++s) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kSize; ++i) {
      xs[i] = 1.0 + static_cast<double>(i % 97);
    }
    double least = xs[0];
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kSize; ++i) {
        xs[i] = std::sqrt(xs[i] * 1.0001 + 0.5) /
                    (1.0 + 1e-3 * xs[(i * 7 + 3) % kSize]) +
                0.7;
        least = std::min(least, xs[i]);
      }
    }
    samples_ms_.push_back(1e3 * seconds_between(start, Clock::now()));
    sink_ = least;
  }
}

double HostSpeed::reference_ms() const {
  if (samples_ms_.empty()) throw std::logic_error("no reference samples");
  return percentile(samples_ms_, 10.0);
}

#ifdef __linux__

namespace {

void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  // Best effort: a refused mask leaves the thread where it was.
  (void)sched_setaffinity(0, sizeof(mask), &mask);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) set_cpus(cpus_);
}

void CpuRotation::pin(std::size_t turn) const {
  if (!cpus_.empty()) set_cpus({cpus_[turn % cpus_.size()]});
}

#else

CpuRotation::CpuRotation() = default;
CpuRotation::~CpuRotation() = default;
void CpuRotation::pin(std::size_t) const {}

#endif

LayerClock::LayerClock(std::size_t layers)
    : self_seconds_(layers, 0.0), counters_(layers) {}

LayerClock::Span::Span(LayerClock& clock, std::size_t layer)
    : clock_(clock),
      layer_(layer),
      parent_(clock.open_),
      scope_(clock.counters_.at(layer)),
      start_(Clock::now()) {
  clock_.open_ = this;
}

LayerClock::Span::~Span() {
  const double duration = seconds_between(start_, Clock::now());
  clock_.self_seconds_[layer_] += duration - child_seconds_;
  if (parent_ != nullptr) parent_->child_seconds_ += duration;
  clock_.open_ = parent_;
}

eotora::core::counters::SolverCounters LayerClock::counters_of(
    const std::vector<std::size_t>& layers) const {
  eotora::core::counters::SolverCounters total;
  for (const std::size_t layer : layers) total.merge(counters_.at(layer));
  return total;
}

double unattributed_frac(double decide_seconds, const LayerClock& clock,
                         const std::vector<std::size_t>& layers) {
  if (!(decide_seconds > 0.0)) {
    throw std::invalid_argument("decide time must be positive");
  }
  double attributed = 0.0;
  for (const std::size_t layer : layers) attributed += clock.self_seconds(layer);
  return (decide_seconds - attributed) / decide_seconds;
}

eotora::util::Json Provenance::to_json() const {
  eotora::util::Json doc = eotora::util::Json::object();
  doc["commit"] = commit;
  doc["dirty"] = dirty;
  doc["build_type"] = build_type;
  doc["kernel_backend"] = kernel_backend;
  doc["nproc"] = nproc;
  doc["shard_workers"] = shard_workers;
  doc["baseline_ok"] = baseline_ok();
  return doc;
}

Provenance provenance(std::size_t shard_workers) {
  const auto& info = eotora::util::build_info();
  Provenance out;
  out.commit = info.commit;
  const std::string suffix = "-dirty";
  out.dirty = info.commit.size() >= suffix.size() &&
              info.commit.compare(info.commit.size() - suffix.size(),
                                  suffix.size(), suffix) == 0;
  out.build_type = info.build_type;
  out.kernel_backend = eotora::core::kernels::dispatch().name;
  out.nproc = std::thread::hardware_concurrency();
  out.shard_workers = shard_workers;
  return out;
}

void RunResult::fail(std::uint64_t slots, const std::string& why) {
  correct = false;
  failed += slots;
  failures.push_back(why);
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string result_line(const RunResult& result) {
  using eotora::util::Json;
  Json metrics = Json::object();
  for (const Metric& metric : result.metrics) {
    Json entry = Json::object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    metrics[metric.name] = std::move(entry);
  }
  Json doc = Json::object();
  doc["correct"] = result.correct;
  doc["attempted"] = static_cast<unsigned long long>(result.attempted);
  doc["failed"] = static_cast<unsigned long long>(result.failed);
  doc["metrics"] = std::move(metrics);
  return doc.dump();
}

}  // namespace perfbench
