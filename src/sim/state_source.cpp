#include "sim/state_source.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/trace.h"

namespace eotora::sim {

// ---------------------------------------------------------------------------
// MaterializedSource

MaterializedSource::MaterializedSource(
    const std::vector<core::SlotState>& states)
    : states_(&states) {}

bool MaterializedSource::next(core::SlotState& out) {
  if (index_ >= states_->size()) return false;
  out = (*states_)[index_++];  // element-wise copy reuses out's capacity
  return true;
}

// ---------------------------------------------------------------------------
// ScenarioSource

ScenarioSource::ScenarioSource(const ScenarioConfig& config,
                               std::size_t horizon)
    : config_(config),
      horizon_(horizon),
      scenario_(std::make_unique<Scenario>(config)) {
  EOTORA_REQUIRE(horizon >= 1);
}

bool ScenarioSource::next(core::SlotState& out) {
  if (produced_ >= horizon_) return false;
  scenario_->next_state(out);
  ++produced_;
  return true;
}

void ScenarioSource::reset() {
  if (produced_ == 0) return;  // still at the first slot; nothing to rewind
  scenario_ = std::make_unique<Scenario>(config_);
  produced_ = 0;
}

// ---------------------------------------------------------------------------
// PrefetchSource

PrefetchSource::PrefetchSource(StateSource& inner, std::size_t depth)
    : inner_(&inner), depth_(depth) {
  EOTORA_REQUIRE(depth >= 1);
  start();
}

PrefetchSource::~PrefetchSource() { stop(); }

void PrefetchSource::start() {
  ready_.clear();
  free_.resize(depth_);
  exhausted_ = false;
  stopping_ = false;
  error_ = nullptr;
  stats_ = Stats{};
  producer_ = std::thread([this] { producer_loop(); });
}

void PrefetchSource::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

void PrefetchSource::producer_loop() {
  while (true) {
    core::SlotState buffer;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !free_.empty(); });
      if (stopping_) return;
      buffer = std::move(free_.back());
      free_.pop_back();
    }
    bool produced = false;
    try {
      produced = inner_->next(buffer);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::current_exception();
      exhausted_ = true;
      cv_.notify_all();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (produced) {
        ready_.push_back(std::move(buffer));
      } else {
        exhausted_ = true;
      }
      cv_.notify_all();
      if (!produced) return;
    }
  }
}

bool PrefetchSource::next(core::SlotState& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool stalled = ready_.empty() && !exhausted_;
  cv_.wait(lock, [this] { return !ready_.empty() || exhausted_; });
  // Already-produced slots are delivered before any failure surfaces, so
  // prefetch matches draining the inner source directly slot-for-slot up
  // to the failure point.
  if (ready_.empty()) {
    // Terminal on error: error_ stays set, so every subsequent next()
    // rethrows the same exception instead of resuming as a clean end of
    // stream. Only reset() clears it.
    if (error_ != nullptr) std::rethrow_exception(error_);
    return false;  // exhausted
  }
  const std::size_t ready_depth = ready_.size();
  ++stats_.delivered;
  stats_.ready_depth_sum += ready_depth;
  stats_.max_ready_depth = std::max<std::uint64_t>(
      stats_.max_ready_depth, ready_depth);
  if (stalled) ++stats_.consumer_stalls;
  // Swap delivers the filled buffer and recycles the consumer's old one.
  std::swap(out, ready_.front());
  free_.push_back(std::move(ready_.front()));
  ready_.erase(ready_.begin());
  lock.unlock();
  cv_.notify_all();
  if (util::trace::enabled()) {
    util::trace::emit_counter("prefetch/ready_depth",
                              static_cast<double>(ready_depth));
  }
  return true;
}

PrefetchSource::Stats PrefetchSource::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PrefetchSource::reset() {
  stop();
  inner_->reset();
  start();
}

}  // namespace eotora::sim
