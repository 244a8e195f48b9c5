#include "sim/delta.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/check.h"

namespace eotora::sim {

namespace {

// Bit-pattern double equality: the delta layer's determinism contract is
// byte-identity, so -0.0 vs 0.0 (and, defensively, NaN payloads) must count
// as a change even though operator== disagrees.
[[nodiscard]] bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

[[nodiscard]] bool rows_equal(const std::vector<double>& a,
                              const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) return false;
  }
  return true;
}

[[nodiscard]] const char* kind_name(DeltaError::Kind kind) {
  switch (kind) {
    case DeltaError::Kind::kOutOfOrderSlot: return "out-of-order slot";
    case DeltaError::Kind::kDuplicateJoin: return "duplicate join";
    case DeltaError::Kind::kUnknownDevice: return "unknown device";
    case DeltaError::Kind::kBadShape: return "bad shape";
    case DeltaError::Kind::kBadValue: return "bad value";
    case DeltaError::Kind::kMissingJoin: return "missing join";
  }
  return "delta error";
}

[[nodiscard]] std::string format_error(DeltaError::Kind kind,
                                       std::uint64_t slot, std::size_t device,
                                       const std::string& message) {
  std::ostringstream oss;
  oss << "delta error [" << kind_name(kind) << "] at slot " << slot;
  if (device != DeltaError::kNoDevice) oss << ", device " << device;
  oss << ": " << message;
  return oss.str();
}

}  // namespace

bool operator==(const SlotDelta& a, const SlotDelta& b) {
  if (a.slot != b.slot || a.has_price != b.has_price) return false;
  if (a.has_price && !bits_equal(a.price, b.price)) return false;
  if (a.joins.size() != b.joins.size() || a.leaves != b.leaves ||
      a.workloads.size() != b.workloads.size() ||
      a.channels.size() != b.channels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.joins.size(); ++i) {
    const auto& ja = a.joins[i];
    const auto& jb = b.joins[i];
    if (ja.device != jb.device || !bits_equal(ja.task_cycles, jb.task_cycles) ||
        !bits_equal(ja.data_bits, jb.data_bits) ||
        !rows_equal(ja.channel_row, jb.channel_row)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.workloads.size(); ++i) {
    const auto& wa = a.workloads[i];
    const auto& wb = b.workloads[i];
    if (wa.device != wb.device || !bits_equal(wa.task_cycles, wb.task_cycles) ||
        !bits_equal(wa.data_bits, wb.data_bits)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    const auto& ca = a.channels[i];
    const auto& cb = b.channels[i];
    if (ca.device != cb.device || !rows_equal(ca.row, cb.row)) return false;
  }
  return true;
}

DeltaError::DeltaError(Kind kind, std::uint64_t slot, std::size_t device,
                       const std::string& message)
    : std::runtime_error(format_error(kind, slot, device, message)),
      kind_(kind),
      slot_(slot),
      device_(device) {}

DeltaApplier::DeltaApplier(std::size_t devices, std::size_t base_stations,
                           double away_workload_fraction)
    : devices_(devices),
      base_stations_(base_stations),
      away_fraction_(away_workload_fraction) {
  EOTORA_REQUIRE(devices > 0);
  EOTORA_REQUIRE(base_stations > 0);
  EOTORA_REQUIRE_MSG(
      away_workload_fraction > 0.0 && away_workload_fraction <= 1.0,
      "away_workload_fraction=" << away_workload_fraction);
  state_.task_cycles.assign(devices_, 0.0);
  state_.data_bits.assign(devices_, 0.0);
  state_.channel.assign(devices_,
                        std::vector<double>(base_stations_, 0.0));
  active_.assign(devices_, 0);
}

void DeltaApplier::apply(const SlotDelta& delta, core::SlotState& out) {
  const auto fail = [&](DeltaError::Kind kind, std::size_t device,
                        const std::string& message) {
    throw DeltaError(kind, delta.slot, device, message);
  };

  // ---- validation pass: nothing below may mutate state_ ----------------
  if (applied_ > 0 && delta.slot != state_.slot + 1) {
    fail(DeltaError::Kind::kOutOfOrderSlot, DeltaError::kNoDevice,
         "expected slot " + std::to_string(state_.slot + 1) + ", got " +
             std::to_string(delta.slot));
  }
  // The presence set AS THIS DELTA UNFOLDS (joins precede leaves precede
  // updates), so intra-delta conflicts — join twice, leave then update —
  // are caught here too.
  std::vector<char> present(active_);
  const auto check_device = [&](std::size_t device) {
    if (device >= devices_) {
      fail(DeltaError::Kind::kBadShape, device,
           "device index out of range (instance has " +
               std::to_string(devices_) + " devices)");
    }
  };
  const auto check_row = [&](std::size_t device,
                             const std::vector<double>& row) {
    if (row.size() != base_stations_) {
      fail(DeltaError::Kind::kBadShape, device,
           "channel row has " + std::to_string(row.size()) +
               " entries, instance has " + std::to_string(base_stations_) +
               " base stations");
    }
    for (const double h : row) {
      if (!std::isfinite(h) || h < 0.0) {
        fail(DeltaError::Kind::kBadValue, device,
             "channel efficiency must be finite and >= 0");
      }
    }
  };
  const auto check_workload = [&](std::size_t device, double f, double d) {
    if (!std::isfinite(f) || f <= 0.0 || !std::isfinite(d) || d <= 0.0) {
      fail(DeltaError::Kind::kBadValue, device,
           "task cycles and data bits must be finite and > 0");
    }
  };
  for (const auto& join : delta.joins) {
    check_device(join.device);
    if (present[join.device] != 0) {
      fail(DeltaError::Kind::kDuplicateJoin, join.device,
           "device is already present");
    }
    check_workload(join.device, join.task_cycles, join.data_bits);
    check_row(join.device, join.channel_row);
    present[join.device] = 1;
  }
  for (const std::uint32_t device : delta.leaves) {
    check_device(device);
    if (present[device] == 0) {
      fail(DeltaError::Kind::kUnknownDevice, device,
           "leave of a device that is not present");
    }
    present[device] = 0;
  }
  for (const auto& update : delta.workloads) {
    check_device(update.device);
    if (present[update.device] == 0) {
      fail(DeltaError::Kind::kUnknownDevice, update.device,
           "workload update for a device that is not present");
    }
    check_workload(update.device, update.task_cycles, update.data_bits);
  }
  for (const auto& update : delta.channels) {
    check_device(update.device);
    if (present[update.device] == 0) {
      fail(DeltaError::Kind::kUnknownDevice, update.device,
           "channel update for a device that is not present");
    }
    check_row(update.device, update.row);
  }
  if (delta.has_price &&
      (!std::isfinite(delta.price) || delta.price <= 0.0)) {
    fail(DeltaError::Kind::kBadValue, DeltaError::kNoDevice,
         "price must be finite and > 0");
  }
  // The joins above are in range and distinct, so the first delta joins
  // every device iff it carries one join per device.
  if (applied_ == 0 && delta.joins.size() != devices_) {
    std::vector<char> joined(devices_, 0);
    for (const auto& join : delta.joins) joined[join.device] = 1;
    const auto missing = static_cast<std::size_t>(
        std::find(joined.begin(), joined.end(), 0) - joined.begin());
    fail(DeltaError::Kind::kMissingJoin, missing,
         "the first delta must join every device");
  }

  // ---- apply pass (cannot fail) ----------------------------------------
  for (const auto& join : delta.joins) {
    state_.task_cycles[join.device] = join.task_cycles;
    state_.data_bits[join.device] = join.data_bits;
    state_.channel[join.device] = join.channel_row;
  }
  for (const std::uint32_t device : delta.leaves) {
    // Keep-alive trickle, mirroring the churn scenario: the device slot
    // stays solver-feasible (f > 0, channel row intact) but sheds its load.
    state_.task_cycles[device] *= away_fraction_;
    state_.data_bits[device] *= away_fraction_;
  }
  for (const auto& update : delta.workloads) {
    state_.task_cycles[update.device] = update.task_cycles;
    state_.data_bits[update.device] = update.data_bits;
  }
  for (const auto& update : delta.channels) {
    state_.channel[update.device] = update.row;
  }
  if (delta.has_price) state_.price_per_mwh = delta.price;
  state_.slot = static_cast<std::size_t>(delta.slot);
  active_ = present;
  ++applied_;
  out = state_;
}

std::size_t DeltaApplier::active_devices() const {
  std::size_t count = 0;
  for (const char flag : active_) count += flag != 0 ? 1 : 0;
  return count;
}

void DeltaApplier::reset() {
  state_ = core::SlotState{};
  state_.task_cycles.assign(devices_, 0.0);
  state_.data_bits.assign(devices_, 0.0);
  state_.channel.assign(devices_,
                        std::vector<double>(base_stations_, 0.0));
  active_.assign(devices_, 0);
  applied_ = 0;
}

void DeltaRecorder::diff(const core::SlotState& state, SlotDelta& out) {
  const std::size_t devices = state.task_cycles.size();
  EOTORA_REQUIRE_MSG(state.data_bits.size() == devices &&
                         state.channel.size() == devices,
                     "inconsistent SlotState shape");
  out.slot = state.slot;
  out.joins.clear();
  out.leaves.clear();
  out.workloads.clear();
  out.channels.clear();
  if (!have_previous_) {
    // Full snapshot: every device joins, the price ticks.
    out.has_price = true;
    out.price = state.price_per_mwh;
    out.joins.reserve(devices);
    for (std::size_t i = 0; i < devices; ++i) {
      SlotDelta::Join join;
      join.device = static_cast<std::uint32_t>(i);
      join.task_cycles = state.task_cycles[i];
      join.data_bits = state.data_bits[i];
      join.channel_row = state.channel[i];
      out.joins.push_back(std::move(join));
    }
  } else {
    EOTORA_REQUIRE_MSG(previous_.task_cycles.size() == devices,
                       "device count changed mid-stream: "
                           << previous_.task_cycles.size() << " -> "
                           << devices);
    out.has_price = !bits_equal(previous_.price_per_mwh, state.price_per_mwh);
    out.price = out.has_price ? state.price_per_mwh : 0.0;
    for (std::size_t i = 0; i < devices; ++i) {
      if (!bits_equal(previous_.task_cycles[i], state.task_cycles[i]) ||
          !bits_equal(previous_.data_bits[i], state.data_bits[i])) {
        out.workloads.push_back({static_cast<std::uint32_t>(i),
                                 state.task_cycles[i], state.data_bits[i]});
      }
      EOTORA_REQUIRE_MSG(
          previous_.channel[i].size() == state.channel[i].size(),
          "base-station count changed mid-stream for device " << i);
      if (!rows_equal(previous_.channel[i], state.channel[i])) {
        out.channels.push_back(
            {static_cast<std::uint32_t>(i), state.channel[i]});
      }
    }
  }
  previous_ = state;
  have_previous_ = true;
}

void DeltaRecorder::reset() {
  previous_ = core::SlotState{};
  have_previous_ = false;
}

std::vector<SlotDelta> record_deltas(StateSource& source) {
  std::vector<SlotDelta> deltas;
  DeltaRecorder recorder;
  core::SlotState state;
  SlotDelta delta;
  while (source.next(state)) {
    recorder.diff(state, delta);
    deltas.push_back(delta);
  }
  return deltas;
}

DeltaSource::DeltaSource(std::vector<SlotDelta> deltas, std::size_t devices,
                         std::size_t base_stations,
                         double away_workload_fraction)
    : deltas_(std::move(deltas)),
      applier_(devices, base_stations, away_workload_fraction) {}

bool DeltaSource::next(core::SlotState& out) {
  if (index_ >= deltas_.size()) return false;
  applier_.apply(deltas_[index_], out);
  ++index_;
  return true;
}

void DeltaSource::reset() {
  applier_.reset();
  index_ = 0;
}

}  // namespace eotora::sim
