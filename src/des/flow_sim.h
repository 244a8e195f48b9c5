// Flow-level discrete-event execution of slotted offloading decisions.
//
// The paper's latency (Eqs. (7)-(11)) is a fluid model: every device holds
// its bandwidth/compute share for the whole slot and its latency is the sum
// of three independent closed-form terms. This module executes decisions
// microscopically instead: each task is a three-stage flow
//     access uplink (d bits) -> fronthaul (d bits) -> processing (f cycles)
// with stages strictly sequential per task, progressing through shared
// resources until all work is done.
//
// Two layers:
//
//   simulate_slot()   — the original single-slot form: every device's task
//                       arrives at slot start, times are reported relative
//                       to the slot, and the result carries the per-stage
//                       completion times.
//
//   FlowSimulator     — the multi-slot engine. Slots are pushed one at a
//                       time (state + decision, exactly what a DecisionLog
//                       replay re-derives); tasks arrive within their slot
//                       (at slot start, or at Poisson-process offsets), and
//                       one global event clock runs across the horizon.
//                       finish() reports per-task records and per-slot
//                       realized-vs-analytic latency gaps.
//
// Both layers share one event loop: a binary min-heap of pending flow
// events (arrivals and stage completions) keyed by (time, flow id), so
// simultaneous events are processed in ascending admission order — the
// pinned deterministic tie-break. Reruns are byte-identical; nothing in the
// engine depends on thread count or scheduling.
//
// Sharing disciplines:
//
//   kStaticShares      — every task keeps its allocated share (Ψ, Φ) for
//                        its whole lifetime, even while idle on a resource.
//                        Each task's sojourn (finish - arrival) then equals
//                        L^{C,A}_i + L^{C,F}_i + L^P_i EXACTLY — the
//                        validation that the analytic evaluator and this
//                        engine agree, which holds for every arrival model
//                        (reserved rates are oblivious to arrival phase).
//
//   kProcessorSharing  — resources are split equally among their CURRENTLY
//                        ACTIVE occupants (egalitarian processor sharing);
//                        capacity freed by finished stages is immediately
//                        reused, across slot boundaries too. Measured
//                        latencies quantify how conservative the paper's
//                        static-reservation model is against a
//                        work-conserving system.
//
// Rates: device i active on BS k's access link with a bandwidth share
// β ∈ [0,1] transmits at β·W^A_k·h_{i,k} bps; fronthaul at β·W^F_k·h^F_k;
// a compute share φ on server n processes at φ·cores_n·ω_n·1e9·σ_{i,n}
// cycles/s. A task's unit rates (channel, spectral efficiency, frequency)
// are pinned at admission from its own slot's state and decision, so a
// straggler crossing a slot boundary keeps the service contract it was
// admitted under; only processor-sharing occupancy is global.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace eotora::des {

enum class SharingDiscipline { kStaticShares, kProcessorSharing };

// How task arrivals are placed within their slot.
//   kSlotStart — every device's task arrives exactly at the slot boundary
//                (the paper's model; static-shares sojourns match the
//                analytic terms and tasks never queue behind the boundary).
//   kPoisson   — each task arrives at the first event of a rate-λ Poisson
//                process conditioned to land inside the slot (inverse-CDF
//                of the truncated exponential), λ = arrival_rate per slot.
//                Draws come from a dedicated deterministic stream in
//                admission order (slot-major, device-minor).
enum class ArrivalModel { kSlotStart, kPoisson };

struct HorizonConfig {
  SharingDiscipline discipline = SharingDiscipline::kStaticShares;
  ArrivalModel arrivals = ArrivalModel::kSlotStart;
  double arrival_rate = 4.0;        // λ per slot, kPoisson only; > 0
  std::uint64_t arrival_seed = 1;   // seed of the arrival-offset stream
  bool record_events = false;       // keep the per-completion event log
  bool keep_tasks = true;           // keep per-task records (O(slots·I))
};

// One task's lifetime, absolute seconds since the start of slot 0.
struct TaskRecord {
  std::size_t slot = 0;
  std::size_t device = 0;
  double arrival = 0.0;
  double access_done = 0.0;
  double fronthaul_done = 0.0;
  double finish = 0.0;
  double analytic = 0.0;  // fluid L_i under the slot's own allocation

  // Realized latency: what the fluid model calls L_i.
  [[nodiscard]] double sojourn() const { return finish - arrival; }
};

// One stage completion, for event-order determinism pinning: reruns of the
// same inputs must reproduce this log byte for byte.
struct FlowEvent {
  double time = 0.0;       // absolute seconds
  std::uint64_t flow = 0;  // admission-order task id (slot-major)
  int stage = 0;           // 0 access, 1 fronthaul, 2 compute

  bool operator==(const FlowEvent& other) const {
    return time == other.time && flow == other.flow && stage == other.stage;
  }
  bool operator!=(const FlowEvent& other) const { return !(*this == other); }
};

// Realized-vs-analytic summary of one slot's tasks.
struct SlotGap {
  std::size_t slot = 0;
  double analytic = 0.0;         // Σ_i fluid L_i
  double realized = 0.0;         // Σ_i (finish - arrival)
  double max_device_gap = 0.0;   // max_i |sojourn_i - analytic_i|
  std::size_t spillovers = 0;    // tasks finishing after the slot boundary
  std::size_t events = 0;        // completion batches inside this slot
};

struct HorizonResult {
  std::vector<SlotGap> slots;
  std::vector<TaskRecord> tasks;      // slot-major; empty if !keep_tasks
  std::vector<FlowEvent> event_log;   // only when record_events
  std::size_t events = 0;             // completion batches, whole horizon

  [[nodiscard]] double total_analytic() const {
    double sum = 0.0;
    for (const SlotGap& gap : slots) sum += gap.analytic;
    return sum;
  }
  [[nodiscard]] double total_realized() const {
    double sum = 0.0;
    for (const SlotGap& gap : slots) sum += gap.realized;
    return sum;
  }
};

// The multi-slot engine. Push slots in order (state + the decision that was
// taken for it, allocation included); finish() drains every outstanding
// flow and returns the horizon result. The slot duration is
// instance.slot_hours() · 3600 s. Throws std::invalid_argument on shape
// errors, unusable channels, infeasible frequencies, or (static shares)
// non-positive shares.
class FlowSimulator {
 public:
  FlowSimulator(const core::Instance& instance, HorizonConfig config);
  ~FlowSimulator();

  FlowSimulator(const FlowSimulator&) = delete;
  FlowSimulator& operator=(const FlowSimulator&) = delete;

  // Admits the next slot's tasks (one per device) and advances the
  // event clock to that slot's start (events strictly before it are
  // processed — later arrivals can no longer affect them).
  void push_slot(const core::SlotState& state, const core::Decision& decision);

  // Drains all outstanding flows. The simulator is exhausted afterwards;
  // calling push_slot or finish again throws std::logic_error.
  [[nodiscard]] HorizonResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- original single-slot form -------------------------------------------

struct FlowResult {
  // Per-device stage completion times (seconds since slot start).
  std::vector<double> access_done;
  std::vector<double> fronthaul_done;
  std::vector<double> finish;  // processing done == task complete

  std::size_t events = 0;  // DES events processed (simultaneous completions
                           // batch into one event)

  [[nodiscard]] double total_latency() const {
    double sum = 0.0;
    for (double t : finish) sum += t;
    return sum;
  }
  [[nodiscard]] double makespan() const {
    double worst = 0.0;
    for (double t : finish) worst = worst > t ? worst : t;
    return worst;
  }
};

// Executes one slot with every task arriving at slot start. For
// kStaticShares the `allocation` shares are used as fixed reservations; for
// kProcessorSharing the allocation is ignored and every resource is split
// equally among active users. Throws std::invalid_argument on shape errors
// or unusable channels.
[[nodiscard]] FlowResult simulate_slot(const core::Instance& instance,
                                       const core::SlotState& state,
                                       const core::Assignment& assignment,
                                       const core::Frequencies& frequencies,
                                       const core::ResourceAllocation& allocation,
                                       SharingDiscipline discipline);

}  // namespace eotora::des
