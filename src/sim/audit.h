// Slot-level feasibility auditor — the standing correctness net behind the
// paper's guarantees.
//
// Theorem 1/2 (drift-plus-penalty bounds), Lemma 1 (allocation optimality)
// and the WCG equilibrium results only say anything about a run whose
// per-slot decisions actually satisfy the P1 constraint set. SlotAuditor
// re-validates every DppSlotResult against that set, independently of the
// solver that produced it:
//
//   coverage.*    selection feasibility: the chosen base station must have a
//                 usable channel (h > 0, i.e. the device is covered) and the
//                 chosen server must be reachable over that BS's fronthaul
//                 (constraints (1)-(3))
//   simplex.*     bandwidth shares Ψ^A, Ψ^F and capacity shares Φ lie in
//                 (0, 1] and sum to at most 1 per resource (constraints
//                 (4)-(6), within `share_tolerance`)
//   frequency.*   Ω_n inside the box [F^L_n, F^U_n] (constraint (7))
//   lemma1.*      the reported allocation matches the Lemma-1 closed form
//                 recomputed from scratch (square-root proportional shares)
//   metric.*      latency recomputed via latency_under_allocation and energy
//                 cost recomputed via Instance::energy_cost agree with the
//                 solver-reported numbers; θ = C_t − C̄
//   queue.*       the virtual-queue ledger: Q(t+1) = max{Q(t) + Θ_t, 0}
//                 (Eq. (21)), Q >= 0, and cross-slot continuity
//                 Q_before(t) == Q_after(t−1)
//
// Violations are reported as structured records (slot, device, constraint
// id, lhs/rhs, gap) — the auditor never throws on a constraint violation, so
// a differential harness can keep running and collect everything. Modes:
// off → sampled (every `sample_period`-th slot) → every-slot.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/dpp.h"
#include "core/instance.h"

namespace eotora::sim {

enum class AuditMode { kOff, kSampled, kEverySlot };

struct AuditConfig {
  AuditMode mode = AuditMode::kEverySlot;
  // kSampled: audit slots where (observed index) % sample_period == 0.
  std::size_t sample_period = 16;
  // Simplex slack on share sums/ranges (constraints (4)-(6)).
  double share_tolerance = 1e-9;
  // Slack outside the frequency box [F^L, F^U].
  double frequency_tolerance = 1e-9;
  // Relative tolerance for the Lemma-1 closed-form comparison.
  double allocation_rel_tolerance = 1e-9;
  // Relative tolerance for recomputed-vs-reported latency/energy/theta.
  double metric_rel_tolerance = 1e-9;
  // Absolute tolerance on the queue ledger. The controller derives
  // Q(t+1) from the same doubles the slot result reports, so 0 (exact)
  // is the honest default.
  double queue_tolerance = 0.0;
  // Disable for policies that do not maintain a virtual queue (anything
  // outside the dpp-* family reports Q == 0 while spending real energy).
  bool check_queue = true;
  // Recording cap: checks keep running past it, but further violation
  // records are counted in AuditReport::violations_dropped instead of
  // stored, so a pathological run cannot exhaust memory.
  std::size_t max_violations = 1024;
};

struct AuditViolation {
  static constexpr long kNoDevice = -1;

  std::size_t slot = 0;
  long device = kNoDevice;  // kNoDevice for resource-level constraints
  std::string constraint;   // e.g. "coverage.reachability", "queue.update"
  double lhs = 0.0;         // the value that was checked
  double rhs = 0.0;         // the bound / expected value
  double gap = 0.0;         // constraint excess or |lhs - rhs|
  std::string detail;       // human-readable context (resource ids, ...)

  [[nodiscard]] std::string describe() const;
};

struct AuditReport {
  std::size_t slots_observed = 0;  // slots seen (audited or skipped)
  std::size_t slots_audited = 0;
  std::size_t slots_with_violations = 0;
  std::size_t violations_dropped = 0;  // found beyond max_violations
  std::vector<AuditViolation> violations;

  [[nodiscard]] std::size_t total_violations() const {
    return violations.size() + violations_dropped;
  }
  [[nodiscard]] bool clean() const { return total_violations() == 0; }
  // One-line human-readable digest; includes the first violation if any.
  [[nodiscard]] std::string summary() const;
};

class SlotAuditor {
 public:
  // `instance` must outlive the auditor.
  explicit SlotAuditor(const core::Instance& instance, AuditConfig config = {});

  // Whether the slot at this observed index would be audited under the
  // configured mode.
  [[nodiscard]] bool should_audit(std::size_t observed_index) const;

  // Feeds one slot respecting the mode/sampling. Queue-continuity state is
  // tracked on every call, so sampled audits still see the true ledger.
  void observe(const core::SlotState& state, const core::DppSlotResult& slot);

  [[nodiscard]] const AuditReport& report() const { return report_; }
  [[nodiscard]] const AuditConfig& config() const { return config_; }

 private:
  void run_checks(const core::SlotState& state,
                  const core::DppSlotResult& slot);
  void note_slot(const core::DppSlotResult& slot);
  void add(AuditViolation violation);

  const core::Instance* instance_;
  AuditConfig config_;
  AuditReport report_;
  std::size_t total_found_ = 0;  // including dropped
  bool have_prev_ = false;
  double prev_queue_after_ = 0.0;
};

}  // namespace eotora::sim
