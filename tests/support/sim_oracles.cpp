#include "support/sim_oracles.h"

#include "sim/state_source.h"

namespace eotora::sim {

AuditReport audit_slot(const core::Instance& instance,
                       const core::SlotState& state,
                       const core::DppSlotResult& slot,
                       const AuditConfig& config) {
  AuditConfig every_slot = config;
  every_slot.mode = AuditMode::kEverySlot;
  SlotAuditor auditor(instance, every_slot);
  auditor.observe(state, slot);
  return auditor.report();
}

std::vector<SlotDelta> record_deltas(
    const std::vector<core::SlotState>& states) {
  MaterializedSource source(states);
  return record_deltas(source);
}

}  // namespace eotora::sim
