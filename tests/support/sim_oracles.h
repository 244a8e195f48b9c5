// Sim-layer test tooling: the one-shot slot audit, and the materialized
// delta recording the differential tests compare streams with.
#pragma once

#include <vector>

#include "core/dpp.h"
#include "core/instance.h"
#include "sim/audit.h"
#include "sim/delta.h"

namespace eotora::sim {

// Audits a single slot result unconditionally, whatever config.mode says,
// with no cross-slot continuity context.
[[nodiscard]] AuditReport audit_slot(const core::Instance& instance,
                                     const core::SlotState& state,
                                     const core::DppSlotResult& slot,
                                     const AuditConfig& config = {});

// record_deltas over pre-drawn states.
[[nodiscard]] std::vector<SlotDelta> record_deltas(
    const std::vector<core::SlotState>& states);

}  // namespace eotora::sim
