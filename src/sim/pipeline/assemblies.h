// Canned pipeline assemblies — every registry policy, as a PolicyGraph of
// the stages in sim/pipeline/stages.h. This is each policy's one
// implementation: the registry (sim/registry.cpp) builds all its policies
// through these, and the golden fixtures (tests/support/golden.h) pin
// their per-slot decisions. The factories throw std::invalid_argument on a bad config
// (V <= 0, Q(1) < 0, z < 1, a fraction outside [0, 1], a bad MpcConfig).
#pragma once

#include <memory>

#include "core/beta_only.h"
#include "core/cgba.h"
#include "core/dpp.h"
#include "core/instance.h"
#include "sim/mpc_policy.h"
#include "sim/policy.h"

namespace eotora::sim::pipeline {

// Algorithm 1: QueueUpdate → [P2aSolve ⇄ P2bSolve]×z → DppDecisionOut,
// with the solver loop under the "dpp/bdma" span, for any inner P2-A
// solver ("dpp-bdma", "dpp-mcba", "dpp-ropt").
[[nodiscard]] std::unique_ptr<Policy> make_dpp_pipeline(
    const core::Instance& instance, const core::DppConfig& config);

// BudgetFrequency → CgbaAssign → CgbaDecisionOut.
// The myopic "greedy-budget" baseline: spend up to the budget every slot.
// It cannot bank cheap-hour headroom against expensive hours, which is the
// gap the Lyapunov queue closes.
[[nodiscard]] std::unique_ptr<Policy> make_greedy_budget_pipeline(
    const core::Instance& instance, const core::CgbaConfig& cgba = {});

// FixedFrequency → CgbaAssign → CgbaDecisionOut.
// The "fixed-*" ablation: CGBA at a constant `fraction` of every server's
// range (1.0 = always F^U, 0.0 = always F^L), no budget adaptation.
[[nodiscard]] std::unique_ptr<Policy> make_fixed_frequency_pipeline(
    const core::Instance& instance, double fraction,
    const core::CgbaConfig& cgba = {});

// BetaOracle → BetaDecisionOut. The Lemma-2 β-only oracle ("beta-only"):
// each slot, minimize latency within the per-slot budget. Queue-free, the
// strongest baseline of Theorem 4's policy class.
[[nodiscard]] std::unique_ptr<Policy> make_beta_only_pipeline(
    const core::Instance& instance, const core::BetaOnlyConfig& config = {});

// TrendObserve → FixedFrequency(0.0) → CgbaAssign → MpcPlan →
// MpcDecisionOut. The receding-horizon "mpc" baseline (sim/mpc_policy.h):
// the assignment is solved at the floor Ω^L, then the plan picks Ω.
[[nodiscard]] std::unique_ptr<Policy> make_mpc_pipeline(
    const core::Instance& instance, const MpcConfig& config = {});

}  // namespace eotora::sim::pipeline
