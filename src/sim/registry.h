// String-keyed policy registry: every online policy in the library,
// constructible by name.
//
// Benches, examples, and the sweep runner select policies declaratively
// ("dpp-bdma", "greedy-budget", ...) instead of hand-wiring constructor
// calls, so a new policy registered here is immediately sweepable from
// every harness. The knobs a sweep commonly varies are collected in
// PolicyParams (sim/policy_params.h); anything not covered there is built
// with the assembly factories directly. Every name is built as a
// sim::pipeline assembly (sim/pipeline/assemblies.h), with a per-stage
// stats/trace breakdown.
//
// Registered names:
//   beta-only        make_beta_only_pipeline (Lemma-2 per-slot budget oracle)
//   dpp-bdma         make_dpp_pipeline, CGBA inner solver (the paper's
//                    controller)
//   dpp-mcba         make_dpp_pipeline, MCBA inner solver ("MCBA-based DPP")
//   dpp-ropt         make_dpp_pipeline, ROPT inner solver ("ROPT-based DPP")
//   greedy-budget    make_greedy_budget_pipeline (myopic per-slot budget)
//   fixed-frequency  make_fixed_frequency_pipeline at params.fixed_fraction
//   fixed-max        make_fixed_frequency_pipeline at 1.0 (latency floor)
//   fixed-min        make_fixed_frequency_pipeline at 0.0 (cost floor)
//   mpc              make_mpc_pipeline (receding-horizon baseline),
//                    params.mpc
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "sim/mpc_policy.h"
#include "sim/policy.h"
#include "sim/policy_params.h"

namespace eotora::sim {

// Sorted names of every registered policy.
[[nodiscard]] std::vector<std::string> registered_policies();

// Maps the historical short names (bdma, mcba, ropt, greedy) to their
// registry names; every other name is returned unchanged.
[[nodiscard]] std::string resolve_policy_alias(const std::string& name);

// One-line human description of the named policy (for --list-policies and
// similar listings). Throws std::invalid_argument for an unknown name,
// listing the registered ones.
[[nodiscard]] std::string policy_description(const std::string& name);

// Whether the named policy maintains the DPP virtual queue (Eq. (21)).
// Policies that don't report Q_before == Q_after == 0 with theta != 0, so
// audits of their runs should disable the queue-ledger checks
// (AuditConfig::check_queue).
[[nodiscard]] bool policy_tracks_queue(const std::string& name);

// Builds a fresh policy bound to `instance`. Throws std::invalid_argument
// for an unknown name, listing the registered ones.
[[nodiscard]] std::unique_ptr<Policy> make_policy(
    const std::string& name, const core::Instance& instance,
    const PolicyParams& params = {});

}  // namespace eotora::sim
