// Named scenario presets — the scenario-diversity counterpart of the policy
// registry (sim/registry.h).
//
// A preset is a pure transform over ScenarioConfig: it flips the
// scenario-diversity knobs (scenario.h) but never touches the seed, the
// device count, the horizon, or anything else the caller chose — so one
// `--scenario` flag composes with every other CLI/SweepSpec axis. "paper"
// is the identity, kept in the registry so artifacts can name it
// explicitly.
//
//   paper        the stock §VI-A configuration (no transform)
//   handover     slow cells, fast walkers: mid-band coverage shrunk and
//                per-slot movement stretched so devices cross cell
//                boundaries mid-horizon (Hou et al., arXiv 2306.15185)
//   churn        join/leave two-state Markov churn per device
//                (Huang et al., arXiv 1904.13024)
//   bursty       correlated demand bursts on a strongly diurnal trend
//   price-spike  frequent, violent price spikes (scarcity stress for the
//                Lyapunov budget queue)
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.h"

namespace eotora::sim {

// Registry order is presentation order (CLI listings, bench sweeps).
[[nodiscard]] const std::vector<std::string>& registered_scenarios();

// One-line human description. Throws std::invalid_argument for unknown
// names (listing the registry).
[[nodiscard]] std::string scenario_description(const std::string& name);

// Applies the named preset's knobs to `config` in place. Throws
// std::invalid_argument for unknown names (listing the registry).
void apply_scenario_preset(const std::string& name, ScenarioConfig& config);

}  // namespace eotora::sim
