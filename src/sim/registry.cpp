#include "sim/registry.h"

#include <functional>
#include <map>
#include <sstream>

#include "sim/pipeline/assemblies.h"
#include "util/check.h"

namespace eotora::sim {

namespace {

using Builder = std::function<std::unique_ptr<Policy>(
    const core::Instance&, const PolicyParams&)>;

// Builder plus the one-liner shown by listings (--list-policies).
struct Entry {
  Builder build;
  const char* description;
};

std::unique_ptr<Policy> make_dpp(core::P2aSolverKind kind,
                                 const core::Instance& instance,
                                 const PolicyParams& params) {
  return pipeline::make_dpp_pipeline(instance, dpp_config_from(params, kind));
}

// std::map keeps registered_policies() sorted with no extra work.
const std::map<std::string, Entry>& entries() {
  static const std::map<std::string, Entry> registry = {
      {"beta-only",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_beta_only_pipeline(
              instance, beta_only_config_from(params));
        },
        "Lemma-2 per-slot budget oracle (queue-free latency reference)"}},
      {"dpp-bdma",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return make_dpp(core::P2aSolverKind::kCgba, instance, params);
        },
        "the paper's DPP controller, BDMA/CGBA inner solver"}},
      {"dpp-mcba",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return make_dpp(core::P2aSolverKind::kMcba, instance, params);
        },
        "DPP with the MCBA inner solver (Fig. 9 baseline)"}},
      {"dpp-ropt",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return make_dpp(core::P2aSolverKind::kRopt, instance, params);
        },
        "DPP with the ROPT inner solver (Fig. 9 baseline)"}},
      {"greedy-budget",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_greedy_budget_pipeline(
              instance, baseline_cgba_config_from(params));
        },
        "myopic baseline: spend up to the budget every slot"}},
      {"fixed-frequency",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_fixed_frequency_pipeline(
              instance, params.fixed_fraction,
              baseline_cgba_config_from(params));
        },
        "CGBA assignment at a fixed frequency fraction (fixed_fraction)"}},
      {"fixed-max",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_fixed_frequency_pipeline(
              instance, 1.0, baseline_cgba_config_from(params));
        },
        "fixed-frequency ablation at fraction 1.0 (latency floor)"}},
      {"fixed-min",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_fixed_frequency_pipeline(
              instance, 0.0, baseline_cgba_config_from(params));
        },
        "fixed-frequency ablation at fraction 0.0 (cost floor)"}},
      {"mpc",
       {[](const core::Instance& instance, const PolicyParams& params) {
          return pipeline::make_mpc_pipeline(instance,
                                             mpc_config_from(params));
        },
        "certainty-equivalence receding-horizon planner (trend forecasts)"}},
  };
  return registry;
}

[[noreturn]] void throw_unknown_policy(const std::string& name) {
  std::ostringstream message;
  message << "unknown policy \"" << name << "\"; registered policies:";
  for (const auto& known : registered_policies()) message << ' ' << known;
  throw std::invalid_argument(message.str());
}

}  // namespace

std::vector<std::string> registered_policies() {
  std::vector<std::string> names;
  names.reserve(entries().size());
  for (const auto& [name, entry] : entries()) names.push_back(name);
  return names;
}

std::string resolve_policy_alias(const std::string& name) {
  if (name == "bdma") return "dpp-bdma";
  if (name == "mcba") return "dpp-mcba";
  if (name == "ropt") return "dpp-ropt";
  if (name == "greedy") return "greedy-budget";
  return name;
}

std::string policy_description(const std::string& name) {
  const auto it = entries().find(name);
  if (it == entries().end()) throw_unknown_policy(name);
  return it->second.description;
}

std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const core::Instance& instance,
                                    const PolicyParams& params) {
  const auto it = entries().find(name);
  if (it == entries().end()) throw_unknown_policy(name);
  auto policy = it->second.build(instance, params);
  EOTORA_ASSERT(policy != nullptr);
  return policy;
}

bool policy_tracks_queue(const std::string& name) {
  // Only the DPP family maintains the virtual queue of Eq. (21); every
  // other registered policy reports Q == 0 regardless of theta.
  return name.rfind("dpp-", 0) == 0;
}

}  // namespace eotora::sim
