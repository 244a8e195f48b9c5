#include "sim/scenario_registry.h"

#include <sstream>

#include "util/check.h"

namespace eotora::sim {

namespace {

[[noreturn]] void unknown_scenario(const std::string& name) {
  std::ostringstream message;
  message << "unknown scenario '" << name << "' (known:";
  for (const std::string& known : registered_scenarios()) {
    message << ' ' << known;
  }
  message << ')';
  throw std::invalid_argument(message.str());
}

}  // namespace

const std::vector<std::string>& registered_scenarios() {
  static const std::vector<std::string> names = {
      "paper", "handover", "churn", "bursty", "price-spike"};
  return names;
}

std::string scenario_description(const std::string& name) {
  if (name == "paper") {
    return "stock paper configuration (Sec. VI-A); no transform";
  }
  if (name == "handover") {
    return "mobility handover: mid-band cells shrunk to 0.6x, 600 s of "
           "movement per slot — devices cross cell boundaries mid-horizon";
  }
  if (name == "churn") {
    return "join/leave churn: per-device two-state Markov presence "
           "(leave 0.08, join 0.25); away devices trickle at 5% workload";
  }
  if (name == "bursty") {
    return "bursty diurnal workload: trend weight 0.9 with 2.5x correlated "
           "demand bursts at p=0.08 per slot";
  }
  if (name == "price-spike") {
    return "price-spike trend: scarcity spikes at p=0.10 per slot, 6x "
           "multiplier — stress for the budget queue";
  }
  unknown_scenario(name);
}

void apply_scenario_preset(const std::string& name, ScenarioConfig& config) {
  if (name == "paper") return;
  if (name == "handover") {
    // Stock radii cover 0.25–0.45 of the region side: nearly every walk
    // stays in-cell. Shrinking to 0.6x and stretching per-slot movement to
    // 600 s makes coverage churn the dominant state dynamic; the low-band
    // umbrella stations keep every device feasible throughout.
    config.mobility_slot_seconds = 600.0;
    config.mid_band_coverage_scale = 0.6;
    return;
  }
  if (name == "churn") {
    config.churn.enabled = true;
    return;
  }
  if (name == "bursty") {
    config.bursts.enabled = true;
    config.workload_trend_weight = 0.9;
    return;
  }
  if (name == "price-spike") {
    config.price.spike_probability = 0.10;
    config.price.spike_multiplier = 6.0;
    return;
  }
  unknown_scenario(name);
}

}  // namespace eotora::sim
