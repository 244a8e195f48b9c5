// Domain example: riding volatile renewable electricity prices.
//
// The paper motivates the time-varying price model with renewable
// generation: solar/wind make prices swing and occasionally spike. This
// example stresses the controller with a volatile, spiky price trace and
// compares three operating modes on identical inputs:
//   1. BDMA-based DPP (the paper's controller)          — budget-aware,
//   2. always-max frequency with CGBA assignment        — latency-first,
//   3. always-min frequency with CGBA assignment        — cost-first.
// It prints what each spike does to the DPP queue and how much money the
// Lyapunov controller saves at what latency premium.
//
//   $ ./examples/green_energy_scaling
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  sim::ScenarioConfig config;
  config.devices = 100;
  config.budget_per_slot = 1.0;
  config.seed = 77;
  // Volatile renewable-heavy market: bigger noise, frequent 3x spikes.
  config.price.noise_stddev = 15.0;
  config.price.spike_probability = 0.05;
  config.price.spike_multiplier = 3.0;
  sim::Scenario scenario(config);
  sim::print_scenario(std::cout, scenario);

  const std::size_t horizon = 24 * 10;
  const auto states = scenario.generate_states(horizon);

  sim::PolicyParams params;
  params.v = 100.0;
  params.bdma_iterations = 5;
  std::vector<sim::SimulationResult> results;
  for (const char* name : {"dpp-bdma", "fixed-max", "fixed-min"}) {
    const auto policy = sim::make_policy(name, scenario.instance(), params);
    sim::MaterializedSource source(states);
    results.push_back(sim::run_policy(*policy, source));
  }

  std::cout << "\n";
  sim::print_comparison(std::cout, results, config.budget_per_slot);

  // Spike anatomy: how the DPP queue and the per-slot cost react to the five
  // most expensive slots.
  const auto& queue = results[0].metrics.queue_series();
  const auto& cost = results[0].metrics.cost_series();
  std::vector<std::size_t> spikes;
  for (std::size_t t = 1; t + 1 < horizon; ++t) {
    if (states[t].price_per_mwh > 150.0) spikes.push_back(t);
  }
  std::cout << "\nprice spikes > $150/MWh and the controller's reaction:\n";
  util::Table table({"slot", "price $/MWh", "DPP cost $", "queue before",
                     "queue after"});
  std::size_t shown = 0;
  for (std::size_t t : spikes) {
    if (shown++ >= 8) break;
    table.add_numeric_row({static_cast<double>(t), states[t].price_per_mwh,
                           cost[t], t > 0 ? queue[t - 1] : 0.0, queue[t]},
                          2);
  }
  table.print(std::cout);

  const double dpp_cost = results[0].metrics.average_energy_cost();
  const double max_cost = results[1].metrics.average_energy_cost();
  const double dpp_latency = results[0].metrics.average_latency();
  const double max_latency = results[1].metrics.average_latency();
  std::cout << "\nDPP vs always-max: saves "
            << util::format_double((1.0 - dpp_cost / max_cost) * 100.0, 1)
            << "% energy cost for a "
            << util::format_double((dpp_latency / max_latency - 1.0) * 100.0,
                                   1)
            << "% latency premium.\n";
  return 0;
}
