// Quickstart: build the paper's default MEC scenario, run BDMA-based DPP for
// one simulated week, and print what the controller did.
//
//   $ ./examples/quickstart
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  // 1. The paper's simulation setting (§VI-A): 6 base stations, 2 server
  //    rooms with 8 servers each, 100 mobile devices, NYISO-like prices.
  //    The source draws one simulated week of hourly slots, one at a time.
  sim::ScenarioConfig config;
  config.devices = 100;
  config.budget_per_slot = 1.0;  // $ per hourly slot
  config.seed = 7;
  sim::ScenarioSource source(config, 24 * 7);
  sim::print_scenario(std::cout, source.scenario());

  // 2. The online controller: Algorithm 1 (DPP) with BDMA(z = 5) inside.
  sim::PolicyParams params;
  params.v = 100.0;
  params.bdma_iterations = 5;
  const auto policy = sim::make_policy("dpp-bdma", source.instance(), params);

  // 3. Observe β_t, decide α_t, slot by slot.
  const auto result = sim::run_policy(*policy, source);
  const auto& queue_series = result.metrics.queue_series();

  // 4. Results.
  std::cout << "\nran " << result.metrics.slots() << " slots with "
            << result.policy_name << " (V = " << params.v << ")\n"
            << "  time-average latency     : "
            << result.metrics.average_latency() << " s\n"
            << "  time-average energy cost : $"
            << result.metrics.average_energy_cost() << " per slot (budget $"
            << config.budget_per_slot << ")\n"
            << "  final queue backlog      : " << queue_series.back() << "\n"
            << "  decision time            : " << result.wall_seconds
            << " s total\n";

  // 5. A peek at the last slot's decision.
  std::cout << "\nqueue backlog (last 12 slots):";
  for (std::size_t t = queue_series.size() - 12; t < queue_series.size(); ++t) {
    std::cout << ' ' << util::format_double(queue_series[t], 2);
  }
  std::cout << '\n';
  return 0;
}
