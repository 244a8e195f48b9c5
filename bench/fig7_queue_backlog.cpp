// Figure 7 — virtual queue backlog Q(t) of BDMA-based DPP over time for
// V in {50, 100} (I = 100, z = 5).
//
// Paper's reported shape: the backlog rises from Q(1), converges, then
// oscillates with the electricity-price period — rising in expensive hours,
// falling in cheap ones. Larger V converges to a larger backlog.
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;
  const std::size_t horizon = 24 * 14;  // two weeks of hourly slots

  sim::ScenarioConfig config;
  config.devices = 100;
  config.budget_per_slot = 1.0;
  config.seed = 2023;
  sim::Scenario scenario(config);
  const auto states = scenario.generate_states(horizon);

  std::cout << "Fig. 7 reproduction: queue backlog of BDMA-based DPP vs "
               "time (I = 100, z = 5, budget $"
            << config.budget_per_slot << "/slot)\n\n";

  std::vector<std::vector<double>> backlogs;
  const std::vector<double> vs = {50.0, 100.0};
  for (double v : vs) {
    sim::PolicyParams params;
    params.v = v;
    params.bdma_iterations = 5;
    const auto policy =
        sim::make_policy("dpp-bdma", scenario.instance(), params);
    sim::MaterializedSource source(states);
    const auto result = sim::run_policy(*policy, source);
    backlogs.push_back(result.metrics.queue_series());
  }

  util::Table table({"slot", "price $/MWh", "Q(t) V=50", "Q(t) V=100"});
  for (std::size_t t = 0; t < horizon; t += 8) {
    table.add_numeric_row({static_cast<double>(t), states[t].price_per_mwh,
                           backlogs[0][t], backlogs[1][t]},
                          2);
  }
  table.print(std::cout);

  // Convergence summary: mean backlog over the last 3 days.
  auto tail_mean = [&](const std::vector<double>& q) {
    double s = 0.0;
    for (std::size_t t = horizon - 72; t < horizon; ++t) s += q[t];
    return s / 72.0;
  };
  std::cout << "\nconverged backlog (mean of last 72 slots): V=50 -> "
            << util::format_double(tail_mean(backlogs[0]), 2)
            << ", V=100 -> " << util::format_double(tail_mean(backlogs[1]), 2)
            << "\n";
  std::cout << "expected shape: backlog rises then oscillates with the "
               "daily price cycle; the V=100 plateau sits above V=50.\n";
  return 0;
}
