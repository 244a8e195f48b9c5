// How far is the online controller from the best β-only benchmark?
//
// Lemma 2 / Theorem 4 compare DPP against the optimal policy that sees only
// the current state and keeps the cost at the budget in every slot. This
// example computes that benchmark per slot (core/beta_only: dualized budget,
// bisection on the multiplier) and runs BDMA-based DPP on the same states,
// then reports the latency gap and the Theorem-4 instrumentation (empirical
// B, the B·D/V term) from core/lyapunov.
//
//   $ ./examples/offline_vs_online
#include <iostream>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  sim::ScenarioConfig config;
  config.devices = 80;
  config.budget_per_slot = 1.0;
  config.seed = 555;
  sim::Scenario scenario(config);
  sim::print_scenario(std::cout, scenario);

  const std::size_t horizon = 24 * 5;
  const auto states = scenario.generate_states(horizon);
  const auto& instance = scenario.instance();

  // Online: DPP with Lyapunov instrumentation.
  sim::PolicyParams params;
  params.v = 100.0;
  params.initial_queue = 25.0;
  params.bdma_iterations = 3;
  const auto policy = sim::make_policy("dpp-bdma", instance, params);
  core::LyapunovAnalyzer analyzer(params.v);
  util::Rng rng(1);
  double online_latency = 0.0;
  double online_cost = 0.0;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    analyzer.record(slot);
    online_latency += slot.latency;
    online_cost += slot.energy_cost;
  }
  online_latency /= static_cast<double>(horizon);
  online_cost /= static_cast<double>(horizon);

  // Benchmark: β-only oracle spending exactly the budget each slot. (It may
  // be infeasible in expensive slots — it then pays the floor cost, which an
  // online policy can legally average out; this is why DPP can even beat it
  // in latency at equal average cost.)
  core::BetaOnlyConfig oracle_config;
  oracle_config.bdma.iterations = 3;
  double oracle_latency = 0.0;
  double oracle_cost = 0.0;
  for (const auto& state : states) {
    const auto slot = core::solve_beta_only(
        instance, state, config.budget_per_slot, oracle_config);
    oracle_latency += slot.latency;
    oracle_cost += slot.energy_cost;
  }
  oracle_latency /= static_cast<double>(horizon);
  oracle_cost /= static_cast<double>(horizon);

  util::Table table({"policy", "avg latency (s)", "avg cost ($/slot)"});
  table.add_row({"BDMA-based DPP (V = 100)",
                 util::format_double(online_latency, 4),
                 util::format_double(online_cost, 4)});
  table.add_row({"beta-only oracle (per-slot budget)",
                 util::format_double(oracle_latency, 4),
                 util::format_double(oracle_cost, 4)});
  table.print(std::cout);

  std::cout << "\nTheorem 4 instrumentation over " << horizon << " slots:\n"
            << "  empirical B (mean of 0.5*theta^2) : " << analyzer.b_mean()
            << "\n  empirical B (max)                 : " << analyzer.b_max()
            << "\n  latency-gap term B*D/V (D = 24)   : "
            << analyzer.theorem4_gap(24.0) << " s\n"
            << "  drift telescoping check           : sum "
            << analyzer.drift_sum() << " vs 0.5*(Q_T^2 - Q_0^2) = "
            << analyzer.telescoped_drift() << "\n"
            << "\nreading: DPP's time-average latency lands within the "
               "B*D/V band of the per-slot-budget benchmark, at compliant "
               "average cost — the Theorem 4 trade-off made concrete.\n";
  return 0;
}
