// Side-by-side comparison of every online policy in the library on the same
// scenario — the paper's controller, its two weaker-inner-solver variants,
// the myopic per-slot-budget baseline, the two fixed-frequency extremes,
// and the receding-horizon MPC planner.
//
// The policies are selected by registry name and executed by the sweep
// runner (sim/runner.h), which also emits the machine-readable artifact
// when --out is given.
//
//   $ ./examples/compare_policies [--devices=N] [--seed=S] [--horizon=T]
//                                 [--threads=K] [--out=path.json]
#include <iostream>

#include "eotora/eotora.h"

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"devices", "seed", "horizon", "threads", "out"});
    sim::SweepSpec spec;
    spec.name = "compare_policies";
    spec.base.devices = args.get_uint("devices", 100);
    spec.base.budget_per_slot = 1.0;
    spec.base.seed = args.get_uint("seed", 4242);
    spec.horizon = args.get_uint("horizon", 24 * 10);
    spec.window = spec.horizon;  // full-run averages
    spec.policies = {"dpp-bdma",      "dpp-mcba",  "dpp-ropt", "greedy-budget",
                     "fixed-max",     "fixed-min", "mpc"};
    spec.params.v = 100.0;
    // Start the virtual queue near its converged level so the averages
    // below reflect steady state rather than the ramp-up transient.
    spec.params.initial_queue = 30.0;
    spec.params.bdma_iterations = 5;
    spec.params.mcba_iterations = 3000;

    sim::Scenario scenario(spec.base);
    sim::print_scenario(std::cout, scenario);

    std::cout << "\n";
    const auto result = sim::run_sweep(spec, args.get_uint("threads", 0));
    result.table().print(std::cout);

    std::cout
        << "\nreading the table:\n"
        << "  - BDMA-based DPP should dominate: lowest latency among the\n"
        << "    budget-respecting policies.\n"
        << "  - Greedy spends the budget every slot, so it buys speed in\n"
        << "    cheap hours it could have banked for expensive ones; MPC\n"
        << "    plans from learned trends but overspends without feedback.\n"
        << "  - Always-max is the latency floor but blows the budget;\n"
        << "    always-min is the cost floor with the worst latency.\n";
    if (args.has("out")) {
      const std::string path = args.get("out", "");
      result.write_json(path);
      std::cout << "wrote " << path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
