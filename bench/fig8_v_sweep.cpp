// Figure 8 — converged average queue backlog and time-average latency of
// BDMA-based DPP versus V in {10, 50, 100, 150, 200, 500}.
//
// Paper's reported shape: backlog grows roughly linearly in V; average
// latency decreases toward a floor as V grows (Theorem 4's B*D/V gap).
//
// Runs through sim::run_sweep; cells execute over the shared thread pool
// and the results are identical for any --threads value.
//
//   --devices=N --seed=S --horizon=T --threads=K --out=path.json
#include <algorithm>
#include <iostream>

#include "eotora/eotora.h"

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"devices", "seed", "horizon", "threads", "out"});
    sim::SweepSpec spec;
    spec.name = "fig8_v_sweep";
    spec.base.devices = args.get_uint("devices", 100);
    spec.base.budget_per_slot = 1.0;
    spec.base.seed = args.get_uint("seed", 2023);
    spec.horizon = args.get_uint("horizon", 24 * 14);
    spec.window = std::min<std::size_t>(72, spec.horizon);
    spec.axes = {{"v", {10.0, 50.0, 100.0, 150.0, 200.0, 500.0}}};
    spec.policies = {"dpp-bdma"};

    std::cout << "Fig. 8 reproduction: average queue backlog and latency of "
                 "BDMA-based DPP vs V (I = "
              << spec.base.devices << ", z = 5)\n\n";
    const auto result = sim::run_sweep(spec, args.get_uint("threads", 0));
    result.table().print(std::cout);
    std::cout << "\nexpected shape: backlog increases (roughly linearly) with "
                 "V; latency decreases toward its floor as V grows.\n";
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
