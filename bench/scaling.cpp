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
// A second dimension (--metro-out) swaps in the metro-district scenario
// (ScenarioConfig::metro_districts) and compares the sharded P2-A drivers
// (core/sharded) against the global solve on identical instances, devices
// 10^3 -> 10^5 with the district grid growing alongside (committed
// baseline: BENCH_shards.json). The two arms return bit-identical
// decisions; the study isolates the decision-time win of solving hundreds
// of independent components instead of one metro-wide game.
//
//   --devices-max=N --seed=S --horizon=T --threads=K --out=path.json
//   --metro-out=path.json [--metro-devices-max=N]
#include <algorithm>
#include <iostream>

#include "eotora/eotora.h"

namespace {

using namespace eotora;

// The metro study: sharded vs global P2-A on the metro-district scenario
// (sim::ScenarioConfig::metro_districts), devices 10^3 -> 10^5 with the
// district grid growing alongside. Every deterministic result field is
// bit-identical between the two arms (the sharded drivers' contract); the
// study measures what the decomposition buys in decision time when the WCG
// splits into hundreds of components.
void run_metro_study(const std::string& out_path, long devices_max,
                     std::uint64_t seed) {
  struct MetroPoint {
    std::size_t devices;
    std::size_t districts;
  };
  std::vector<MetroPoint> points;
  for (const MetroPoint p :
       {MetroPoint{1000, 16}, MetroPoint{10000, 64}, MetroPoint{100000, 256}}) {
    if (p.devices <= static_cast<std::size_t>(devices_max)) {
      points.push_back(p);
    }
  }
  if (points.empty()) {
    throw std::invalid_argument("--metro-devices-max must be >= 1000");
  }

  std::cout << "\nMetro study: BDMA(3) sharded vs global P2-A, "
            << points.front().devices << " -> " << points.back().devices
            << " devices\n\n";
  util::Json records = util::Json::array();
  double total_seconds = 0.0;
  for (const MetroPoint& point : points) {
    double global_decision_seconds = 0.0;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{8}}) {
      sim::SweepSpec spec;
      spec.name = "metro_scaling";
      spec.base.seed = seed;
      spec.base.devices = point.devices;
      spec.base.metro_districts = point.districts;
      spec.base.stations_per_district = 2;
      spec.base.servers_per_cluster = 4;
      spec.horizon = 2;
      spec.window = 2;
      spec.policies = {"dpp-bdma"};
      spec.params.v = 100.0;
      spec.params.bdma_iterations = 3;
      spec.params.shard_workers = workers;

      const auto result = sim::run_sweep(spec, 1);
      const sim::SweepCell& cell = result.cells.front();
      // The observed component count, from the p2a_solve stage's per-shard
      // telemetry (empty for the global arm).
      std::size_t observed_shards = 0;
      for (const auto& stage : cell.stages) {
        observed_shards = std::max(observed_shards, stage.shards.size());
      }

      util::Json record = util::Json::object();
      record["devices"] = point.devices;
      record["districts"] = point.districts;
      record["shard_workers"] = workers;
      record["observed_shards"] = observed_shards;
      record["policy"] = cell.policy;
      record["avg_latency"] = cell.avg_latency;
      record["avg_cost"] = cell.avg_cost;
      record["avg_backlog"] = cell.avg_backlog;
      record["counters"] = cell.counters.to_json();
      // Per-stage breakdown with the per-shard telemetry, mirroring
      // SweepResult::write_json — CI validates that the in-shard counter
      // fields of each "shards" array sum to the stage totals.
      util::Json stages_json = util::Json::array();
      for (const auto& stage : cell.stages) {
        util::Json stage_json = util::Json::object();
        stage_json["name"] = stage.name;
        stage_json["runs"] = stage.runs;
        stage_json["counters"] = stage.counters.to_json();
        if (!stage.shards.empty()) {
          util::Json shards_json = util::Json::array();
          for (const auto& shard : stage.shards) {
            shards_json.push_back(shard.to_json());
          }
          stage_json["shards"] = std::move(shards_json);
        }
        stage_json["seconds"] = stage.seconds;
        stages_json.push_back(std::move(stage_json));
      }
      record["stages"] = std::move(stages_json);
      // Wall-clock fields: NOT deterministic across machines.
      record["decision_seconds"] = cell.decision_seconds;
      record["wall_seconds"] = cell.wall_seconds;
      if (workers == 0) {
        global_decision_seconds = cell.decision_seconds;
      } else if (cell.decision_seconds > 0.0) {
        record["speedup_vs_global"] =
            global_decision_seconds / cell.decision_seconds;
      }
      records.push_back(std::move(record));
      total_seconds += result.wall_seconds;

      std::cout << "  devices=" << point.devices
                << "  districts=" << point.districts
                << (workers == 0 ? "  global " : "  sharded")
                << "  shards=" << observed_shards << "  decision "
                << cell.decision_seconds << " s";
      if (workers != 0 && cell.decision_seconds > 0.0) {
        std::cout << "  (" << global_decision_seconds / cell.decision_seconds
                  << "x vs global)";
      }
      std::cout << "\n";
    }
  }

  util::Json doc = util::Json::object();
  doc["schema"] = "eotora-sweep-v1";
  doc["commit"] = util::build_info().commit;
  doc["build_type"] = util::build_info().build_type;
  doc["name"] = "metro_scaling";
  doc["horizon"] = std::size_t{2};
  doc["window"] = std::size_t{2};
  doc["seeds"] = std::size_t{1};
  util::Json axes = util::Json::array();
  {
    util::Json axis = util::Json::object();
    axis["name"] = "devices";
    util::Json values = util::Json::array();
    for (const MetroPoint& p : points) values.push_back(p.devices);
    axis["values"] = std::move(values);
    axes.push_back(std::move(axis));
  }
  {
    util::Json axis = util::Json::object();
    axis["name"] = "shards";
    util::Json values = util::Json::array();
    values.push_back(0.0);
    values.push_back(8.0);
    axis["values"] = std::move(values);
    axes.push_back(std::move(axis));
  }
  doc["axes"] = std::move(axes);
  util::Json policies = util::Json::array();
  policies.push_back("dpp-bdma");
  doc["policies"] = std::move(policies);
  doc["records"] = std::move(records);
  doc["wall_seconds"] = total_seconds;
  util::write_json_file(out_path, doc);
  std::cout << "\nwrote " << out_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"devices-max", "seed", "horizon", "threads", "out",
                           "metro-out", "metro-devices-max"});
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
    if (args.has("metro-out")) {
      run_metro_study(args.get("metro-out", ""),
                      args.get_int("metro-devices-max", 100000),
                      args.get_uint("seed", 4000));
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
