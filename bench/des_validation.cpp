// Model validation — the paper's fluid latency model vs a flow-level
// discrete-event execution of the same decisions (src/des), swept over
// policies x scenario presets x sharing disciplines.
//
// For every (policy, scenario) cell one multi-slot sim::run_policy run
// feeds every slot's decision, through its slot observer, to three
// des::FlowSimulator instances sharing the decision stream:
//
//   static      kStaticShares, slot-start arrivals — must reproduce the
//               analytic Σ_i L_i to numerical precision (the Eq. (18)-(19)
//               cross-validation; column "static/fluid" prints 1.000000).
//   ps          kProcessorSharing, slot-start arrivals — a work-conserving
//               system under the same decisions; "ps/fluid" < 1 means the
//               paper's static-reservation model is conservative, so its
//               guarantees are safe-side.
//   ps-poisson  kProcessorSharing with within-slot Poisson arrivals —
//               de-synchronized arrival phases, the least favorable case
//               for batching artifacts.
//
// The JSON artifact (--out) is an eotora-sweep-v1 document with one record
// per cell carrying the totals, ratios, event counts, spillovers, and the
// max per-device static gap; BENCH_des.json at the repo root is the
// committed snapshot (see EXPERIMENTS.md for regeneration).
//
//   --devices=N --horizon=T --seed=S --rate=L --out=path.json
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "eotora/eotora.h"

namespace {

struct CellResult {
  std::string policy;
  std::string scenario;
  double analytic = 0.0;
  double realized_static = 0.0;
  double realized_ps = 0.0;
  double realized_ps_poisson = 0.0;
  double max_static_device_gap = 0.0;
  std::size_t events_static = 0;
  std::size_t events_ps = 0;
  std::size_t events_ps_poisson = 0;
  std::size_t spillovers_ps = 0;
  std::size_t spillovers_ps_poisson = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"devices", "horizon", "seed", "rate", "out"});
    const auto devices = args.get_uint("devices", 24);
    const auto horizon = args.get_uint("horizon", 48);
    const auto seed = args.get_uint("seed", 7);
    const double rate = args.get_double("rate", 4.0);

    const std::vector<std::string> policies = {"dpp-bdma", "dpp-mcba",
                                               "greedy-budget"};
    const std::vector<std::string>& scenarios = sim::registered_scenarios();

    std::cout << "Model validation: fluid latency model vs flow-level DES\n"
              << "I = " << devices << ", T = " << horizon
              << " slots, seed = " << seed << ", Poisson rate = " << rate
              << "/slot\n\n";

    util::Table table({"policy", "scenario", "fluid (s)", "static/fluid",
                       "ps/fluid", "ps-poisson/fluid", "max dev gap (s)",
                       "events", "ps spill"});
    std::vector<CellResult> cells;
    for (const std::string& policy_name : policies) {
      for (const std::string& scenario_name : scenarios) {
        sim::ScenarioConfig config;
        sim::apply_scenario_preset(scenario_name, config);
        config.devices = devices;
        config.seed = seed;
        sim::ScenarioSource source(config, horizon);
        const core::Instance& instance = source.instance();

        sim::PolicyParams params;
        params.bdma_iterations = 3;
        const auto policy = sim::make_policy(policy_name, instance, params);

        des::HorizonConfig fixed_config;
        fixed_config.discipline = des::SharingDiscipline::kStaticShares;
        fixed_config.keep_tasks = false;
        des::HorizonConfig ps_config = fixed_config;
        ps_config.discipline = des::SharingDiscipline::kProcessorSharing;
        des::HorizonConfig poisson_config = ps_config;
        poisson_config.arrivals = des::ArrivalModel::kPoisson;
        poisson_config.arrival_rate = rate;
        des::FlowSimulator fixed(instance, fixed_config);
        des::FlowSimulator ps(instance, ps_config);
        des::FlowSimulator ps_poisson(instance, poisson_config);

        // The decision stream here is bit-identical to what the CLI
        // --log path records.
        (void)sim::run_policy(
            *policy, source, 1, /*keep_series=*/false,
            [&](const core::SlotState& state, const core::DppSlotResult& slot,
                double) {
              fixed.push_slot(state, slot.decision);
              ps.push_slot(state, slot.decision);
              ps_poisson.push_slot(state, slot.decision);
            });

        const des::HorizonResult fixed_result = fixed.finish();
        const des::HorizonResult ps_result = ps.finish();
        const des::HorizonResult poisson_result = ps_poisson.finish();

        CellResult cell;
        cell.policy = policy_name;
        cell.scenario = scenario_name;
        cell.analytic = fixed_result.total_analytic();
        cell.realized_static = fixed_result.total_realized();
        cell.realized_ps = ps_result.total_realized();
        cell.realized_ps_poisson = poisson_result.total_realized();
        for (const des::SlotGap& gap : fixed_result.slots) {
          cell.max_static_device_gap =
              std::max(cell.max_static_device_gap, gap.max_device_gap);
        }
        cell.events_static = fixed_result.events;
        cell.events_ps = ps_result.events;
        cell.events_ps_poisson = poisson_result.events;
        for (const des::SlotGap& gap : ps_result.slots) {
          cell.spillovers_ps += gap.spillovers;
        }
        for (const des::SlotGap& gap : poisson_result.slots) {
          cell.spillovers_ps_poisson += gap.spillovers;
        }
        cells.push_back(cell);

        table.add_row(
            {cell.policy, cell.scenario,
             util::format_double(cell.analytic, 3),
             util::format_double(cell.realized_static / cell.analytic, 6),
             util::format_double(cell.realized_ps / cell.analytic, 4),
             util::format_double(cell.realized_ps_poisson / cell.analytic, 4),
             util::format_double(cell.max_static_device_gap, 12),
             std::to_string(cell.events_ps),
             std::to_string(cell.spillovers_ps)});
      }
    }
    table.print(std::cout);
    std::cout
        << "\nreading: static/fluid == 1.000000 (max dev gap ~1e-12 s) "
           "validates the Eq. (18)-(19) evaluator against a microscopic "
           "execution on every scenario; ps/fluid < 1 shows the fluid "
           "model is conservative — a work-conserving deployment beats "
           "what the optimizer promises, Poisson phasing included.\n";

    if (args.has("out")) {
      util::Json doc = util::Json::object();
      doc["schema"] = "eotora-sweep-v1";
      doc["commit"] = util::build_info().commit;
      doc["build_type"] = util::build_info().build_type;
      doc["name"] = "des_validation";
      doc["devices"] = devices;
      doc["horizon"] = horizon;
      doc["seed"] = seed;
      doc["arrival_rate"] = rate;
      util::Json policies_json = util::Json::array();
      for (const auto& name : policies) policies_json.push_back(name);
      doc["policies"] = std::move(policies_json);
      util::Json scenarios_json = util::Json::array();
      for (const auto& name : scenarios) scenarios_json.push_back(name);
      doc["scenarios"] = std::move(scenarios_json);
      util::Json records = util::Json::array();
      for (const CellResult& cell : cells) {
        util::Json record = util::Json::object();
        record["policy"] = cell.policy;
        record["scenario"] = cell.scenario;
        record["analytic_latency"] = cell.analytic;
        record["realized_static"] = cell.realized_static;
        record["realized_ps"] = cell.realized_ps;
        record["realized_ps_poisson"] = cell.realized_ps_poisson;
        record["ratio_static"] = cell.realized_static / cell.analytic;
        record["ratio_ps"] = cell.realized_ps / cell.analytic;
        record["ratio_ps_poisson"] = cell.realized_ps_poisson / cell.analytic;
        record["max_static_device_gap"] = cell.max_static_device_gap;
        record["events_static"] = cell.events_static;
        record["events_ps"] = cell.events_ps;
        record["events_ps_poisson"] = cell.events_ps_poisson;
        record["spillovers_ps"] = cell.spillovers_ps;
        record["spillovers_ps_poisson"] = cell.spillovers_ps_poisson;
        records.push_back(std::move(record));
      }
      doc["records"] = std::move(records);
      const std::string path = args.get("out", "");
      util::write_json_file(path, doc);
      std::cout << "wrote " << path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
