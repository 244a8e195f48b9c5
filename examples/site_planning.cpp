// Site planning: compare two candidate deployments BEFORE running the
// controller, using the Monte Carlo coverage analyzer, then confirm the
// choice with a short DPP simulation on each.
//
// Deployment A: four small mid-band cells, each wired to the nearer room —
// cheap, but with coverage holes and little base-station diversity.
// Deployment B: the same cells plus one low-band macro cell with wireless
// fronthaul to both rooms — full coverage and path diversity.
//
//   $ ./examples/site_planning
#include <iostream>
#include <memory>

#include "eotora/eotora.h"

namespace {

using namespace eotora;

std::shared_ptr<topology::Topology> build_site(bool with_macro,
                                               std::size_t devices,
                                               util::Rng& rng) {
  topology::TopologyBuilder builder;
  builder.set_region({1200.0, 1200.0});
  const auto west = builder.add_cluster("west-room", {300.0, 600.0});
  const auto east = builder.add_cluster("east-room", {900.0, 600.0});
  auto fit = std::make_shared<energy::QuadraticEnergy>(
      energy::reference_cpu_fit());
  for (int j = 0; j < 4; ++j) {
    builder.add_server("w" + std::to_string(j), west, 64, 1.8, 3.6, fit);
    builder.add_server("e" + std::to_string(j), east, 128, 1.8, 3.6, fit);
  }
  const topology::Point cells[4] = {
      {300.0, 300.0}, {300.0, 900.0}, {900.0, 300.0}, {900.0, 900.0}};
  for (int c = 0; c < 4; ++c) {
    builder.add_base_station("cell-" + std::to_string(c), cells[c],
                             topology::Band::kMid, 330.0, 80e6, 0.8e9, 10.0,
                             {cells[c].x < 600.0 ? west : east});
  }
  if (with_macro) {
    builder.add_base_station("macro", {600.0, 600.0}, topology::Band::kLow,
                             1700.0, 60e6, 0.6e9, 10.0, {west, east});
  }
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1200.0)});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

}  // namespace

int main() {
  using namespace eotora;
  const std::size_t devices = 40;

  std::cout << "Site planning: mid-band-only vs mid-band + macro cell\n\n";
  util::Table table({"deployment", "covered %", "diversity %",
                     "mean cells/point", "mean reachable servers",
                     "min reachable servers"});
  for (bool with_macro : {false, true}) {
    util::Rng rng(99);  // identical device draws for both candidates
    auto topo = build_site(with_macro, devices, rng);
    util::Rng coverage_rng(1);
    const auto report =
        topology::analyze_coverage(*topo, 20000, coverage_rng);
    table.add_row({with_macro ? "B: cells + macro" : "A: cells only",
                   util::format_double(report.covered_fraction * 100.0, 1),
                   util::format_double(report.diversity_fraction * 100.0, 1),
                   util::format_double(report.mean_covering_stations, 2),
                   util::format_double(report.mean_reachable_servers, 2),
                   util::format_double(report.min_reachable_servers, 0)});
  }
  table.print(std::cout);

  // Deployment A has holes: devices there have no usable link and the
  // controller (correctly) refuses the slot. Deployment B always works.
  std::cout << "\nrunning one DPP slot on each deployment:\n";
  for (bool with_macro : {false, true}) {
    util::Rng rng(99);
    auto topo = build_site(with_macro, devices, rng);
    const core::Instance instance =
        core::Instance::random(topo, rng, /*budget_per_slot=*/1.0);
    topology::ChannelModel channel(topology::ChannelConfig{}, *topo,
                                   rng.fork());
    core::SlotState state;
    state.channel = channel.step(*topo);
    for (std::size_t i = 0; i < devices; ++i) {
      state.task_cycles.push_back(rng.uniform(50e6, 200e6));
      state.data_bits.push_back(rng.uniform(3e6, 10e6));
    }
    state.price_per_mwh = 55.0;
    const auto policy = sim::make_policy("dpp-bdma", instance);
    try {
      const auto slot = policy->step(state, rng);
      std::cout << "  " << (with_macro ? "B" : "A")
                << ": total latency " << util::format_double(slot.latency, 3)
                << " s, cost $" << util::format_double(slot.energy_cost, 3)
                << "\n";
    } catch (const std::invalid_argument& error) {
      std::cout << "  " << (with_macro ? "B" : "A")
                << ": slot rejected — " << error.what() << "\n";
    }
  }
  std::cout << "\nreading: the coverage report predicts the failure before "
               "any simulation runs — deployment A leaves uncovered area, "
               "and a device there makes the slot infeasible.\n";
  return 0;
}
