// Library-usage example: building a bespoke MEC deployment with the public
// builder API instead of the paper-scenario factory, then running one DPP
// slot by hand — the lowest-level way to drive the library.
//
// The deployment: a stadium with one macro cell (low band, wired to an
// on-site server room), two small cells (mid band), and a remote room
// reachable only over the macro cell's wireless fronthaul. Servers use
// different energy models: measured-table (piecewise), quadratic fit, and
// linear.
//
//   $ ./examples/custom_topology
#include <iostream>
#include <memory>

#include "eotora/eotora.h"

int main() {
  using namespace eotora;

  // 1. Topology via the builder.
  topology::TopologyBuilder builder;
  builder.set_region({800.0, 800.0});

  const auto onsite = builder.add_cluster("stadium-room", {400.0, 380.0});
  const auto remote = builder.add_cluster("metro-room", {40.0, 760.0});

  // Heterogeneous energy models, all convex as the paper requires.
  auto measured = std::make_shared<energy::PiecewiseLinearEnergy>(
      energy::i7_3770k_frequencies(), energy::i7_3770k_powers());
  auto fitted = std::make_shared<energy::QuadraticEnergy>(
      energy::reference_cpu_fit());
  auto linear = std::make_shared<energy::LinearEnergy>(22.0, 6.0);

  builder.add_server("gpu-box-0", onsite, 96, 1.8, 3.6, measured);
  builder.add_server("gpu-box-1", onsite, 96, 1.8, 3.6, fitted);
  builder.add_server("metro-0", remote, 128, 2.0, 3.4, linear);
  builder.add_server("metro-1", remote, 128, 2.0, 3.4, fitted);

  // Macro cell: covers the whole venue, wireless fronthaul to both rooms.
  builder.add_base_station("macro", {400.0, 400.0}, topology::Band::kLow,
                           1200.0, 60e6, 0.6e9, 10.0, {onsite, remote});
  // Small cells: wired to the on-site room only.
  builder.add_base_station("small-north", {400.0, 650.0},
                           topology::Band::kMid, 260.0, 100e6, 1e9, 10.0,
                           {onsite});
  builder.add_base_station("small-south", {400.0, 150.0},
                           topology::Band::kMid, 260.0, 100e6, 1e9, 10.0,
                           {onsite});

  util::Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    builder.add_device("fan-" + std::to_string(i),
                       {rng.uniform(150.0, 650.0), rng.uniform(100.0, 700.0)},
                       rng.uniform(0.3, 1.5));
  }
  auto topo = std::make_shared<topology::Topology>(builder.build());

  // 2. Problem instance: suitability + budget.
  const core::Instance instance =
      core::Instance::random(topo, rng, /*budget_per_slot=*/0.6);

  std::cout << "custom deployment: " << topo->num_base_stations()
            << " cells, " << topo->num_clusters() << " rooms, "
            << topo->num_servers() << " servers, " << topo->num_devices()
            << " devices\n";
  for (const auto& bs : topo->base_stations()) {
    std::cout << "  " << bs.name << " reaches "
              << topo->reachable_servers(bs.id).size() << " servers\n";
  }

  // 3. One observed state, built by hand (any data source works here).
  topology::ChannelModel channel(topology::ChannelConfig{}, *topo,
                                 rng.fork());
  core::SlotState state;
  state.slot = 0;
  state.channel = channel.step(*topo);
  for (int i = 0; i < 40; ++i) {
    state.task_cycles.push_back(rng.uniform(50e6, 200e6));
    state.data_bits.push_back(rng.uniform(3e6, 10e6));
  }
  state.price_per_mwh = 62.0;

  // 4. One DPP slot, decomposed: BDMA -> Lemma 1 -> metrics.
  sim::PolicyParams params;
  params.v = 150.0;
  const auto policy = sim::make_policy("dpp-bdma", instance, params);
  const auto slot = policy->step(state, rng);

  std::cout << "\nslot 0 decision:\n"
            << "  total latency   : " << slot.latency << " s\n"
            << "  energy cost     : $" << slot.energy_cost << " (budget $"
            << instance.budget_per_slot() << ")\n"
            << "  queue backlog   : " << slot.queue_after << "\n";

  util::Table per_server({"server", "model", "clock GHz", "devices",
                          "power W"});
  std::vector<int> assigned(topo->num_servers(), 0);
  for (std::size_t n : slot.decision.assignment.server_of) ++assigned[n];
  const char* kinds[] = {"measured", "quadratic", "linear", "quadratic"};
  for (std::size_t n = 0; n < topo->num_servers(); ++n) {
    const auto& server = topo->server(topology::ServerId{n});
    per_server.add_row(
        {server.name, kinds[n],
         util::format_double(slot.decision.frequencies[n], 2),
         std::to_string(assigned[n]),
         util::format_double(server.power_watts(slot.decision.frequencies[n]),
                             0)});
  }
  per_server.print(std::cout);
  return 0;
}
