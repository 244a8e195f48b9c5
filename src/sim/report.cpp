#include "sim/report.h"

#include <map>
#include <ostream>

#include "util/table.h"

namespace eotora::sim {

void print_comparison(std::ostream& os,
                      const std::vector<SimulationResult>& results,
                      double budget_per_slot) {
  util::Table table({"policy", "avg latency (s)", "avg cost ($/slot)",
                     "cost/budget", "avg backlog", "decision time (s)"});
  for (const auto& r : results) {
    table.add_row({r.policy_name,
                   util::format_double(r.metrics.average_latency(), 4),
                   util::format_double(r.metrics.average_energy_cost(), 4),
                   util::format_double(
                       r.metrics.average_energy_cost() / budget_per_slot, 3),
                   util::format_double(r.metrics.average_queue(), 4),
                   util::format_double(r.wall_seconds, 3)});
  }
  os << table.to_ascii();
}

void print_scenario(std::ostream& os, const Scenario& scenario) {
  const auto& topo = scenario.topology();
  const auto& config = scenario.config();
  os << "MEC scenario: " << topo.num_base_stations() << " base stations, "
     << topo.num_clusters() << " server rooms, " << topo.num_servers()
     << " servers, " << topo.num_devices() << " mobile devices\n"
     << "  region: " << topo.region().width << " m x " << topo.region().height
     << " m, period D = " << config.period << " slots\n"
     << "  energy budget: $" << config.budget_per_slot
     << " per slot (slot = " << config.slot_hours << " h)\n";
  // One count per core size, in ascending size: one token per server
  // would be a 2048-token line at 256 metro districts.
  std::map<int, std::size_t> by_cores;
  for (const auto& server : topo.servers()) ++by_cores[server.cores];
  os << "  servers:";
  const char* separator = " ";
  for (const auto& [cores, count] : by_cores) {
    os << separator << count << " x " << cores << "c";
    separator = ", ";
  }
  os << "\n";
}

}  // namespace eotora::sim
