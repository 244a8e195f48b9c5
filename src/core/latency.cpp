#include "core/latency.h"

#include <cmath>

#include "util/check.h"

namespace eotora::core {

namespace {

void check_shapes(const Instance& instance, const SlotState& state,
                  const Assignment& assignment,
                  const Frequencies& frequencies) {
  const std::size_t devices = instance.num_devices();
  EOTORA_REQUIRE(assignment.bs_of.size() == devices);
  EOTORA_REQUIRE(assignment.server_of.size() == devices);
  EOTORA_REQUIRE(state.task_cycles.size() == devices);
  EOTORA_REQUIRE(state.data_bits.size() == devices);
  EOTORA_REQUIRE(state.channel.size() == devices);
  EOTORA_REQUIRE(frequencies.size() == instance.num_servers());
  EOTORA_REQUIRE_MSG(instance.frequencies_feasible(frequencies),
                     "frequencies outside [F^L, F^U]");
}

}  // namespace

DeviceLatency device_latency_under_allocation(
    const Instance& instance, const SlotState& state,
    const Assignment& assignment, const Frequencies& frequencies,
    const ResourceAllocation& allocation, std::size_t device) {
  const auto& topo = instance.topology();
  EOTORA_REQUIRE(device < instance.num_devices());
  const std::size_t k = assignment.bs_of[device];
  const std::size_t n = assignment.server_of[device];
  EOTORA_REQUIRE(k < topo.num_base_stations());
  EOTORA_REQUIRE(n < topo.num_servers());
  const double phi = allocation.phi[device];
  const double psi_a = allocation.psi_access[device];
  const double psi_f = allocation.psi_fronthaul[device];
  EOTORA_REQUIRE_MSG(phi > 0.0 && psi_a > 0.0 && psi_f > 0.0,
                     "device " << device << " has a zero resource share");
  const double h = state.channel[device][k];
  EOTORA_REQUIRE_MSG(h > 0.0, "device " << device << " channel is unusable");

  const auto& bs = topo.base_station(topology::BaseStationId{k});
  const auto& server = topo.server(topology::ServerId{n});
  DeviceLatency latency;
  latency.processing =
      state.task_cycles[device] /
      (server.capacity_hz(frequencies[n]) * instance.suitability(device, n) *
       phi);
  latency.access =
      state.data_bits[device] / (bs.access_bandwidth_hz * h * psi_a);
  latency.fronthaul =
      state.data_bits[device] / (bs.fronthaul_bandwidth_hz *
                                 bs.fronthaul_spectral_efficiency * psi_f);
  return latency;
}

double latency_under_allocation(const Instance& instance,
                                const SlotState& state,
                                const Assignment& assignment,
                                const Frequencies& frequencies,
                                const ResourceAllocation& allocation) {
  check_shapes(instance, state, assignment, frequencies);
  EOTORA_REQUIRE(allocation.phi.size() == instance.num_devices());
  EOTORA_REQUIRE(allocation.psi_access.size() == instance.num_devices());
  EOTORA_REQUIRE(allocation.psi_fronthaul.size() == instance.num_devices());
  double total = 0.0;
  for (std::size_t i = 0; i < instance.num_devices(); ++i) {
    total += device_latency_under_allocation(instance, state, assignment,
                                             frequencies, allocation, i)
                 .total();
  }
  return total;
}

ReducedLatencyBreakdown reduced_latency_breakdown(
    const Instance& instance, const SlotState& state,
    const Assignment& assignment, const Frequencies& frequencies) {
  check_shapes(instance, state, assignment, frequencies);
  const auto& topo = instance.topology();

  // Eq. (18): T^P = Σ_n (Σ_{i on n} sqrt(f_i/σ_{i,n}))² / capacity_n.
  std::vector<double> compute_load(topo.num_servers(), 0.0);
  // Eq. (19): per-BS access and fronthaul load sums.
  std::vector<double> access_load(topo.num_base_stations(), 0.0);
  std::vector<double> fronthaul_load(topo.num_base_stations(), 0.0);

  for (std::size_t i = 0; i < instance.num_devices(); ++i) {
    const std::size_t k = assignment.bs_of[i];
    const std::size_t n = assignment.server_of[i];
    const double h = state.channel[i][k];
    EOTORA_REQUIRE_MSG(h > 0.0, "device " << i << " channel is unusable");
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    compute_load[n] +=
        std::sqrt(state.task_cycles[i] / instance.suitability(i, n));
    access_load[k] += std::sqrt(state.data_bits[i] / h);
    fronthaul_load[k] +=
        std::sqrt(state.data_bits[i] / bs.fronthaul_spectral_efficiency);
  }

  ReducedLatencyBreakdown result;
  for (std::size_t n = 0; n < topo.num_servers(); ++n) {
    const auto& server = topo.server(topology::ServerId{n});
    result.processing +=
        compute_load[n] * compute_load[n] / server.capacity_hz(frequencies[n]);
  }
  for (std::size_t k = 0; k < topo.num_base_stations(); ++k) {
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    result.communication +=
        access_load[k] * access_load[k] / bs.access_bandwidth_hz;
    result.communication +=
        fronthaul_load[k] * fronthaul_load[k] / bs.fronthaul_bandwidth_hz;
  }
  return result;
}

double reduced_latency(const Instance& instance, const SlotState& state,
                       const Assignment& assignment,
                       const Frequencies& frequencies) {
  return reduced_latency_breakdown(instance, state, assignment, frequencies)
      .total();
}

}  // namespace eotora::core
