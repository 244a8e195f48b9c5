// The per-scenario problem data that does not change from slot to slot:
// the network, the suitability σ, the energy budget, and slot timing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace eotora::core {

class Instance {
 public:
  // `sigma[i][n]` must be in (0, 1] for every device/server pair. Only the
  // entries of each device's reachable servers are kept: σ_{i,n} enters
  // the problem through the options device i can take, and a server
  // outside topology::Topology::reachable_servers(i) is never one of them.
  // `budget_per_slot` is C̄ (dollars); `slot_hours` converts server power
  // to per-slot energy. Throws std::invalid_argument on shape/range errors.
  Instance(std::shared_ptr<const topology::Topology> topology,
           const SuitabilityMatrix& sigma, double budget_per_slot,
           double slot_hours = 1.0);

  // σ uniform in [0.5, 1) (the paper's range), drawn straight into the
  // reachable layout: `rng` advances as for a dense devices × servers draw
  // in row-major order, one engine word per entry, and each kept entry
  // has that draw's bits.
  [[nodiscard]] static Instance random(
      std::shared_ptr<const topology::Topology> topology, util::Rng& rng,
      double budget_per_slot, double slot_hours = 1.0);

  [[nodiscard]] const topology::Topology& topology() const {
    return *topology_;
  }
  [[nodiscard]] std::shared_ptr<const topology::Topology> topology_ptr()
      const {
    return topology_;
  }
  // σ_{i,n}. Throws std::invalid_argument when server n is out of device
  // i's reach.
  [[nodiscard]] double suitability(std::size_t device,
                                   std::size_t server) const;
  // σ of device i over topology().reachable_servers(i), entry for entry.
  [[nodiscard]] std::span<const double> suitability_row(
      std::size_t device) const;
  // A process-wide unique id this instance took at construction. A copy
  // keeps it, as it holds the same topology and σ; WcgProblem keys the
  // option rows it keeps across builds on it, never on an address.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_; }
  [[nodiscard]] double budget_per_slot() const { return budget_per_slot_; }
  [[nodiscard]] double slot_hours() const { return slot_hours_; }

  [[nodiscard]] std::size_t num_devices() const {
    return topology_->num_devices();
  }
  [[nodiscard]] std::size_t num_servers() const {
    return topology_->num_servers();
  }
  [[nodiscard]] std::size_t num_base_stations() const {
    return topology_->num_base_stations();
  }

  // Per-slot energy cost in dollars of running server n at `ghz` under
  // electricity price `price_per_mwh`:  price * watts * hours / 1e6.
  [[nodiscard]] double server_cost(std::size_t server, double ghz,
                                   double price_per_mwh) const;

  // Total energy cost C_t(Ω, p) across all servers (Eq. (13), priced).
  [[nodiscard]] double energy_cost(const Frequencies& freq,
                                   double price_per_mwh) const;

  // Θ(Ω, p) = C_t - C̄ (Eq. (14) integrand).
  [[nodiscard]] double theta(const Frequencies& freq,
                             double price_per_mwh) const {
    return energy_cost(freq, price_per_mwh) - budget_per_slot_;
  }

  // Lowest / highest feasible frequency vectors (Ω^L, Ω^U).
  [[nodiscard]] Frequencies min_frequencies() const;
  [[nodiscard]] Frequencies max_frequencies() const;

  // Checks a frequency vector is within every server's [F^L, F^U].
  [[nodiscard]] bool frequencies_feasible(const Frequencies& freq) const;

 private:
  // Everything but σ, which the public constructor and random() fill.
  Instance(std::shared_ptr<const topology::Topology> topology,
           double budget_per_slot, double slot_hours);

  std::shared_ptr<const topology::Topology> topology_;
  // σ flat over the topology's reachable pairs: device i's row starts at
  // topology_->reachable_offset(i).
  std::vector<double> sigma_;
  double budget_per_slot_;
  double slot_hours_;
  std::uint64_t stamp_;
};

}  // namespace eotora::core
