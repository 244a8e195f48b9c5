// Fluent construction of Topology objects.
//
// The builder assigns dense ids in insertion order and wires the
// cluster <-> server relation, so scenario code stays declarative.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace eotora::topology {

class TopologyBuilder {
 public:
  TopologyBuilder& set_region(Region region);

  // Adds a server room at `position`; returns its id.
  ClusterId add_cluster(std::string name, Point position);

  // Adds a server to an existing cluster; returns its id.
  ServerId add_server(std::string name, ClusterId cluster, int cores,
                      double freq_min_ghz, double freq_max_ghz,
                      std::shared_ptr<const energy::EnergyModel> energy_model);

  // Adds a base station; `clusters` are the rooms its fronthaul reaches
  // (exactly one for wired fronthaul).
  BaseStationId add_base_station(std::string name, Point position, Band band,
                                 double coverage_radius_m,
                                 double access_bandwidth_hz,
                                 double fronthaul_bandwidth_hz,
                                 double fronthaul_spectral_efficiency,
                                 std::vector<ClusterId> clusters);

  // Adds a device; `box`, when given, is its roaming box (see
  // MobileDevice::box) and must contain `position`.
  DeviceId add_device(std::string name, Point position,
                      double speed_mps = 1.5,
                      std::optional<BoundingBox> box = std::nullopt);

  // Validates and produces the immutable topology. The builder can be reused
  // afterwards (its state is unchanged).
  [[nodiscard]] Topology build() const;

 private:
  Region region_;
  std::vector<BaseStation> base_stations_;
  std::vector<Cluster> clusters_;
  std::vector<Server> servers_;
  std::vector<MobileDevice> devices_;
};

}  // namespace eotora::topology
