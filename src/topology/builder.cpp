#include "topology/builder.h"

#include "util/check.h"

namespace eotora::topology {

TopologyBuilder& TopologyBuilder::set_region(Region region) {
  region_ = region;
  return *this;
}

ClusterId TopologyBuilder::add_cluster(std::string name, Point position) {
  const ClusterId id{clusters_.size()};
  clusters_.push_back(Cluster{id, std::move(name), position, {}});
  return id;
}

ServerId TopologyBuilder::add_server(
    std::string name, ClusterId cluster, int cores, double freq_min_ghz,
    double freq_max_ghz,
    std::shared_ptr<const energy::EnergyModel> energy_model) {
  EOTORA_REQUIRE_MSG(cluster.value < clusters_.size(),
                     "unknown cluster " << cluster.value);
  const ServerId id{servers_.size()};
  servers_.push_back(Server{id, std::move(name), cluster, cores, freq_min_ghz,
                            freq_max_ghz, std::move(energy_model)});
  clusters_[cluster.value].servers.push_back(id);
  return id;
}

BaseStationId TopologyBuilder::add_base_station(
    std::string name, Point position, Band band, double coverage_radius_m,
    double access_bandwidth_hz, double fronthaul_bandwidth_hz,
    double fronthaul_spectral_efficiency, std::vector<ClusterId> clusters) {
  const BaseStationId id{base_stations_.size()};
  base_stations_.push_back(BaseStation{
      id, std::move(name), position, band, coverage_radius_m,
      access_bandwidth_hz, fronthaul_bandwidth_hz,
      fronthaul_spectral_efficiency, std::move(clusters)});
  return id;
}

DeviceId TopologyBuilder::add_device(std::string name, Point position,
                                     double speed_mps,
                                     std::optional<BoundingBox> box) {
  const DeviceId id{devices_.size()};
  devices_.push_back(
      MobileDevice{id, std::move(name), position, speed_mps, box});
  return id;
}

Topology TopologyBuilder::build() const {
  return Topology(base_stations_, clusters_, servers_, devices_, region_);
}

}  // namespace eotora::topology
