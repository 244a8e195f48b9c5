// The immutable MEC network: entities plus the connectivity relations the
// optimization constraints are written against.
//
//   - coverage:      D_i can use B_k only when within B_k's coverage radius
//   - fronthaul:     B_k reaches the servers of its connected clusters
//   - N_i(x): servers reachable by device i given its base-station choice
//   - coverable: the stations that can ever cover device i — those whose
//     coverage disc meets its roaming box, or all of them when it has none
//   - reachable: the servers device i can ever reach — those its coverable
//     stations reach over fronthaul
#pragma once

#include <span>
#include <vector>

#include "topology/entities.h"

namespace eotora::topology {

class Topology {
 public:
  // Takes ownership of fully populated entity lists and validates global
  // invariants (ids dense and in order, clusters/servers consistent, every
  // BS connected to >= 1 existing cluster, every cluster non-empty, server
  // frequency ranges sane, every roaming box upright, inside the region and
  // containing its device). Throws std::invalid_argument on violations.
  Topology(std::vector<BaseStation> base_stations,
           std::vector<Cluster> clusters, std::vector<Server> servers,
           std::vector<MobileDevice> devices, Region region);

  [[nodiscard]] std::size_t num_base_stations() const {
    return base_stations_.size();
  }
  [[nodiscard]] std::size_t num_clusters() const { return clusters_.size(); }
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  [[nodiscard]] std::size_t num_devices() const { return devices_.size(); }

  [[nodiscard]] const BaseStation& base_station(BaseStationId id) const;
  [[nodiscard]] const Server& server(ServerId id) const;
  [[nodiscard]] const MobileDevice& device(DeviceId id) const;

  [[nodiscard]] const std::vector<BaseStation>& base_stations() const {
    return base_stations_;
  }
  [[nodiscard]] const std::vector<Cluster>& clusters() const {
    return clusters_;
  }
  [[nodiscard]] const std::vector<Server>& servers() const { return servers_; }
  [[nodiscard]] const std::vector<MobileDevice>& devices() const {
    return devices_;
  }
  [[nodiscard]] const Region& region() const { return region_; }

  // True when `position` lies inside base station k's coverage disc.
  [[nodiscard]] bool covers(BaseStationId k, Point position) const;

  // Base stations covering the given position (in id order). May be empty —
  // callers decide how to handle uncovered devices.
  [[nodiscard]] std::vector<BaseStationId> covering_base_stations(
      Point position) const;

  // Servers reachable via base station k's fronthaul (precomputed, id order).
  [[nodiscard]] const std::vector<ServerId>& reachable_servers(
      BaseStationId k) const;

  // Stations that can ever cover device i, in id order: those whose
  // coverage disc meets the device's roaming box, or every station when
  // the device has no box. A station outside this list never covers the
  // device, wherever it moves.
  [[nodiscard]] std::span<const BaseStationId> coverable_stations(
      DeviceId i) const;

  // Total (device, coverable station) pairs, summed over all devices.
  [[nodiscard]] std::size_t num_coverable_pairs() const {
    return coverable_.size();
  }

  // Servers device i can ever reach, in id order: the union of the reach
  // lists of its coverable stations. The rows of all devices lie back to
  // back in device order, so a per-(device, reachable server) value can be
  // stored flat: device i's row starts at reachable_offset(i).
  [[nodiscard]] std::span<const ServerId> reachable_servers(DeviceId i) const;
  [[nodiscard]] std::size_t reachable_offset(DeviceId i) const;

  // Total (device, reachable server) pairs, summed over all devices.
  [[nodiscard]] std::size_t num_reachable_pairs() const {
    return device_reach_.size();
  }

  // Updates a device position (mobility). The position is clamped to the
  // device's roaming box, or to the region when it has none.
  void set_device_position(DeviceId i, Point position);

 private:
  std::vector<BaseStation> base_stations_;
  std::vector<Cluster> clusters_;
  std::vector<Server> servers_;
  std::vector<MobileDevice> devices_;
  Region region_;
  // reachable_[k] = sorted server ids reachable from base station k.
  std::vector<std::vector<ServerId>> reachable_;
  // CSR: device i's coverable stations are
  // coverable_[coverable_offsets_[i] .. coverable_offsets_[i + 1]).
  std::vector<std::size_t> coverable_offsets_;
  std::vector<BaseStationId> coverable_;
  // CSR: device i's reachable servers are
  // device_reach_[device_reach_offsets_[i] .. device_reach_offsets_[i + 1]).
  std::vector<std::size_t> device_reach_offsets_;
  std::vector<ServerId> device_reach_;
};

}  // namespace eotora::topology
