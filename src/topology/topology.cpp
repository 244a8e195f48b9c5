#include "topology/topology.h"

#include <algorithm>

#include "util/check.h"

namespace eotora::topology {

Topology::Topology(std::vector<BaseStation> base_stations,
                   std::vector<Cluster> clusters, std::vector<Server> servers,
                   std::vector<MobileDevice> devices, Region region)
    : base_stations_(std::move(base_stations)),
      clusters_(std::move(clusters)),
      servers_(std::move(servers)),
      devices_(std::move(devices)),
      region_(region) {
  EOTORA_REQUIRE(!base_stations_.empty());
  EOTORA_REQUIRE(!clusters_.empty());
  EOTORA_REQUIRE(!servers_.empty());
  EOTORA_REQUIRE(region_.width > 0.0 && region_.height > 0.0);

  // Ids must be dense and positional: entity j has id j.
  for (std::size_t k = 0; k < base_stations_.size(); ++k) {
    EOTORA_REQUIRE_MSG(base_stations_[k].id.value == k,
                       "base station at index " << k << " has id "
                                                << base_stations_[k].id.value);
    const auto& bs = base_stations_[k];
    EOTORA_REQUIRE_MSG(bs.coverage_radius_m > 0.0, bs.name);
    EOTORA_REQUIRE_MSG(bs.access_bandwidth_hz > 0.0, bs.name);
    EOTORA_REQUIRE_MSG(bs.fronthaul_bandwidth_hz > 0.0, bs.name);
    EOTORA_REQUIRE_MSG(bs.fronthaul_spectral_efficiency > 0.0, bs.name);
    EOTORA_REQUIRE_MSG(!bs.connected_clusters.empty(),
                       "base station " << bs.name
                                       << " reaches no server cluster");
    for (ClusterId c : bs.connected_clusters) {
      EOTORA_REQUIRE_MSG(c.value < clusters_.size(),
                         "base station " << bs.name
                                         << " references missing cluster "
                                         << c.value);
    }
  }
  for (std::size_t m = 0; m < clusters_.size(); ++m) {
    EOTORA_REQUIRE(clusters_[m].id.value == m);
    EOTORA_REQUIRE_MSG(!clusters_[m].servers.empty(),
                       "cluster " << clusters_[m].name << " is empty");
  }
  std::vector<bool> server_claimed(servers_.size(), false);
  for (const auto& cluster : clusters_) {
    for (ServerId s : cluster.servers) {
      EOTORA_REQUIRE_MSG(s.value < servers_.size(),
                         "cluster " << cluster.name
                                    << " references missing server "
                                    << s.value);
      EOTORA_REQUIRE_MSG(!server_claimed[s.value],
                         "server " << s.value << " is in two clusters");
      server_claimed[s.value] = true;
      EOTORA_REQUIRE_MSG(servers_[s.value].cluster == cluster.id,
                         "server " << servers_[s.value].name
                                   << " disagrees about its cluster");
    }
  }
  for (std::size_t n = 0; n < servers_.size(); ++n) {
    EOTORA_REQUIRE(servers_[n].id.value == n);
    EOTORA_REQUIRE_MSG(server_claimed[n],
                       "server " << servers_[n].name << " is in no cluster");
    const auto& server = servers_[n];
    EOTORA_REQUIRE_MSG(server.cores > 0, server.name);
    EOTORA_REQUIRE_MSG(
        server.freq_min_ghz > 0.0 && server.freq_min_ghz <= server.freq_max_ghz,
        server.name << ": F^L=" << server.freq_min_ghz
                    << " F^U=" << server.freq_max_ghz);
    EOTORA_REQUIRE_MSG(server.energy_model != nullptr,
                       server.name << " has no energy model");
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    MobileDevice& device = devices_[i];
    EOTORA_REQUIRE(device.id.value == i);
    if (!device.box) {
      device.position = region_.clamp(device.position);
      continue;
    }
    // A boxed device must start inside its box; set_device_position keeps
    // it there, which is what makes the coverable-station list sound.
    const BoundingBox& box = *device.box;
    EOTORA_REQUIRE_MSG(box.min_x <= box.max_x && box.min_y <= box.max_y,
                       device.name << ": inverted box [" << box.min_x << ","
                                   << box.max_x << "]x[" << box.min_y << ","
                                   << box.max_y << "]");
    EOTORA_REQUIRE_MSG(region_.contains({box.min_x, box.min_y}) &&
                           region_.contains({box.max_x, box.max_y}),
                       device.name << ": box leaves the region");
    EOTORA_REQUIRE_MSG(box.contains(device.position),
                       device.name << " starts at (" << device.position.x
                                   << "," << device.position.y
                                   << "), outside its box");
  }

  // Precompute the fronthaul reachability map N(.) used by constraint (3).
  reachable_.resize(base_stations_.size());
  for (std::size_t k = 0; k < base_stations_.size(); ++k) {
    for (ClusterId c : base_stations_[k].connected_clusters) {
      const auto& members = clusters_[c.value].servers;
      reachable_[k].insert(reachable_[k].end(), members.begin(),
                           members.end());
    }
    std::sort(reachable_[k].begin(), reachable_[k].end());
    reachable_[k].erase(
        std::unique(reachable_[k].begin(), reachable_[k].end()),
        reachable_[k].end());
  }

  // Coverable stations: a disc meets a box iff the box point nearest the
  // disc center lies in the disc. Rounding is monotone, so that distance
  // never exceeds the distance to any in-box position: a station skipped
  // here fails covers() for every position the device can take.
  coverable_offsets_.reserve(devices_.size() + 1);
  coverable_offsets_.push_back(0);
  for (const MobileDevice& device : devices_) {
    for (const BaseStation& bs : base_stations_) {
      const bool coverable =
          !device.box ||
          distance(bs.position, device.box->clamp(bs.position)) <=
              bs.coverage_radius_m;
      if (coverable) coverable_.push_back(bs.id);
    }
    coverable_offsets_.push_back(coverable_.size());
  }

  // Reachable servers: each device's coverable stations' reach lists,
  // merged without repeats and sorted.
  std::vector<char> seen(servers_.size(), 0);
  device_reach_offsets_.reserve(devices_.size() + 1);
  device_reach_offsets_.push_back(0);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto row = static_cast<std::ptrdiff_t>(device_reach_.size());
    for (BaseStationId k : coverable_stations(DeviceId{i})) {
      for (ServerId s : reachable_[k.value]) {
        if (seen[s.value] != 0) continue;
        seen[s.value] = 1;
        device_reach_.push_back(s);
      }
    }
    std::sort(device_reach_.begin() + row, device_reach_.end());
    for (auto s = device_reach_.begin() + row; s != device_reach_.end(); ++s) {
      seen[s->value] = 0;
    }
    device_reach_offsets_.push_back(device_reach_.size());
  }
}

const BaseStation& Topology::base_station(BaseStationId id) const {
  EOTORA_REQUIRE(id.value < base_stations_.size());
  return base_stations_[id.value];
}

const Server& Topology::server(ServerId id) const {
  EOTORA_REQUIRE(id.value < servers_.size());
  return servers_[id.value];
}

const MobileDevice& Topology::device(DeviceId id) const {
  EOTORA_REQUIRE(id.value < devices_.size());
  return devices_[id.value];
}

bool Topology::covers(BaseStationId k, Point position) const {
  const auto& bs = base_station(k);
  return distance(bs.position, position) <= bs.coverage_radius_m;
}

std::vector<BaseStationId> Topology::covering_base_stations(
    Point position) const {
  std::vector<BaseStationId> covering;
  for (const auto& bs : base_stations_) {
    if (covers(bs.id, position)) covering.push_back(bs.id);
  }
  return covering;
}

const std::vector<ServerId>& Topology::reachable_servers(
    BaseStationId k) const {
  EOTORA_REQUIRE(k.value < reachable_.size());
  return reachable_[k.value];
}

std::span<const BaseStationId> Topology::coverable_stations(
    DeviceId i) const {
  EOTORA_REQUIRE(i.value < devices_.size());
  return std::span<const BaseStationId>(coverable_)
      .subspan(coverable_offsets_[i.value],
               coverable_offsets_[i.value + 1] - coverable_offsets_[i.value]);
}

std::span<const ServerId> Topology::reachable_servers(DeviceId i) const {
  EOTORA_REQUIRE(i.value < devices_.size());
  return std::span<const ServerId>(device_reach_)
      .subspan(device_reach_offsets_[i.value],
               device_reach_offsets_[i.value + 1] -
                   device_reach_offsets_[i.value]);
}

std::size_t Topology::reachable_offset(DeviceId i) const {
  EOTORA_REQUIRE(i.value < devices_.size());
  return device_reach_offsets_[i.value];
}

void Topology::set_device_position(DeviceId i, Point position) {
  EOTORA_REQUIRE(i.value < devices_.size());
  MobileDevice& device = devices_[i.value];
  device.position =
      device.box ? device.box->clamp(position) : region_.clamp(position);
}

}  // namespace eotora::topology
