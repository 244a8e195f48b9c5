// The physical entities of the MEC system (paper §III-A, Fig. 1):
// base stations with access + fronthaul links, server rooms (clusters),
// heterogeneous frequency-scalable servers, and mobile devices.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/energy_model.h"
#include "topology/geometry.h"
#include "topology/ids.h"

namespace eotora::topology {

// Spectrum bands determine coverage radii: low-band covers miles, mid-band
// roughly a hundred meters (paper §III-A).
enum class Band { kLow, kMid };

struct BaseStation {
  BaseStationId id;
  std::string name;
  Point position;
  Band band = Band::kMid;
  double coverage_radius_m = 150.0;
  double access_bandwidth_hz = 75e6;      // W^A_k
  double fronthaul_bandwidth_hz = 0.75e9; // W^F_k
  double fronthaul_spectral_efficiency = 10.0;  // h^F_k (bps/Hz)
  // Clusters reachable over this BS's fronthaul. Wired fronthaul -> exactly
  // one entry; wireless fronthaul may list several (paper §III-A).
  std::vector<ClusterId> connected_clusters;
};

struct Cluster {
  ClusterId id;
  std::string name;
  Point position;                 // server-room location
  std::vector<ServerId> servers;  // members (S_m)
};

// Value-type server; the (immutable) energy model is shared on copy.
struct Server {
  ServerId id;
  std::string name;
  ClusterId cluster;
  int cores = 64;
  double freq_min_ghz = 1.8;  // F^L_n
  double freq_max_ghz = 3.6;  // F^U_n
  std::shared_ptr<const energy::EnergyModel> energy_model;

  // Aggregate compute capacity (cycles/second) at clock `ghz`: all cores run
  // at the chosen frequency.
  [[nodiscard]] double capacity_hz(double ghz) const {
    return static_cast<double>(cores) * ghz * 1e9;
  }

  // Whole-server power draw (watts) at clock `ghz`: the per-core/per-chip
  // model scales with the core count relative to the 4-core reference part.
  [[nodiscard]] double power_watts(double ghz) const {
    return energy_model->power(ghz) * static_cast<double>(cores) / 4.0;
  }

  [[nodiscard]] double power_derivative_watts(double ghz) const {
    return energy_model->power_derivative(ghz) * static_cast<double>(cores) /
           4.0;
  }
};

struct MobileDevice {
  DeviceId id;
  std::string name;
  Point position;
  double speed_mps = 1.5;  // pedestrian by default
  // Roaming box: when set, the device starts inside it and never leaves it
  // (Topology::set_device_position clamps into it), so only the stations
  // whose coverage disc meets the box can ever cover the device. Unset
  // means the device roams the whole region.
  std::optional<BoundingBox> box;
};

}  // namespace eotora::topology
