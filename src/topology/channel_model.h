// Time-varying access-link spectrum efficiency h_{i,k,t} (bps/Hz).
//
// Paper §VI-A draws each base station's access-link spectrum efficiency in
// [15, 50] bps/Hz. We make the per-(device, BS) efficiency time-varying as
// §III-A requires: a per-BS baseline (drawn from the paper's range), reduced
// with distance from the base station, plus per-pair AR(1) shadowing; the
// result is clamped back into [h_min, h_max]. Devices outside a BS's
// coverage get efficiency 0, which marks the link unusable.
//
// Shadowing is kept only for the (device, station) pairs that can ever be
// covered (Topology::coverable_stations); a station that can never cover a
// device has no shadowing state and draws nothing. Without roaming boxes
// every pair is coverable, so hand-built and paper topologies consume the
// same RNG stream as a model over the full I x K grid.
#pragma once

#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace eotora::topology {

struct ChannelConfig {
  // How the per-pair mean efficiency falls off with distance.
  //   kLinear:      1 at the BS down to edge_factor at the coverage edge;
  //   kLogDistance: (d0 / d)^pathloss_exponent shape renormalized to hit
  //                 edge_factor at the edge — steeper near the BS, flatter
  //                 far out, the classic log-distance pathloss silhouette.
  enum class Attenuation { kLinear, kLogDistance };

  double min_efficiency = 15.0;  // bps/Hz (paper's lower draw bound)
  double max_efficiency = 50.0;  // bps/Hz (paper's upper draw bound)
  // Efficiency multiplier at the coverage edge (1.0 at the BS itself).
  double edge_factor = 0.6;
  Attenuation attenuation = Attenuation::kLinear;
  double pathloss_exponent = 2.0;     // kLogDistance only; finite, > 0
  double reference_distance_m = 10.0; // d0 for kLogDistance; finite, > 0
  // AR(1) shadowing: s_{t+1} = rho * s_t + noise, noise stddev in bps/Hz.
  double shadowing_rho = 0.9;
  double shadowing_stddev = 2.0;
};

// h_t as a dense I x K matrix; 0 marks an unusable (uncovered) link.
using ChannelMatrix = std::vector<std::vector<double>>;

class ChannelModel {
 public:
  // Draws per-BS baselines and initializes the shadowing state of every
  // coverable pair, device-major and station-ascending.
  ChannelModel(const ChannelConfig& config, const Topology& topology,
               util::Rng rng);

  // Advances every coverable pair's shadowing one slot (same order) and
  // evaluates h for the devices' current positions. Requires the same
  // topology shape, coverable pairs included, the model was built with.
  [[nodiscard]] ChannelMatrix step(const Topology& topology);

  // Same advance, refilling `out` in place (resized to I x K). Identical
  // RNG stream to step(); reuses the row vectors' capacity so a
  // steady-state caller allocates nothing per slot.
  void step_into(const Topology& topology, ChannelMatrix& out);

  [[nodiscard]] const std::vector<double>& base_efficiencies() const {
    return base_efficiency_;
  }
  [[nodiscard]] const ChannelConfig& config() const { return config_; }

 private:
  ChannelConfig config_;
  std::size_t num_devices_;
  std::size_t num_base_stations_;
  std::vector<double> base_efficiency_;  // per BS
  // One state per coverable pair, in Topology::coverable_stations order.
  std::vector<double> shadowing_;
  util::Rng rng_;
};

}  // namespace eotora::topology
