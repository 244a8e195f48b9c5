// Random-waypoint mobility: devices pick a destination in the region, walk
// toward it at their speed, pause briefly, repeat. Drives the time-varying
// channel conditions h_{i,k,t} ("since the MDs move over time, the channel
// condition between D_i and B_k varies", §III-A).
#pragma once

#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace eotora::topology {

struct MobilityConfig {
  double slot_duration_s = 60.0;  // how far a device moves per slot
  double pause_probability = 0.1; // chance of pausing a slot at a waypoint
};

// Waypoints are drawn in the device's roaming box (MobileDevice::box) when
// it has one, else in the whole region. A boxed device starts inside its
// box and walks straight toward in-box waypoints, so it never leaves it;
// that is how metro scenarios keep every device under its own district's
// coverage.
class RandomWaypointMobility {
 public:
  RandomWaypointMobility(const MobilityConfig& config, std::size_t num_devices,
                         util::Rng rng);

  // Advances every device one slot and writes positions back into `topology`.
  void step(Topology& topology);

 private:
  struct DeviceState {
    Point waypoint;
    bool has_waypoint = false;
  };

  MobilityConfig config_;
  std::vector<DeviceState> states_;
  util::Rng rng_;
};

// Gauss-Markov mobility: velocity evolves with memory
//   v_{t+1} = a*v_t + (1-a)*v_mean + sigma*sqrt(1-a^2)*w,   w ~ N(0, I)
// giving smooth, tunable-persistence trajectories (a -> 1: near-straight
// lines; a -> 0: Brownian-like). Positions reflect off the region borders.
// An alternative to RandomWaypointMobility with temporally correlated
// velocity — closer to vehicular traces.
class GaussMarkovMobility {
 public:
  struct Config {
    double slot_duration_s = 120.0;
    double memory = 0.85;          // a in [0, 1)
    double speed_stddev_mps = 0.8; // sigma of the velocity noise
  };

  GaussMarkovMobility(const Config& config, std::size_t num_devices,
                      util::Rng rng);

  // Advances every device one slot and writes positions back.
  void step(Topology& topology);

 private:
  Config config_;
  std::vector<Point> velocity_;  // meters/second, per device
  util::Rng rng_;
};

}  // namespace eotora::topology
