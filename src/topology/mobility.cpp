#include "topology/mobility.h"

#include <cmath>

#include "util/check.h"

namespace eotora::topology {

RandomWaypointMobility::RandomWaypointMobility(const MobilityConfig& config,
                                               std::size_t num_devices,
                                               util::Rng rng)
    : config_(config), states_(num_devices), rng_(rng) {
  EOTORA_REQUIRE(config.slot_duration_s > 0.0);
  EOTORA_REQUIRE(config.pause_probability >= 0.0 &&
                 config.pause_probability <= 1.0);
}

void RandomWaypointMobility::step(Topology& topology) {
  EOTORA_REQUIRE_MSG(states_.size() == topology.num_devices(),
                     "mobility built for " << states_.size()
                                           << " devices, topology has "
                                           << topology.num_devices());
  const Region& region = topology.region();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const DeviceId id{i};
    const MobileDevice& device = topology.device(id);
    DeviceState& state = states_[i];
    if (!state.has_waypoint) {
      if (rng_.bernoulli(config_.pause_probability)) continue;
      if (device.box) {
        const BoundingBox& box = *device.box;
        state.waypoint = Point{rng_.uniform(box.min_x, box.max_x),
                               rng_.uniform(box.min_y, box.max_y)};
      } else {
        state.waypoint = Point{rng_.uniform(0.0, region.width),
                               rng_.uniform(0.0, region.height)};
      }
      state.has_waypoint = true;
    }
    const double step_m = device.speed_mps * config_.slot_duration_s;
    const double dist = distance(device.position, state.waypoint);
    if (dist <= step_m) {
      topology.set_device_position(id, state.waypoint);
      state.has_waypoint = false;
    } else {
      const double frac = step_m / dist;
      topology.set_device_position(
          id, Point{device.position.x +
                        frac * (state.waypoint.x - device.position.x),
                    device.position.y +
                        frac * (state.waypoint.y - device.position.y)});
    }
  }
}

GaussMarkovMobility::GaussMarkovMobility(const Config& config,
                                         std::size_t num_devices,
                                         util::Rng rng)
    : config_(config), velocity_(num_devices, Point{0.0, 0.0}), rng_(rng) {
  EOTORA_REQUIRE(config.slot_duration_s > 0.0);
  EOTORA_REQUIRE_MSG(config.memory >= 0.0 && config.memory < 1.0,
                     "memory=" << config.memory);
  EOTORA_REQUIRE(config.speed_stddev_mps >= 0.0);
}

void GaussMarkovMobility::step(Topology& topology) {
  EOTORA_REQUIRE_MSG(velocity_.size() == topology.num_devices(),
                     "mobility built for " << velocity_.size()
                                           << " devices, topology has "
                                           << topology.num_devices());
  const Region& region = topology.region();
  const double a = config_.memory;
  const double noise_scale =
      config_.speed_stddev_mps * std::sqrt(1.0 - a * a);
  for (std::size_t i = 0; i < velocity_.size(); ++i) {
    const DeviceId id{i};
    const MobileDevice& device = topology.device(id);
    Point& v = velocity_[i];
    // Mean speed 0 keeps devices wandering rather than drifting off.
    v.x = a * v.x + noise_scale * rng_.normal();
    v.y = a * v.y + noise_scale * rng_.normal();
    Point next{device.position.x + v.x * config_.slot_duration_s,
               device.position.y + v.y * config_.slot_duration_s};
    // Reflect at the borders (flip the offending velocity component).
    if (next.x < 0.0 || next.x > region.width) {
      v.x = -v.x;
      next.x = next.x < 0.0 ? -next.x : 2.0 * region.width - next.x;
    }
    if (next.y < 0.0 || next.y > region.height) {
      v.y = -v.y;
      next.y = next.y < 0.0 ? -next.y : 2.0 * region.height - next.y;
    }
    topology.set_device_position(id, region.clamp(next));
  }
}

}  // namespace eotora::topology
