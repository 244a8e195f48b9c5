#include "topology/channel_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace eotora::topology {

ChannelModel::ChannelModel(const ChannelConfig& config,
                           const Topology& topology, util::Rng rng)
    : config_(config),
      num_devices_(topology.num_devices()),
      num_base_stations_(topology.num_base_stations()),
      rng_(rng) {
  EOTORA_REQUIRE(config.min_efficiency > 0.0);
  EOTORA_REQUIRE(config.max_efficiency >= config.min_efficiency);
  EOTORA_REQUIRE(config.edge_factor > 0.0 && config.edge_factor <= 1.0);
  EOTORA_REQUIRE(config.shadowing_rho >= 0.0 && config.shadowing_rho < 1.0);
  EOTORA_REQUIRE(config.shadowing_stddev >= 0.0);
  // The log-distance shape needs both finite and positive: a d0 <= 0 or
  // non-finite makes h NaN, a NaN exponent does too, and an exponent <= 0
  // or infinite is no decay or a step rather than a pathloss curve.
  EOTORA_REQUIRE_MSG(std::isfinite(config.reference_distance_m) &&
                         config.reference_distance_m > 0.0,
                     "reference_distance_m=" << config.reference_distance_m);
  EOTORA_REQUIRE_MSG(std::isfinite(config.pathloss_exponent) &&
                         config.pathloss_exponent > 0.0,
                     "pathloss_exponent=" << config.pathloss_exponent);
  base_efficiency_.reserve(num_base_stations_);
  for (std::size_t k = 0; k < num_base_stations_; ++k) {
    base_efficiency_.push_back(
        rng_.uniform(config.min_efficiency, config.max_efficiency));
  }
  // Start shadowing from its stationary distribution so early slots are not
  // systematically calmer than later ones.
  const double stationary_stddev =
      config.shadowing_stddev /
      std::sqrt(1.0 - config.shadowing_rho * config.shadowing_rho);
  shadowing_.resize(topology.num_coverable_pairs());
  for (double& s : shadowing_) s = rng_.normal(0.0, stationary_stddev);
}

ChannelMatrix ChannelModel::step(const Topology& topology) {
  ChannelMatrix h;
  step_into(topology, h);
  return h;
}

void ChannelModel::step_into(const Topology& topology, ChannelMatrix& h) {
  EOTORA_REQUIRE(topology.num_devices() == num_devices_);
  EOTORA_REQUIRE(topology.num_base_stations() == num_base_stations_);
  EOTORA_REQUIRE(topology.num_coverable_pairs() == shadowing_.size());
  h.resize(num_devices_);
  std::size_t pair = 0;
  for (std::size_t i = 0; i < num_devices_; ++i) {
    const DeviceId id{i};
    const Point pos = topology.device(id).position;
    std::vector<double>& row = h[i];
    row.assign(num_base_stations_, 0.0);
    for (const BaseStationId k : topology.coverable_stations(id)) {
      double& s = shadowing_[pair++];
      s = config_.shadowing_rho * s +
          rng_.normal(0.0, config_.shadowing_stddev);
      const BaseStation& bs = topology.base_station(k);
      const double d = distance(bs.position, pos);
      if (d > bs.coverage_radius_m) continue;  // uncovered -> h = 0
      double attenuation = 1.0;
      if (config_.attenuation == ChannelConfig::Attenuation::kLinear) {
        // Linear from 1.0 at the BS to edge_factor at the edge.
        const double frac = d / bs.coverage_radius_m;
        attenuation = 1.0 - (1.0 - config_.edge_factor) * frac;
      } else {
        // Log-distance silhouette (d0/d)^eta, flat inside d0, renormalized
        // so the coverage edge lands exactly on edge_factor.
        const double d0 = config_.reference_distance_m;
        auto shape = [&](double dist) {
          return std::pow(d0 / std::max(dist, d0),
                          config_.pathloss_exponent);
        };
        const double edge_shape = shape(bs.coverage_radius_m);
        const double here = shape(d);
        // Affine map: shape 1 -> 1, shape at edge -> edge_factor.
        attenuation = edge_shape >= 1.0
                          ? 1.0
                          : config_.edge_factor +
                                (1.0 - config_.edge_factor) *
                                    (here - edge_shape) / (1.0 - edge_shape);
      }
      const double raw = base_efficiency_[k.value] * attenuation + s;
      row[k.value] =
          std::clamp(raw, config_.min_efficiency, config_.max_efficiency);
    }
  }
}

}  // namespace eotora::topology
