// Coverage-shaped channel generation. The channel model keeps AR(1)
// shadowing only for the (device, station) pairs the topology lists as
// coverable. Pinned here:
//   - on box-free topologies every pair is coverable, and the model equals
//     the full I x K loop it replaced bit for bit (that loop is kept below
//     as the oracle);
//   - on metro scenarios the coverable pairs are exactly the covered ones:
//     no h > 0 off the list, no list entry ever uncovered;
//   - the pair count at metro scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/quadratic_energy.h"
#include "sim/scenario.h"
#include "topology/builder.h"
#include "topology/channel_model.h"
#include "topology/mobility.h"
#include "util/rng.h"

namespace eotora::topology {
namespace {

// The dense channel loop the coverage-shaped model replaced, verbatim: one
// shadowing state per (device, station) pair of the full grid, drawn
// device-major and station-ascending whether or not the pair can ever be
// covered.
class DenseChannelOracle {
 public:
  DenseChannelOracle(const ChannelConfig& config, const Topology& topology,
                     util::Rng rng)
      : config_(config),
        num_devices_(topology.num_devices()),
        num_base_stations_(topology.num_base_stations()),
        rng_(rng) {
    base_efficiency_.reserve(num_base_stations_);
    for (std::size_t k = 0; k < num_base_stations_; ++k) {
      base_efficiency_.push_back(
          rng_.uniform(config.min_efficiency, config.max_efficiency));
    }
    const double stationary_stddev =
        config.shadowing_stddev /
        std::sqrt(1.0 - config.shadowing_rho * config.shadowing_rho);
    shadowing_.assign(num_devices_, std::vector<double>(num_base_stations_));
    for (auto& row : shadowing_) {
      for (double& s : row) s = rng_.normal(0.0, stationary_stddev);
    }
  }

  ChannelMatrix step(const Topology& topology) {
    ChannelMatrix h(num_devices_, std::vector<double>(num_base_stations_));
    for (std::size_t i = 0; i < num_devices_; ++i) {
      const Point pos = topology.device(DeviceId{i}).position;
      for (std::size_t k = 0; k < num_base_stations_; ++k) {
        double& s = shadowing_[i][k];
        s = config_.shadowing_rho * s +
            rng_.normal(0.0, config_.shadowing_stddev);
        const BaseStation& bs = topology.base_station(BaseStationId{k});
        const double d = distance(bs.position, pos);
        if (d > bs.coverage_radius_m) continue;
        double attenuation = 1.0;
        if (config_.attenuation == ChannelConfig::Attenuation::kLinear) {
          const double frac = d / bs.coverage_radius_m;
          attenuation = 1.0 - (1.0 - config_.edge_factor) * frac;
        } else {
          const double d0 = config_.reference_distance_m;
          auto shape = [&](double dist) {
            return std::pow(d0 / std::max(dist, d0),
                            config_.pathloss_exponent);
          };
          const double edge_shape = shape(bs.coverage_radius_m);
          const double here = shape(d);
          attenuation = edge_shape >= 1.0
                            ? 1.0
                            : config_.edge_factor +
                                  (1.0 - config_.edge_factor) *
                                      (here - edge_shape) / (1.0 - edge_shape);
        }
        const double raw = base_efficiency_[k] * attenuation + s;
        h[i][k] =
            std::clamp(raw, config_.min_efficiency, config_.max_efficiency);
      }
    }
    return h;
  }

 private:
  ChannelConfig config_;
  std::size_t num_devices_;
  std::size_t num_base_stations_;
  std::vector<double> base_efficiency_;
  std::vector<std::vector<double>> shadowing_;
  util::Rng rng_;
};

// Paper-shaped box-free world: one low-band umbrella station plus mid-band
// cells a few hundred meters wide that walking devices enter and leave.
std::unique_ptr<Topology> box_free_topology(std::uint64_t seed) {
  util::Rng rng(seed);
  TopologyBuilder builder;
  builder.set_region({2000.0, 2000.0});
  const auto room = builder.add_cluster("room", {1000.0, 1000.0});
  builder.add_server("s", room, 64, 1.8, 3.6,
                     std::make_shared<energy::QuadraticEnergy>(5.0, 2.0,
                                                               20.0));
  builder.add_base_station("low", {1000.0, 1000.0}, Band::kLow, 2900.0, 75e6,
                           0.7e9, 10.0, {room});
  for (int b = 0; b < 4; ++b) {
    builder.add_base_station(
        "mid-" + std::to_string(b),
        {rng.uniform(400.0, 1600.0), rng.uniform(400.0, 1600.0)}, Band::kMid,
        rng.uniform(300.0, 600.0), 75e6, 0.7e9, 10.0, {room});
  }
  for (int i = 0; i < 12; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)},
                       rng.uniform(0.5, 2.5));
  }
  return std::make_unique<Topology>(builder.build());
}

void expect_bit_identical(const ChannelMatrix& got, const ChannelMatrix& want,
                          int slot) {
  ASSERT_EQ(got.size(), want.size()) << "slot " << slot;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << "slot " << slot;
    for (std::size_t k = 0; k < got[i].size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i][k]),
                std::bit_cast<std::uint64_t>(want[i][k]))
          << "slot " << slot << " h[" << i << "][" << k << "] = " << got[i][k]
          << ", dense loop gives " << want[i][k];
    }
  }
}

TEST(CoverableChannel, BoxFreeTopologyMatchesDenseLoopBitForBit) {
  for (const auto attenuation : {ChannelConfig::Attenuation::kLinear,
                                 ChannelConfig::Attenuation::kLogDistance}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " attenuation " +
                   std::to_string(static_cast<int>(attenuation)));
      auto topo = box_free_topology(seed);
      ASSERT_EQ(topo->num_coverable_pairs(),
                topo->num_devices() * topo->num_base_stations());
      ChannelConfig config;
      config.attenuation = attenuation;
      ChannelModel model(config, *topo, util::Rng(seed + 100));
      DenseChannelOracle oracle(config, *topo, util::Rng(seed + 100));
      RandomWaypointMobility mobility(MobilityConfig{120.0, 0.1},
                                      topo->num_devices(),
                                      util::Rng(seed + 200));
      ChannelMatrix h;
      std::size_t handovers = 0;
      std::vector<std::size_t> previous_cells(topo->num_devices(), 0);
      for (int t = 0; t < 50; ++t) {
        mobility.step(*topo);
        model.step_into(*topo, h);
        expect_bit_identical(h, oracle.step(*topo), t);
        for (std::size_t i = 0; i < h.size(); ++i) {
          const auto cells = static_cast<std::size_t>(
              std::count_if(h[i].begin() + 1, h[i].end(),
                            [](double v) { return v > 0.0; }));
          if (t > 0 && cells != previous_cells[i]) ++handovers;
          previous_cells[i] = cells;
        }
      }
      // The walk really does carry devices in and out of mid-band cells.
      EXPECT_GT(handovers, 0u);
    }
  }
}

sim::ScenarioConfig metro_config(std::size_t districts, std::size_t devices) {
  sim::ScenarioConfig config;
  config.metro_districts = districts;
  config.devices = devices;
  config.servers_per_cluster = 2;
  config.seed = 11;
  return config;
}

TEST(CoverableChannel, MetroCoverablePairsAreExactlyTheCoveredOnes) {
  const sim::ScenarioConfig config = metro_config(4, 40);
  sim::Scenario scenario(config);
  const Topology& topo = scenario.topology();
  const std::size_t per_district = config.stations_per_district;
  ASSERT_EQ(topo.num_coverable_pairs(), config.devices * per_district);
  for (std::size_t i = 0; i < topo.num_devices(); ++i) {
    // Exactly the device's own district's stations, in id order.
    const std::size_t district = i % config.metro_districts;
    const auto coverable = topo.coverable_stations(DeviceId{i});
    ASSERT_EQ(coverable.size(), per_district) << "device " << i;
    for (std::size_t b = 0; b < per_district; ++b) {
      EXPECT_EQ(coverable[b].value, district * per_district + b)
          << "device " << i;
    }
  }

  core::SlotState state;
  for (int t = 0; t < 200; ++t) {
    scenario.next_state(state);
    for (std::size_t i = 0; i < topo.num_devices(); ++i) {
      const DeviceId id{i};
      const auto coverable = topo.coverable_stations(id);
      std::vector<bool> listed(topo.num_base_stations(), false);
      for (const BaseStationId k : coverable) {
        listed[k.value] = true;
        // Every coverable pair is covered, in every slot.
        EXPECT_TRUE(topo.covers(k, topo.device(id).position))
            << "slot " << t << " device " << i << " station " << k.value;
        EXPECT_GT(state.channel[i][k.value], 0.0)
            << "slot " << t << " device " << i << " station " << k.value;
      }
      for (std::size_t k = 0; k < topo.num_base_stations(); ++k) {
        // Every usable link lies on a coverable pair.
        if (state.channel[i][k] > 0.0) {
          EXPECT_TRUE(listed[k])
              << "slot " << t << " device " << i << " station " << k;
        }
      }
    }
  }
}

TEST(CoverableChannel, MetroScaleDrawsOnlyOwnDistrictPairs) {
  const sim::ScenarioConfig config = metro_config(64, 10000);
  const sim::Scenario scenario(config);
  const Topology& topo = scenario.topology();
  EXPECT_EQ(topo.num_devices() * topo.num_base_stations(), 1'280'000u);
  EXPECT_EQ(topo.num_coverable_pairs(), 20'000u);
}

}  // namespace
}  // namespace eotora::topology
