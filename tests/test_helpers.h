// Shared fixtures: small hand-built MEC instances with known structure, used
// across the core solver tests, and the multi-component grouped worlds the
// sharded-solver and rebuild suites fuzz over.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "energy/quadratic_energy.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora::test {

// A deliberately small topology:
//   room-0: server 0 (64c), server 1 (128c)     room-1: server 2 (64c)
//   bs-0 (wide coverage, reaches both rooms)
//   bs-1 (wide coverage, reaches room-1 only)
// Every device is covered by both stations.
inline std::shared_ptr<topology::Topology> tiny_topology(
    std::size_t devices = 3) {
  topology::TopologyBuilder builder;
  builder.set_region(topology::Region{1000.0, 1000.0});
  const auto room0 = builder.add_cluster("room-0", {250.0, 250.0});
  const auto room1 = builder.add_cluster("room-1", {750.0, 750.0});
  auto model = std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0);
  builder.add_server("s0", room0, 64, 1.8, 3.6, model);
  builder.add_server("s1", room0, 128, 1.8, 3.6, model);
  builder.add_server("s2", room1, 64, 2.0, 3.0, model);
  builder.add_base_station("bs-0", {500.0, 500.0}, topology::Band::kLow,
                           2000.0, 80e6, 0.8e9, 10.0, {room0, room1});
  builder.add_base_station("bs-1", {500.0, 500.0}, topology::Band::kLow,
                           2000.0, 60e6, 0.6e9, 10.0, {room1});
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device("d" + std::to_string(i),
                       {100.0 + 50.0 * static_cast<double>(i), 400.0});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

// Instance over tiny_topology with uniform suitability 1.0 (overridable).
inline core::Instance tiny_instance(std::size_t devices = 3,
                                    double budget = 5.0,
                                    double sigma_value = 1.0) {
  auto topo = tiny_topology(devices);
  core::SuitabilityMatrix sigma(
      devices, std::vector<double>(topo->num_servers(), sigma_value));
  return core::Instance(topo, std::move(sigma), budget);
}

// A deterministic slot state: every channel usable with h = 30 bps/Hz,
// f = 1e8 cycles, d = 5e6 bits, price = $50/MWh.
inline core::SlotState uniform_state(std::size_t devices,
                                     std::size_t base_stations,
                                     double f = 1e8, double d = 5e6,
                                     double h = 30.0, double price = 50.0) {
  core::SlotState state;
  state.slot = 0;
  state.task_cycles.assign(devices, f);
  state.data_bits.assign(devices, d);
  state.channel.assign(devices, std::vector<double>(base_stations, h));
  state.price_per_mwh = price;
  return state;
}

// A randomized state over the given shape (all links usable).
inline core::SlotState random_state(std::size_t devices,
                                    std::size_t base_stations,
                                    util::Rng& rng) {
  core::SlotState state;
  state.slot = 0;
  state.task_cycles.resize(devices);
  state.data_bits.resize(devices);
  state.channel.assign(devices, std::vector<double>(base_stations, 0.0));
  for (std::size_t i = 0; i < devices; ++i) {
    state.task_cycles[i] = rng.uniform(50e6, 200e6);
    state.data_bits[i] = rng.uniform(3e6, 10e6);
    for (std::size_t k = 0; k < base_stations; ++k) {
      state.channel[i][k] = rng.uniform(15.0, 50.0);
    }
  }
  state.price_per_mwh = rng.uniform(20.0, 90.0);
  return state;
}

// A topology made of 1-3 isolated station groups, each in a region tile of
// its own: a cluster (1-3 servers), 1-2 stations wired only to that
// cluster with their coverage discs inside the tile, and devices roaming
// boxes inside it, so a device's coverable stations are exactly its
// group's. The WCG decomposes along group lines — one component per group
// that has devices.
struct GroupedWorld {
  std::shared_ptr<topology::Topology> topology;
  std::size_t groups = 0;
  std::vector<std::size_t> station_group;
  std::vector<std::size_t> device_group;
};

inline GroupedWorld random_grouped_world(util::Rng& rng) {
  // A station sits in its tile's central 400 m square and covers 250 m, so
  // its disc meets every box of its tile and none of another tile's.
  constexpr double kTile = 1000.0;
  GroupedWorld world;
  topology::TopologyBuilder builder;
  world.groups = 1 + rng.index(3);
  builder.set_region({kTile * static_cast<double>(world.groups), kTile});
  auto model = std::make_shared<energy::QuadraticEnergy>(
      rng.uniform(1.0, 8.0), rng.uniform(0.0, 5.0), rng.uniform(5.0, 40.0));
  std::size_t servers = 0;
  std::size_t stations = 0;
  for (std::size_t g = 0; g < world.groups; ++g) {
    const double x0 = kTile * static_cast<double>(g);
    const topology::ClusterId cluster = builder.add_cluster(
        "c" + std::to_string(g),
        {x0 + rng.uniform(0.0, kTile), rng.uniform(0.0, kTile)});
    const std::size_t count = 1 + rng.index(3);
    for (std::size_t j = 0; j < count; ++j) {
      const double lo = rng.uniform(1.0, 2.5);
      builder.add_server("s" + std::to_string(servers++), cluster,
                         rng.bernoulli(0.5) ? 64 : 128, lo,
                         lo + rng.uniform(0.5, 1.5), model);
    }
    const std::size_t local_stations = 1 + rng.index(2);
    for (std::size_t k = 0; k < local_stations; ++k) {
      builder.add_base_station(
          "b" + std::to_string(stations),
          {x0 + rng.uniform(300.0, 700.0), rng.uniform(300.0, 700.0)},
          topology::Band::kLow, 250.0, rng.uniform(50e6, 100e6),
          rng.uniform(0.5e9, 1e9), 10.0, {cluster});
      world.station_group.push_back(g);
      ++stations;
    }
  }
  const std::size_t devices = 4 + rng.index(9);
  for (std::size_t i = 0; i < devices; ++i) {
    const std::size_t g = rng.index(world.groups);
    const double x0 = kTile * static_cast<double>(g);
    builder.add_device(
        "d" + std::to_string(i),
        {x0 + rng.uniform(100.0, 900.0), rng.uniform(100.0, 900.0)}, 1.5,
        topology::BoundingBox{x0 + 100.0, 100.0, x0 + 900.0, 900.0});
    world.device_group.push_back(g);
  }
  world.topology = std::make_shared<topology::Topology>(builder.build());
  return world;
}

// Random state whose channel matrix only links a device to its own group's
// stations (at least one of them).
inline core::SlotState grouped_state(const GroupedWorld& world,
                                     util::Rng& rng) {
  const topology::Topology& topo = *world.topology;
  core::SlotState state;
  state.slot = 0;
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  state.task_cycles.resize(devices);
  state.data_bits.resize(devices);
  state.channel.assign(devices, std::vector<double>(stations, 0.0));
  for (std::size_t i = 0; i < devices; ++i) {
    state.task_cycles[i] = rng.uniform(1e7, 5e8);
    state.data_bits[i] = rng.uniform(1e6, 2e7);
    const std::size_t group = world.device_group[i];
    std::vector<std::size_t> own;
    for (std::size_t k = 0; k < stations; ++k) {
      if (world.station_group[k] != group) continue;
      own.push_back(k);
      if (rng.bernoulli(0.7)) state.channel[i][k] = rng.uniform(15.0, 50.0);
    }
    bool any = false;
    for (const std::size_t k : own) any = any || state.channel[i][k] > 0.0;
    if (!any) state.channel[i][own[rng.index(own.size())]] =
        rng.uniform(15.0, 50.0);
  }
  state.price_per_mwh = rng.uniform(5.0, 300.0);
  return state;
}

// A sparse state stream, the shape of an online controller's input (the
// serve-sparse benchmark's deltas): the first state is fresh[0]; each later
// state t copies its predecessor, gives ~5% of the present devices fresh[t]'s
// f, d and h, and moves ~1% of the devices away (f and d scaled to the 0.05
// keep-alive trickle, h kept) or back (fresh[t]'s values). `fresh` holds
// consecutive full states of one world; slot and price follow it.
inline std::vector<core::SlotState> sparse_stream(
    const std::vector<core::SlotState>& fresh, util::Rng& rng) {
  std::vector<core::SlotState> out;
  if (fresh.empty()) return out;
  const std::size_t devices = fresh[0].task_cycles.size();
  const auto share_of = [devices](double share) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(share * static_cast<double>(devices))));
  };
  const std::size_t updates = share_of(0.05);
  const std::size_t churn = share_of(0.01);
  std::vector<char> present(devices, 1);
  out.push_back(fresh[0]);
  for (std::size_t t = 1; t < fresh.size(); ++t) {
    core::SlotState state = out.back();
    const core::SlotState& next = fresh[t];
    state.slot = next.slot;
    state.price_per_mwh = next.price_per_mwh;
    const auto take = [&](std::size_t i) {
      state.task_cycles[i] = next.task_cycles[i];
      state.data_bits[i] = next.data_bits[i];
      state.channel[i] = next.channel[i];
    };
    for (std::size_t c = 0; c < churn; ++c) {
      const std::size_t i = rng.index(devices);
      if (present[i] != 0) {
        state.task_cycles[i] *= 0.05;
        state.data_bits[i] *= 0.05;
      } else {
        take(i);
      }
      present[i] = present[i] != 0 ? 0 : 1;
    }
    for (std::size_t u = 0; u < updates; ++u) {
      const std::size_t i = rng.index(devices);
      if (present[i] != 0) take(i);
    }
    out.push_back(std::move(state));
  }
  return out;
}

}  // namespace eotora::test
