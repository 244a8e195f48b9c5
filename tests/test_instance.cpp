#include "core/instance.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.h"
#include "sim/scenario_registry.h"
#include "support/golden.h"
#include "test_helpers.h"

namespace eotora::core {
namespace {

using Worlds = std::vector<
    std::pair<std::string, std::shared_ptr<const topology::Topology>>>;

// Two stations wired against id order: bs-0 reaches room-1 (s2), bs-1
// room-0 (s0, s1). The box-free device's reach lists therefore arrive as
// {s2, s0, s1}; the east device's box admits only bs-0 and the last
// device's only bs-1, so its row ends before the last server.
std::shared_ptr<const topology::Topology> crossed_topology() {
  topology::TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room0 = builder.add_cluster("room-0", {250.0, 250.0});
  const auto room1 = builder.add_cluster("room-1", {750.0, 750.0});
  auto model = std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0);
  builder.add_server("s0", room0, 64, 1.8, 3.6, model);
  builder.add_server("s1", room0, 128, 1.8, 3.6, model);
  builder.add_server("s2", room1, 64, 1.8, 3.6, model);
  builder.add_base_station("bs-0", {750.0, 750.0}, topology::Band::kMid,
                           200.0, 80e6, 0.8e9, 10.0, {room1});
  builder.add_base_station("bs-1", {250.0, 250.0}, topology::Band::kMid,
                           200.0, 60e6, 0.6e9, 10.0, {room0});
  builder.add_device("free", {500.0, 500.0});
  builder.add_device("east", {750.0, 750.0}, 1.0,
                     topology::BoundingBox{700.0, 700.0, 800.0, 800.0});
  builder.add_device("west", {250.0, 250.0}, 1.0,
                     topology::BoundingBox{200.0, 200.0, 300.0, 300.0});
  return std::make_shared<topology::Topology>(builder.build());
}

// The worlds the σ layout is checked on: the paper scenario and every other
// preset, metro-4 (whose devices reach only their district's room), the 25
// grouped fuzz worlds and the crossed world above.
Worlds layout_worlds() {
  Worlds worlds;
  for (const std::string& name : sim::registered_scenarios()) {
    sim::ScenarioConfig config;
    sim::apply_scenario_preset(name, config);
    worlds.emplace_back(name, sim::Scenario(config).instance().topology_ptr());
  }
  worlds.emplace_back(
      "metro-4", sim::Scenario(sim::golden_metro_scenario().config)
                     .instance()
                     .topology_ptr());
  for (unsigned seed = 0; seed < 25; ++seed) {
    util::Rng rng(seed);
    worlds.emplace_back("grouped-" + std::to_string(seed),
                        test::random_grouped_world(rng).topology);
  }
  worlds.emplace_back("crossed", crossed_topology());
  return worlds;
}

// The dense devices x servers draw Instance::random stands in for.
SuitabilityMatrix dense_draw(const topology::Topology& topo, util::Rng& rng) {
  SuitabilityMatrix sigma(topo.num_devices(),
                          std::vector<double>(topo.num_servers()));
  for (auto& row : sigma) {
    for (double& s : row) s = rng.uniform(0.5, 1.0);
  }
  return sigma;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool reaches(const topology::Topology& topo, std::size_t device,
             std::size_t server) {
  for (topology::ServerId n :
       topo.reachable_servers(topology::DeviceId{device})) {
    if (n.value == server) return true;
  }
  return false;
}

TEST(Instance, ValidatesSigmaShape) {
  auto topo = test::tiny_topology(2);
  SuitabilityMatrix wrong_rows(1, std::vector<double>(3, 1.0));
  EXPECT_THROW(Instance(topo, wrong_rows, 1.0), std::invalid_argument);
  SuitabilityMatrix wrong_cols(2, std::vector<double>(2, 1.0));
  EXPECT_THROW(Instance(topo, wrong_cols, 1.0), std::invalid_argument);
}

TEST(Instance, ValidatesSigmaRange) {
  auto topo = test::tiny_topology(2);
  SuitabilityMatrix zero(2, std::vector<double>(3, 0.0));
  EXPECT_THROW(Instance(topo, zero, 1.0), std::invalid_argument);
  SuitabilityMatrix above(2, std::vector<double>(3, 1.5));
  EXPECT_THROW(Instance(topo, above, 1.0), std::invalid_argument);
}

TEST(Instance, ValidatesBudgetAndSlot) {
  auto topo = test::tiny_topology(2);
  SuitabilityMatrix sigma(2, std::vector<double>(3, 1.0));
  EXPECT_THROW(Instance(topo, sigma, 0.0), std::invalid_argument);
  EXPECT_THROW(Instance(topo, sigma, 1.0, 0.0), std::invalid_argument);
}

TEST(Instance, ServerCostFollowsPriceAndPower) {
  const Instance instance = test::tiny_instance(2, 5.0);
  const auto& server = instance.topology().server(topology::ServerId{0});
  const double price = 80.0;  // $/MWh
  const double ghz = 2.5;
  const double expected =
      price * server.power_watts(ghz) * instance.slot_hours() / 1e6;
  EXPECT_DOUBLE_EQ(instance.server_cost(0, ghz, price), expected);
}

TEST(Instance, EnergyCostSumsServers) {
  const Instance instance = test::tiny_instance(2, 5.0);
  const Frequencies freq = instance.min_frequencies();
  double expected = 0.0;
  for (std::size_t n = 0; n < instance.num_servers(); ++n) {
    expected += instance.server_cost(n, freq[n], 60.0);
  }
  EXPECT_DOUBLE_EQ(instance.energy_cost(freq, 60.0), expected);
  EXPECT_DOUBLE_EQ(instance.theta(freq, 60.0), expected - 5.0);
}

TEST(Instance, MinMaxFrequenciesComeFromServers) {
  const Instance instance = test::tiny_instance(2, 5.0);
  const auto lo = instance.min_frequencies();
  const auto hi = instance.max_frequencies();
  ASSERT_EQ(lo.size(), 3u);
  EXPECT_DOUBLE_EQ(lo[0], 1.8);
  EXPECT_DOUBLE_EQ(lo[2], 2.0);
  EXPECT_DOUBLE_EQ(hi[0], 3.6);
  EXPECT_DOUBLE_EQ(hi[2], 3.0);
}

TEST(Instance, FrequenciesFeasibleChecksRange) {
  const Instance instance = test::tiny_instance(2, 5.0);
  EXPECT_TRUE(instance.frequencies_feasible(instance.min_frequencies()));
  EXPECT_TRUE(instance.frequencies_feasible(instance.max_frequencies()));
  EXPECT_FALSE(instance.frequencies_feasible({1.0, 2.0, 2.5}));
  EXPECT_FALSE(instance.frequencies_feasible({2.0, 2.0}));  // wrong size
}

TEST(Instance, RandomSigmaInRange) {
  util::Rng rng(9);
  const Instance instance = Instance::random(test::tiny_topology(10), rng, 1.0);
  for (std::size_t i = 0; i < instance.num_devices(); ++i) {
    ASSERT_EQ(instance.suitability_row(i).size(), 3u);
    for (double s : instance.suitability_row(i)) {
      EXPECT_GE(s, 0.5);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(Instance, SuitabilityAccessorBoundsChecked) {
  const Instance instance = test::tiny_instance(2, 5.0);
  EXPECT_NO_THROW((void)instance.suitability(1, 2));
  EXPECT_THROW((void)instance.suitability(2, 0), std::invalid_argument);
  EXPECT_THROW((void)instance.suitability(0, 3), std::invalid_argument);
}

TEST(SigmaLayout, ReachableServersAreTheCoverableStationsReach) {
  for (const auto& [name, topo] : layout_worlds()) {
    SCOPED_TRACE(name);
    std::size_t offset = 0;
    for (std::size_t i = 0; i < topo->num_devices(); ++i) {
      const topology::DeviceId device{i};
      std::set<std::size_t> expected;
      for (topology::BaseStationId k : topo->coverable_stations(device)) {
        for (topology::ServerId n : topo->reachable_servers(k)) {
          expected.insert(n.value);
        }
      }
      std::vector<std::size_t> actual;
      for (topology::ServerId n : topo->reachable_servers(device)) {
        actual.push_back(n.value);
      }
      EXPECT_EQ(actual, std::vector<std::size_t>(expected.begin(),
                                                 expected.end()))
          << "device " << i;
      EXPECT_EQ(topo->reachable_offset(device), offset) << "device " << i;
      offset += actual.size();
    }
    EXPECT_EQ(topo->num_reachable_pairs(), offset);
  }
}

// Instance::random keeps exactly the reachable entries of the dense draw,
// bit for bit, and leaves the engine where the dense draw leaves it; the
// dense constructor keeps the same entries.
TEST(SigmaLayout, RandomKeepsTheDenseDrawBitForBit) {
  for (const auto& [name, topo] : layout_worlds()) {
    SCOPED_TRACE(name);
    util::Rng rng(17);
    util::Rng dense_rng(17);
    const Instance instance = Instance::random(topo, rng, 1.0);
    const SuitabilityMatrix dense = dense_draw(*topo, dense_rng);
    EXPECT_EQ(rng.engine(), dense_rng.engine());
    const Instance from_dense(topo, dense, 1.0);
    for (std::size_t i = 0; i < topo->num_devices(); ++i) {
      const auto reach = topo->reachable_servers(topology::DeviceId{i});
      const std::span<const double> row = instance.suitability_row(i);
      const std::span<const double> dense_row = from_dense.suitability_row(i);
      ASSERT_EQ(row.size(), reach.size());
      ASSERT_EQ(dense_row.size(), reach.size());
      for (std::size_t p = 0; p < reach.size(); ++p) {
        const std::size_t n = reach[p].value;
        EXPECT_EQ(bits(row[p]), bits(dense[i][n])) << i << "," << n;
        EXPECT_EQ(bits(dense_row[p]), bits(dense[i][n])) << i << "," << n;
        EXPECT_EQ(bits(instance.suitability(i, n)), bits(dense[i][n]));
      }
    }
  }
}

TEST(SigmaLayout, SuitabilityThrowsOutOfReach) {
  std::size_t out_of_reach = 0;
  for (const auto& [name, topo] : layout_worlds()) {
    SCOPED_TRACE(name);
    util::Rng rng(5);
    const Instance instance = Instance::random(topo, rng, 1.0);
    for (std::size_t i = 0; i < topo->num_devices(); ++i) {
      for (std::size_t n = 0; n < topo->num_servers(); ++n) {
        if (reaches(*topo, i, n)) {
          EXPECT_NO_THROW((void)instance.suitability(i, n));
          continue;
        }
        ++out_of_reach;
        EXPECT_THROW((void)instance.suitability(i, n), std::invalid_argument)
            << i << "," << n;
      }
    }
    EXPECT_THROW((void)instance.suitability(topo->num_devices(), 0),
                 std::invalid_argument);
    EXPECT_THROW((void)instance.suitability(0, topo->num_servers()),
                 std::invalid_argument);
  }
  // metro-4's devices reach one room of four.
  EXPECT_GT(out_of_reach, 0u);
}

// Every dense entry must be in (0, 1], whether it is kept or not.
TEST(SigmaLayout, DenseConstructorRejectsEveryOutOfRangeEntry) {
  std::size_t unreachable_checked = 0;
  for (const auto& [name, topo] : layout_worlds()) {
    SCOPED_TRACE(name);
    SuitabilityMatrix sigma(topo->num_devices(),
                            std::vector<double>(topo->num_servers(), 1.0));
    EXPECT_NO_THROW(Instance(topo, sigma, 1.0));
    for (std::size_t i = 0; i < topo->num_devices(); ++i) {
      // The first reachable and the first unreachable server of the device.
      std::vector<std::size_t> servers;
      for (const bool reachable : {true, false}) {
        for (std::size_t n = 0; n < topo->num_servers(); ++n) {
          if (reaches(*topo, i, n) == reachable) {
            servers.push_back(n);
            unreachable_checked += reachable ? 0 : 1;
            break;
          }
        }
      }
      for (const std::size_t n : servers) {
        for (const double bad : {0.0, -0.5, 1.5, std::nan("")}) {
          sigma[i][n] = bad;
          EXPECT_THROW(Instance(topo, sigma, 1.0), std::invalid_argument)
              << i << "," << n << " = " << bad;
        }
        sigma[i][n] = 1.0;
      }
    }
  }
  EXPECT_GT(unreachable_checked, 0u);
}

}  // namespace
}  // namespace eotora::core
