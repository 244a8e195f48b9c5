#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "energy/quadratic_energy.h"
#include "topology/builder.h"
#include "topology/channel_model.h"
#include "topology/mobility.h"
#include "topology/topology.h"
#include "util/rng.h"

namespace eotora::topology {
namespace {

std::shared_ptr<const energy::EnergyModel> model() {
  return std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0);
}

TEST(Geometry, DistanceAndRegion) {
  EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  const Region region{100.0, 50.0};
  EXPECT_TRUE(region.contains({50.0, 25.0}));
  EXPECT_FALSE(region.contains({-1.0, 0.0}));
  const Point clamped = region.clamp({200.0, -10.0});
  EXPECT_DOUBLE_EQ(clamped.x, 100.0);
  EXPECT_DOUBLE_EQ(clamped.y, 0.0);
}

TEST(Ids, DistinctTypesCompare) {
  EXPECT_EQ(ServerId{3}, ServerId{3});
  EXPECT_NE(ServerId{3}, ServerId{4});
  EXPECT_LT(BaseStationId{1}, BaseStationId{2});
}

TEST(Builder, BuildsConsistentTopology) {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {500.0, 500.0});
  const auto s0 = builder.add_server("s0", room, 64, 1.8, 3.6, model());
  builder.add_base_station("bs", {500.0, 500.0}, Band::kMid, 300.0, 75e6,
                           0.7e9, 10.0, {room});
  builder.add_device("d0", {400.0, 500.0});
  const Topology topo = builder.build();
  EXPECT_EQ(topo.num_clusters(), 1u);
  EXPECT_EQ(topo.num_servers(), 1u);
  EXPECT_EQ(topo.num_base_stations(), 1u);
  EXPECT_EQ(topo.num_devices(), 1u);
  EXPECT_EQ(topo.clusters()[room.value].servers.size(), 1u);
  EXPECT_EQ(topo.server(s0).cluster, room);
}

TEST(Builder, RejectsServerInUnknownCluster) {
  TopologyBuilder builder;
  EXPECT_THROW((void)builder.add_server("s", ClusterId{0}, 64, 1.8, 3.6,
                                        model()),
               std::invalid_argument);
}

TEST(Topology, RejectsBaseStationWithoutCluster) {
  TopologyBuilder builder;
  builder.set_region({100.0, 100.0});
  const auto room = builder.add_cluster("room", {50.0, 50.0});
  builder.add_server("s", room, 64, 1.8, 3.6, model());
  builder.add_base_station("bs", {50.0, 50.0}, Band::kMid, 100.0, 75e6, 0.7e9,
                           10.0, {});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(Topology, RejectsEmptyCluster) {
  TopologyBuilder builder;
  builder.set_region({100.0, 100.0});
  const auto room = builder.add_cluster("room", {50.0, 50.0});
  const auto ghost = builder.add_cluster("ghost", {10.0, 10.0});
  builder.add_server("s", room, 64, 1.8, 3.6, model());
  builder.add_base_station("bs", {50.0, 50.0}, Band::kMid, 100.0, 75e6, 0.7e9,
                           10.0, {room, ghost});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(Topology, RejectsBadFrequencyRange) {
  TopologyBuilder builder;
  builder.set_region({100.0, 100.0});
  const auto room = builder.add_cluster("room", {50.0, 50.0});
  builder.add_server("s", room, 64, 3.6, 1.8, model());
  builder.add_base_station("bs", {50.0, 50.0}, Band::kMid, 100.0, 75e6, 0.7e9,
                           10.0, {room});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(Topology, CoverageDiscWorks) {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {0.0, 0.0});
  builder.add_server("s", room, 64, 1.8, 3.6, model());
  const auto bs = builder.add_base_station("bs", {500.0, 500.0}, Band::kMid,
                                           100.0, 75e6, 0.7e9, 10.0, {room});
  const Topology topo = builder.build();
  EXPECT_TRUE(topo.covers(bs, {550.0, 500.0}));
  EXPECT_TRUE(topo.covers(bs, {500.0, 600.0}));
  EXPECT_FALSE(topo.covers(bs, {650.0, 500.0}));
  EXPECT_EQ(topo.covering_base_stations({550.0, 500.0}).size(), 1u);
  EXPECT_TRUE(topo.covering_base_stations({0.0, 0.0}).empty());
}

TEST(Topology, ReachableServersFollowFronthaul) {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room0 = builder.add_cluster("r0", {0.0, 0.0});
  const auto room1 = builder.add_cluster("r1", {900.0, 900.0});
  const auto s0 = builder.add_server("s0", room0, 64, 1.8, 3.6, model());
  const auto s1 = builder.add_server("s1", room1, 64, 1.8, 3.6, model());
  const auto s2 = builder.add_server("s2", room1, 64, 1.8, 3.6, model());
  const auto wired = builder.add_base_station(
      "wired", {100.0, 100.0}, Band::kMid, 300.0, 75e6, 0.7e9, 10.0, {room0});
  const auto wireless = builder.add_base_station(
      "wireless", {500.0, 500.0}, Band::kLow, 2000.0, 75e6, 0.7e9, 10.0,
      {room0, room1});
  const Topology topo = builder.build();
  const auto& from_wired = topo.reachable_servers(wired);
  ASSERT_EQ(from_wired.size(), 1u);
  EXPECT_EQ(from_wired[0], s0);
  const auto& from_wireless = topo.reachable_servers(wireless);
  ASSERT_EQ(from_wireless.size(), 3u);
  EXPECT_EQ(from_wireless[0], s0);
  EXPECT_EQ(from_wireless[1], s1);
  EXPECT_EQ(from_wireless[2], s2);
}

TEST(Topology, DevicePositionsClampToRegion) {
  TopologyBuilder builder;
  builder.set_region({100.0, 100.0});
  const auto room = builder.add_cluster("room", {50.0, 50.0});
  builder.add_server("s", room, 64, 1.8, 3.6, model());
  builder.add_base_station("bs", {50.0, 50.0}, Band::kLow, 500.0, 75e6, 0.7e9,
                           10.0, {room});
  const auto d = builder.add_device("d", {500.0, 500.0});
  Topology topo = builder.build();
  EXPECT_DOUBLE_EQ(topo.device(d).position.x, 100.0);
  topo.set_device_position(d, {-5.0, 42.0});
  EXPECT_DOUBLE_EQ(topo.device(d).position.x, 0.0);
  EXPECT_DOUBLE_EQ(topo.device(d).position.y, 42.0);
}

// One 1000 m square room with a station at each end of the x axis.
TopologyBuilder two_station_builder() {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {500.0, 500.0});
  builder.add_server("s", room, 64, 1.8, 3.6, model());
  builder.add_base_station("west", {0.0, 500.0}, Band::kMid, 300.0, 75e6,
                           0.7e9, 10.0, {room});
  builder.add_base_station("east", {1000.0, 500.0}, Band::kMid, 300.0, 75e6,
                           0.7e9, 10.0, {room});
  return builder;
}

TEST(RoamingBox, RejectsInvertedBox) {
  TopologyBuilder builder = two_station_builder();
  builder.add_device("d", {500.0, 500.0}, 1.5,
                     BoundingBox{600.0, 400.0, 400.0, 600.0});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
  TopologyBuilder builder_y = two_station_builder();
  builder_y.add_device("d", {500.0, 500.0}, 1.5,
                       BoundingBox{400.0, 600.0, 600.0, 400.0});
  EXPECT_THROW((void)builder_y.build(), std::invalid_argument);
}

TEST(RoamingBox, RejectsStartOutsideTheBox) {
  TopologyBuilder builder = two_station_builder();
  builder.add_device("d", {100.0, 500.0}, 1.5,
                     BoundingBox{400.0, 400.0, 600.0, 600.0});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(RoamingBox, RejectsBoxLeavingTheRegion) {
  TopologyBuilder builder = two_station_builder();
  builder.add_device("d", {500.0, 500.0}, 1.5,
                     BoundingBox{400.0, 400.0, 1200.0, 600.0});
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(RoamingBox, SetDevicePositionClampsIntoTheBox) {
  TopologyBuilder builder = two_station_builder();
  const auto d = builder.add_device("d", {500.0, 500.0}, 1.5,
                                    BoundingBox{400.0, 450.0, 600.0, 550.0});
  Topology topo = builder.build();
  topo.set_device_position(d, {-5.0, 900.0});
  EXPECT_EQ(topo.device(d).position, (Point{400.0, 550.0}));
  topo.set_device_position(d, {580.0, 470.0});  // inside: kept as is
  EXPECT_EQ(topo.device(d).position, (Point{580.0, 470.0}));
}

TEST(RoamingBox, CoverableStationsAreThoseWhoseDiscMeetsTheBox) {
  TopologyBuilder builder = two_station_builder();
  // Box reaches x = 250, inside west's 300 m disc; east is 750 m away.
  const auto boxed = builder.add_device(
      "boxed", {300.0, 500.0}, 1.5, BoundingBox{250.0, 450.0, 450.0, 550.0});
  // A box strictly between the discs (west reaches x = 300, east x = 700)
  // meets neither.
  const auto between = builder.add_device(
      "between", {500.0, 500.0}, 1.5, BoundingBox{320.0, 0.0, 680.0, 1000.0});
  const auto free = builder.add_device("free", {500.0, 500.0});
  const Topology topo = builder.build();
  const auto boxed_list = topo.coverable_stations(boxed);
  ASSERT_EQ(boxed_list.size(), 1u);
  EXPECT_EQ(boxed_list[0], BaseStationId{0});
  EXPECT_TRUE(topo.coverable_stations(between).empty());
  const auto free_list = topo.coverable_stations(free);
  ASSERT_EQ(free_list.size(), 2u);
  EXPECT_EQ(free_list[0], BaseStationId{0});
  EXPECT_EQ(free_list[1], BaseStationId{1});
  EXPECT_EQ(topo.num_coverable_pairs(), 3u);
}

TEST(RoamingBox, WaypointWalkNeverLeavesTheBox) {
  TopologyBuilder builder = two_station_builder();
  const BoundingBox box{250.0, 450.0, 450.0, 550.0};
  const auto d = builder.add_device("d", {300.0, 500.0}, 2.5, box);
  Topology topo = builder.build();
  RandomWaypointMobility mobility(MobilityConfig{120.0, 0.0}, 1,
                                  util::Rng(9));
  bool moved = false;
  for (int t = 0; t < 500; ++t) {
    mobility.step(topo);
    const Point pos = topo.device(d).position;
    ASSERT_TRUE(box.contains(pos)) << "slot " << t;
    moved |= pos.x != 300.0;
  }
  EXPECT_TRUE(moved);
}

TEST(Server, CapacityAndPowerScaleWithCores) {
  Server server;
  server.cores = 64;
  server.energy_model = model();
  EXPECT_DOUBLE_EQ(server.capacity_hz(2.0), 64.0 * 2e9);
  // 64-core power = 16x the 4-core reference model.
  EXPECT_DOUBLE_EQ(server.power_watts(2.0),
                   server.energy_model->power(2.0) * 16.0);
  EXPECT_DOUBLE_EQ(server.power_derivative_watts(2.0),
                   server.energy_model->power_derivative(2.0) * 16.0);
}

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelFixture() {
    TopologyBuilder builder;
    builder.set_region({1000.0, 1000.0});
    const auto room = builder.add_cluster("room", {500.0, 500.0});
    builder.add_server("s", room, 64, 1.8, 3.6, model());
    builder.add_base_station("near", {500.0, 500.0}, Band::kLow, 2000.0, 75e6,
                             0.7e9, 10.0, {room});
    builder.add_base_station("small", {100.0, 100.0}, Band::kMid, 150.0, 75e6,
                             0.7e9, 10.0, {room});
    builder.add_device("covered", {500.0, 500.0});
    builder.add_device("far", {900.0, 900.0});
    topo_ = std::make_unique<Topology>(builder.build());
  }
  std::unique_ptr<Topology> topo_;
};

TEST_F(ChannelFixture, EfficienciesWithinPaperRangeWhenCovered) {
  ChannelModel channel(ChannelConfig{}, *topo_, util::Rng(3));
  for (int t = 0; t < 50; ++t) {
    const auto h = channel.step(*topo_);
    ASSERT_EQ(h.size(), 2u);
    ASSERT_EQ(h[0].size(), 2u);
    // Device 0 is covered by the wide station: always usable and in range.
    EXPECT_GE(h[0][0], 15.0);
    EXPECT_LE(h[0][0], 50.0);
    // Device 1 is outside the small cell: unusable.
    EXPECT_DOUBLE_EQ(h[1][1], 0.0);
  }
}

TEST_F(ChannelFixture, BaseEfficienciesDrawnFromConfiguredRange) {
  ChannelModel channel(ChannelConfig{}, *topo_, util::Rng(4));
  for (double base : channel.base_efficiencies()) {
    EXPECT_GE(base, 15.0);
    EXPECT_LE(base, 50.0);
  }
}

TEST_F(ChannelFixture, ChannelVariesOverTime) {
  ChannelModel channel(ChannelConfig{}, *topo_, util::Rng(5));
  const auto h1 = channel.step(*topo_);
  const auto h2 = channel.step(*topo_);
  EXPECT_NE(h1[0][0], h2[0][0]);
}

TEST_F(ChannelFixture, RejectsBadConfig) {
  ChannelConfig config;
  config.shadowing_rho = 1.0;
  EXPECT_THROW(ChannelModel(config, *topo_, util::Rng(1)),
               std::invalid_argument);
  ChannelConfig config2;
  config2.min_efficiency = 50.0;
  config2.max_efficiency = 15.0;
  EXPECT_THROW(ChannelModel(config2, *topo_, util::Rng(1)),
               std::invalid_argument);
  // Log-distance parameters outside (0, inf). d0 = -10 makes every covered
  // h NaN and d0 = 0 makes h NaN for a device on its station (0 / 0).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double d0 : {-10.0, 0.0, inf, nan}) {
    ChannelConfig bad;
    bad.attenuation = ChannelConfig::Attenuation::kLogDistance;
    bad.reference_distance_m = d0;
    EXPECT_THROW(ChannelModel(bad, *topo_, util::Rng(1)),
                 std::invalid_argument)
        << "reference_distance_m=" << d0;
  }
  for (const double eta : {-2.5, 0.0, inf, nan}) {
    ChannelConfig bad;
    bad.attenuation = ChannelConfig::Attenuation::kLogDistance;
    bad.pathloss_exponent = eta;
    EXPECT_THROW(ChannelModel(bad, *topo_, util::Rng(1)),
                 std::invalid_argument)
        << "pathloss_exponent=" << eta;
  }
}

TEST_F(ChannelFixture, MobilityMovesDevicesWithinRegion) {
  RandomWaypointMobility mobility(MobilityConfig{60.0, 0.0}, 2, util::Rng(6));
  const Point before = topo_->device(DeviceId{0}).position;
  bool moved = false;
  for (int t = 0; t < 20; ++t) {
    mobility.step(*topo_);
    const Point pos = topo_->device(DeviceId{0}).position;
    EXPECT_TRUE(topo_->region().contains(pos));
    if (distance(pos, before) > 1.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST_F(ChannelFixture, MobilityStepIsBoundedBySpeed) {
  RandomWaypointMobility mobility(MobilityConfig{60.0, 0.0}, 2, util::Rng(7));
  Point previous = topo_->device(DeviceId{0}).position;
  const double max_step =
      topo_->device(DeviceId{0}).speed_mps * 60.0 + 1e-9;
  for (int t = 0; t < 30; ++t) {
    mobility.step(*topo_);
    const Point pos = topo_->device(DeviceId{0}).position;
    EXPECT_LE(distance(previous, pos), max_step);
    previous = pos;
  }
}

TEST_F(ChannelFixture, MobilityRejectsWrongDeviceCount) {
  RandomWaypointMobility mobility(MobilityConfig{60.0, 0.0}, 5, util::Rng(8));
  EXPECT_THROW(mobility.step(*topo_), std::invalid_argument);
}

}  // namespace
}  // namespace eotora::topology
