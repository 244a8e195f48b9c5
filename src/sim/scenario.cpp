#include "sim/scenario.h"

#include <cmath>
#include <string>

#include "energy/fit.h"
#include "topology/builder.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::sim {

namespace {

// The metro layout (ScenarioConfig::metro_districts): a square grid of
// self-contained districts, each device roaming its district's inner box.
// All geometric constants are fractions of the (square) tile side: station
// jitter ±0.05, coverage 0.57, device inner box [0.15, 0.85] — see the
// coverage/exclusion margins derived in scenario.h.
std::shared_ptr<topology::Topology> build_metro_topology(
    const ScenarioConfig& config, util::Rng& rng) {
  EOTORA_REQUIRE(config.stations_per_district >= 1);
  EOTORA_REQUIRE(config.servers_per_cluster >= 1);
  EOTORA_REQUIRE(config.devices >= 1);
  const std::size_t districts = config.metro_districts;
  const std::size_t grid = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(districts))));
  EOTORA_REQUIRE_MSG(grid * grid == districts,
                     "metro_districts=" << districts
                                        << " must be a perfect square");

  topology::TopologyBuilder builder;
  const double side = config.region_m;
  builder.set_region(topology::Region{side, side});
  const double tile = side / static_cast<double>(grid);

  const energy::QuadraticEnergy reference = energy::reference_cpu_fit();
  std::size_t server_index = 0;
  std::vector<topology::ClusterId> rooms;
  rooms.reserve(districts);
  for (std::size_t d = 0; d < districts; ++d) {
    const double origin_x = static_cast<double>(d % grid) * tile;
    const double origin_y = static_cast<double>(d / grid) * tile;
    const topology::Point center{origin_x + 0.5 * tile, origin_y + 0.5 * tile};
    rooms.push_back(
        builder.add_cluster("metro-room-" + std::to_string(d), center));
    for (std::size_t j = 0; j < config.servers_per_cluster; ++j) {
      const int cores = (server_index % 2 == 0) ? 64 : 128;
      auto model = std::make_shared<energy::QuadraticEnergy>(
          energy::perturbed_model(reference, rng));
      builder.add_server("server-" + std::to_string(server_index), rooms[d],
                         cores, 1.8, 3.6, std::move(model));
      ++server_index;
    }
    for (std::size_t b = 0; b < config.stations_per_district; ++b) {
      const topology::Point position{
          center.x + rng.uniform(-0.05, 0.05) * tile,
          center.y + rng.uniform(-0.05, 0.05) * tile};
      builder.add_base_station(
          "metro-bs-" + std::to_string(d) + "-" + std::to_string(b), position,
          topology::Band::kMid, /*coverage_radius_m=*/0.57 * tile,
          rng.uniform(50e6, 100e6), rng.uniform(0.5e9, 1e9),
          /*fronthaul_spectral_efficiency=*/10.0, {rooms[d]});
    }
  }

  for (std::size_t i = 0; i < config.devices; ++i) {
    const std::size_t d = i % districts;
    const double origin_x = static_cast<double>(d % grid) * tile;
    const double origin_y = static_cast<double>(d / grid) * tile;
    const topology::BoundingBox box{origin_x + 0.15 * tile,
                                    origin_y + 0.15 * tile,
                                    origin_x + 0.85 * tile,
                                    origin_y + 0.85 * tile};
    builder.add_device("device-" + std::to_string(i),
                       topology::Point{rng.uniform(box.min_x, box.max_x),
                                       rng.uniform(box.min_y, box.max_y)},
                       /*speed_mps=*/rng.uniform(0.5, 2.5), box);
  }

  return std::make_shared<topology::Topology>(builder.build());
}

std::shared_ptr<topology::Topology> build_topology(
    const ScenarioConfig& config, util::Rng& rng) {
  EOTORA_REQUIRE(config.low_band_stations >= 1);
  EOTORA_REQUIRE(config.clusters >= 1);
  EOTORA_REQUIRE(config.servers_per_cluster >= 1);
  EOTORA_REQUIRE(config.devices >= 1);

  topology::TopologyBuilder builder;
  const double side = config.region_m;
  builder.set_region(topology::Region{side, side});

  // Server rooms spread along the diagonal of the region.
  std::vector<topology::ClusterId> clusters;
  for (std::size_t m = 0; m < config.clusters; ++m) {
    const double frac = (static_cast<double>(m) + 1.0) /
                        (static_cast<double>(config.clusters) + 1.0);
    clusters.push_back(builder.add_cluster(
        "room-" + std::to_string(m), topology::Point{frac * side, frac * side}));
  }

  // Heterogeneous servers: alternating 64 / 128 cores ("half of the sixteen
  // servers have 64 cores, and others have 128"), per-server perturbed
  // quadratic energy models.
  const energy::QuadraticEnergy reference = energy::reference_cpu_fit();
  std::size_t server_index = 0;
  for (std::size_t m = 0; m < config.clusters; ++m) {
    for (std::size_t j = 0; j < config.servers_per_cluster; ++j) {
      const int cores = (server_index % 2 == 0) ? 64 : 128;
      auto model = std::make_shared<energy::QuadraticEnergy>(
          energy::perturbed_model(reference, rng));
      builder.add_server("server-" + std::to_string(server_index),
                         clusters[m], cores, 1.8, 3.6, std::move(model));
      ++server_index;
    }
  }

  // Low-band stations: whole-region coverage, wireless fronthaul reaching
  // every room.
  std::vector<topology::ClusterId> all_clusters = clusters;
  const double full_radius = side * std::sqrt(2.0);  // covers every corner
  for (std::size_t b = 0; b < config.low_band_stations; ++b) {
    const double frac = (static_cast<double>(b) + 1.0) /
                        (static_cast<double>(config.low_band_stations) + 1.0);
    builder.add_base_station(
        "low-band-" + std::to_string(b),
        topology::Point{frac * side, (1.0 - frac) * side}, topology::Band::kLow,
        full_radius, rng.uniform(50e6, 100e6), rng.uniform(0.5e9, 1e9),
        /*fronthaul_spectral_efficiency=*/10.0, all_clusters);
  }

  // Mid-band stations: ~hundred-meter-class cells on a jittered grid, wired
  // fronthaul to one random room. The coverage scale multiplies a DRAWN
  // value, so scaled and unscaled configs consume identical rng streams.
  for (std::size_t b = 0; b < config.mid_band_stations; ++b) {
    const topology::Point position{rng.uniform(0.15 * side, 0.85 * side),
                                   rng.uniform(0.15 * side, 0.85 * side)};
    const topology::ClusterId room = clusters[rng.index(clusters.size())];
    builder.add_base_station("mid-band-" + std::to_string(b), position,
                             topology::Band::kMid,
                             /*coverage_radius_m=*/rng.uniform(0.25, 0.45) *
                                 side * config.mid_band_coverage_scale,
                             rng.uniform(50e6, 100e6), rng.uniform(0.5e9, 1e9),
                             /*fronthaul_spectral_efficiency=*/10.0, {room});
  }

  for (std::size_t i = 0; i < config.devices; ++i) {
    builder.add_device("device-" + std::to_string(i),
                       topology::Point{rng.uniform(0.0, side),
                                       rng.uniform(0.0, side)},
                       /*speed_mps=*/rng.uniform(0.5, 2.5));
  }

  return std::make_shared<topology::Topology>(builder.build());
}

}  // namespace

Scenario::Scenario(const ScenarioConfig& config) : config_(config) {
  EOTORA_REQUIRE(config.mobility_slot_seconds > 0.0);
  EOTORA_REQUIRE(config.mid_band_coverage_scale > 0.0);
  EOTORA_REQUIRE(config.churn.leave_probability >= 0.0 &&
                 config.churn.leave_probability <= 1.0);
  EOTORA_REQUIRE(config.churn.join_probability >= 0.0 &&
                 config.churn.join_probability <= 1.0);
  EOTORA_REQUIRE(config.churn.away_workload_fraction > 0.0 &&
                 config.churn.away_workload_fraction <= 1.0);
  EOTORA_REQUIRE(config.bursts.probability >= 0.0 &&
                 config.bursts.probability <= 1.0);
  EOTORA_REQUIRE(config.bursts.multiplier >= 1.0);

  util::Rng rng(config.seed);
  util::Rng topo_rng = rng.fork();
  util::Rng sigma_rng = rng.fork();
  util::Rng task_rng = rng.fork();
  util::Rng data_rng = rng.fork();
  util::Rng price_rng = rng.fork();
  util::Rng channel_rng = rng.fork();
  util::Rng mobility_rng = rng.fork();
  // New forks stay APPENDED to this list: inserting one earlier would shift
  // every stream after it and invalidate all golden fixtures.
  churn_rng_ = rng.fork();
  burst_rng_ = rng.fork();
  active_.assign(config.devices, 1);

  {
    EOTORA_TRACE_SPAN("setup/topology");
    if (config.metro_districts > 0) {
      EOTORA_REQUIRE_MSG(
          config.mobility == ScenarioConfig::Mobility::kRandomWaypoint,
          "metro scenarios require random-waypoint mobility (waypoints are "
          "drawn in district boxes; Gauss-Markov walks would pile up on the "
          "box edges)");
      topology_ = build_metro_topology(config, topo_rng);
    } else {
      topology_ = build_topology(config, topo_rng);
    }
  }
  {
    EOTORA_TRACE_SPAN("setup/sigma");
    instance_ = std::make_unique<core::Instance>(core::Instance::random(
        topology_, sigma_rng, config.budget_per_slot, config.slot_hours));
  }

  trace::WorkloadTraceConfig task_config;
  task_config.period = config.period;
  task_config.devices = config.devices;
  task_config.low = 50e6;    // 50 megacycles
  task_config.high = 200e6;  // 200 megacycles
  task_config.trend_weight = config.workload_trend_weight;
  task_trace_ = std::make_unique<trace::WorkloadTrace>(task_config, task_rng);

  trace::WorkloadTraceConfig data_config;
  data_config.period = config.period;
  data_config.devices = config.devices;
  data_config.low = 3e6;    // 3 megabits
  data_config.high = 10e6;  // 10 megabits
  data_config.trend_weight = config.workload_trend_weight;
  data_trace_ = std::make_unique<trace::WorkloadTrace>(data_config, data_rng);

  trace::PriceTraceConfig price_config = config.price;
  price_config.period = config.period;
  price_trace_ = std::make_unique<trace::PriceTrace>(price_config, price_rng);

  {
    EOTORA_TRACE_SPAN("setup/channel");
    channel_ = std::make_unique<topology::ChannelModel>(
        config.channel, *topology_, channel_rng);
  }
  // Devices move a bounded distance per slot (a few hundred meters at
  // pedestrian speed) so coverage changes gradually instead of resampling
  // uniformly every slot.
  if (config.mobility == ScenarioConfig::Mobility::kRandomWaypoint) {
    waypoint_mobility_ = std::make_unique<topology::RandomWaypointMobility>(
        topology::MobilityConfig{
            /*slot_duration_s=*/config.mobility_slot_seconds,
            /*pause_probability=*/0.1},
        config.devices, mobility_rng);
  } else {
    topology::GaussMarkovMobility::Config gm_config;
    gm_config.slot_duration_s = config.mobility_slot_seconds;
    gauss_markov_mobility_ = std::make_unique<topology::GaussMarkovMobility>(
        gm_config, config.devices, mobility_rng);
  }
}

core::SlotState Scenario::next_state() {
  core::SlotState state;
  next_state(state);
  return state;
}

void Scenario::next_state(core::SlotState& out) {
  {
    EOTORA_TRACE_SPAN("scenario/mobility");
    if (waypoint_mobility_ != nullptr) {
      waypoint_mobility_->step(*topology_);
    } else {
      gauss_markov_mobility_->step(*topology_);
    }
  }
  out.slot = slot_++;
  {
    EOTORA_TRACE_SPAN("scenario/workload");
    task_trace_->next_into(out.task_cycles);
    data_trace_->next_into(out.data_bits);
  }
  {
    EOTORA_TRACE_SPAN("scenario/channel");
    channel_->step_into(*topology_, out.channel);
  }
  out.price_per_mwh = price_trace_->next();

  // Scenario-diversity transforms, applied on top of the drawn state.
  // Disabled features draw NOTHING, so the state sequence of a stock config
  // is bit-identical to pre-diversity builds.
  if (config_.bursts.enabled) {
    if (burst_rng_.bernoulli(config_.bursts.probability)) {
      for (double& f : out.task_cycles) f *= config_.bursts.multiplier;
      for (double& d : out.data_bits) d *= config_.bursts.multiplier;
    }
  }
  if (config_.churn.enabled) {
    // One draw per device per slot regardless of its current side of the
    // chain, so the stream position never depends on the trajectory.
    for (std::size_t i = 0; i < config_.devices; ++i) {
      const bool flip = churn_rng_.bernoulli(
          active_[i] != 0 ? config_.churn.leave_probability
                          : config_.churn.join_probability);
      if (flip) active_[i] = active_[i] != 0 ? 0 : 1;
      if (active_[i] == 0) {
        out.task_cycles[i] *= config_.churn.away_workload_fraction;
        out.data_bits[i] *= config_.churn.away_workload_fraction;
      }
    }
  }
}

std::vector<core::SlotState> Scenario::generate_states(std::size_t horizon) {
  std::vector<core::SlotState> states;
  states.reserve(horizon);
  for (std::size_t t = 0; t < horizon; ++t) states.push_back(next_state());
  return states;
}

}  // namespace eotora::sim
