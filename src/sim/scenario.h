// Scenario factory reproducing the paper's simulation settings (§VI-A) plus
// the stateful generators that produce β_t slot by slot.
//
// Paper settings reproduced by default:
//   - 6 base stations, 2 edge server rooms, 8 servers per room
//   - half the servers have 64 cores, the other half 128
//   - access bandwidth drawn in [50, 100] MHz per BS (mid-band n77)
//   - access spectrum efficiency in [15, 50] bps/Hz
//   - wired fronthaul, bandwidth in [0.5, 1] GHz, spectrum efficiency 10
//   - each (mid-band) BS randomly connects to one server room
//   - task sizes f in [50, 200] megacycles; data lengths d in [3, 10] Mb
//   - suitability σ in [0.5, 1]
//   - per-server energy: perturbed quadratic fits of the i7-3770K data
//   - prices: NYISO-like synthetic hourly trace
// Two wide-coverage low-band stations (reaching both rooms) guarantee every
// device always has a feasible option while mid-band cells come and go with
// mobility — matching Fig. 1's mixed-coverage topology.
#pragma once

#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "topology/channel_model.h"
#include "topology/mobility.h"
#include "topology/topology.h"
#include "trace/price_trace.h"
#include "trace/workload_trace.h"
#include "util/rng.h"

namespace eotora::sim {

struct ScenarioConfig {
  // Which mobility process drives device positions.
  enum class Mobility { kRandomWaypoint, kGaussMarkov };

  std::size_t devices = 100;
  std::size_t mid_band_stations = 4;   // + 2 low-band = 6 total by default
  std::size_t low_band_stations = 2;
  std::size_t clusters = 2;
  std::size_t servers_per_cluster = 8;
  double budget_per_slot = 1.0;  // C̄ in dollars per slot
  double slot_hours = 1.0;       // hourly slots (NYISO prices are hourly)
  std::size_t period = 24;       // D: slots per day
  double region_m = 2000.0;      // square service-area side
  // Metro-scale layout: 0 = the paper's mixed-coverage topology above.
  // > 0 tiles the region with a square grid of `metro_districts` districts
  // (must be a perfect square). Each district gets its own server room with
  // `servers_per_cluster` servers, `stations_per_district` mid-band
  // stations jittered around the tile center (coverage radius 0.57 tile),
  // and an equal round-robin share of the devices, whose roaming box
  // (topology::MobileDevice::box) is the tile's inner box [0.15, 0.85]².
  // The geometry guarantees every device is always covered by every
  // own-district station (max distance 0.40·√2 ≈ 0.566 tile) and never by
  // a neighboring district's (min distance 0.60 tile), so a device's
  // coverable stations are exactly its own district's and the channel model
  // draws shadowing for devices × stations_per_district pairs only. Fronthaul
  // wires stations only to the local room — so the WCG decomposes into
  // exactly one connected component per district. This is the scenario the
  // component-parallel slot (core/components) and perfbench's metro-10k
  // workload exercise at 10⁴-10⁵ devices. Metro mode requires
  // kRandomWaypoint mobility (waypoints are drawn in the box) and ignores
  // mid_band_stations / low_band_stations / clusters.
  std::size_t metro_districts = 0;
  std::size_t stations_per_district = 2;
  std::uint64_t seed = 42;
  // State-process knobs.
  double workload_trend_weight = 0.5;  // non-iid share of f and d
  trace::PriceTraceConfig price;
  Mobility mobility = Mobility::kRandomWaypoint;
  topology::ChannelConfig channel;  // attenuation shape, shadowing, bounds

  // --- scenario-diversity knobs (all defaults reproduce the paper) -------
  // Named presets over these live in sim/scenario_registry.h.

  // Seconds of movement applied per slot. Larger values make devices cross
  // cell boundaries mid-horizon (the handover scenario); 120 s is the
  // historical default for both mobility processes.
  double mobility_slot_seconds = 120.0;
  // Scales the drawn mid-band coverage radii of the paper topology (< 1
  // shrinks cells so mobility forces more reassociation; the low-band
  // umbrella stations keep every device feasible). Ignored by the metro
  // layout, whose geometry proof needs the stock radius.
  double mid_band_coverage_scale = 1.0;

  // Join/leave churn (Huang et al., arXiv 1904.13024): devices flip between
  // present and away via a two-state Markov chain, one Bernoulli draw per
  // device per slot. The instance shape is immutable, so an away device is
  // not removed — its task and data shrink to `away_workload_fraction` of
  // the drawn value (a keep-alive trickle), which moves real load on and
  // off the system without perturbing any other generator's stream.
  struct Churn {
    bool enabled = false;
    double leave_probability = 0.08;     // present -> away, per slot
    double join_probability = 0.25;      // away -> present, per slot
    double away_workload_fraction = 0.05;  // in (0, 1]
  };
  Churn churn;

  // Bursty workload: with `probability` per slot, every device's f and d
  // are scaled by `multiplier` for that slot (a correlated demand burst on
  // top of the diurnal trend).
  struct Bursts {
    bool enabled = false;
    double probability = 0.08;
    double multiplier = 2.5;  // >= 1
  };
  Bursts bursts;
};

// A fully wired scenario: the topology, the immutable problem instance, and
// the stateful generators. Use next_state() to draw β_1, β_2, ... — or
// generate_states() to pre-draw a horizon so several policies can be
// compared on identical state sequences.
class Scenario {
 public:
  Scenario(const ScenarioConfig& config);

  [[nodiscard]] const core::Instance& instance() const { return *instance_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const topology::Topology& topology() const {
    return *topology_;
  }

  // Advances mobility, channels, workloads, and price by one slot.
  [[nodiscard]] core::SlotState next_state();

  // Same advance, refilling `out` in place. Identical RNG stream to
  // next_state(), so both forms produce the same β sequence; the per-device
  // vectors and the channel matrix reuse out's capacity, so a steady-state
  // caller (sim::ScenarioSource) allocates nothing per slot.
  void next_state(core::SlotState& out);

  // Draws the next `horizon` states.
  [[nodiscard]] std::vector<core::SlotState> generate_states(
      std::size_t horizon);

 private:
  ScenarioConfig config_;
  std::shared_ptr<topology::Topology> topology_;
  std::unique_ptr<core::Instance> instance_;
  std::unique_ptr<trace::WorkloadTrace> task_trace_;  // f, in cycles
  std::unique_ptr<trace::WorkloadTrace> data_trace_;  // d, in bits
  std::unique_ptr<trace::PriceTrace> price_trace_;
  std::unique_ptr<topology::ChannelModel> channel_;
  std::unique_ptr<topology::RandomWaypointMobility> waypoint_mobility_;
  std::unique_ptr<topology::GaussMarkovMobility> gauss_markov_mobility_;
  // Appended after the mobility fork so enabling them never perturbs the
  // streams of the original generators (golden fixtures stay byte-stable).
  util::Rng churn_rng_;
  util::Rng burst_rng_;
  std::vector<char> active_;  // churn presence state, one flag per device
  std::size_t slot_ = 0;
};

}  // namespace eotora::sim
