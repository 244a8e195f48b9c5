#include "core/wcg.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/counters.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::core {

namespace {
constexpr std::uint32_t kUnreached = 0xffffffffu;

// The last generation a WcgProblem build took (see generation()).
std::atomic<std::uint64_t> last_generation{0};
}  // namespace

void StationTables::refresh(const topology::Topology& topo) {
  const std::size_t stations = topo.num_base_stations();
  // Reuse iff every raw bandwidth and fronthaul spectral efficiency is
  // bitwise unchanged — then the cached reciprocals are trivially the exact
  // bits a recompute would produce.
  bool reuse = access_bw.size() == stations;
  for (std::size_t k = 0; reuse && k < stations; ++k) {
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    reuse = access_bw[k] == bs.access_bandwidth_hz &&
            fronthaul_bw[k] == bs.fronthaul_bandwidth_hz &&
            fronthaul_se[k] == bs.fronthaul_spectral_efficiency;
  }
  if (reuse) {
    ++counters::active().arena_precompute_reuses;
    return;
  }
  access_bw.resize(stations);
  fronthaul_bw.resize(stations);
  inv_access_bw.resize(stations);
  inv_fronthaul_bw.resize(stations);
  fronthaul_se.resize(stations);
  for (std::size_t k = 0; k < stations; ++k) {
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    access_bw[k] = bs.access_bandwidth_hz;
    fronthaul_bw[k] = bs.fronthaul_bandwidth_hz;
    inv_access_bw[k] = 1.0 / bs.access_bandwidth_hz;
    inv_fronthaul_bw[k] = 1.0 / bs.fronthaul_bandwidth_hz;
    fronthaul_se[k] = bs.fronthaul_spectral_efficiency;
  }
  ++counters::active().arena_precomputes;
}

WcgProblem::WcgProblem(const Instance& instance, const SlotState& state,
                       const Frequencies& frequencies) {
  rebuild(instance, state, frequencies);
}

void WcgProblem::rebuild(const Instance& instance, const SlotState& state,
                         const Frequencies& frequencies) {
  EOTORA_TRACE_SPAN("wcg/rebuild");
  const auto& topo = instance.topology();
  tables_.refresh(topo);
  const std::size_t ids = std::max({topo.num_devices(), topo.num_servers(),
                                    topo.num_base_stations()});
  for (std::size_t i = identity_.size(); i < ids; ++i) {
    identity_.push_back(static_cast<std::uint32_t>(i));
  }
  const std::span<const std::uint32_t> identity(identity_);
  WcgSubset all;
  all.devices = identity.first(topo.num_devices());
  all.stations = identity.first(topo.num_base_stations());
  all.servers = identity.first(topo.num_servers());
  all.station_local = all.stations;
  all.server_local = all.servers;
  (void)build(instance, state, frequencies, all, tables_);
}

bool WcgProblem::build(const Instance& instance, const SlotState& state,
                       const Frequencies& frequencies, const WcgSubset& subset,
                       const StationTables& tables) {
  const auto& topo = instance.topology();
  const std::size_t all_devices = topo.num_devices();
  const std::size_t all_stations = topo.num_base_stations();
  const std::size_t servers = subset.servers.size();
  const std::size_t stations = subset.stations.size();
  const bool check = !subset.coverage_offsets.empty();
  generation_ = 0;  // until this build succeeds

  EOTORA_REQUIRE_MSG(servers + 2 * stations <=
                         std::numeric_limits<std::uint32_t>::max(),
                     "resources=" << servers + 2 * stations);
  EOTORA_REQUIRE_MSG(state.task_cycles.size() == all_devices,
                     "task_cycles entries=" << state.task_cycles.size());
  EOTORA_REQUIRE_MSG(state.data_bits.size() == all_devices,
                     "data_bits entries=" << state.data_bits.size());
  EOTORA_REQUIRE_MSG(state.channel.size() == all_devices,
                     "channel rows=" << state.channel.size());
  EOTORA_REQUIRE(tables.fronthaul_se.size() == all_stations);

  station_ids_.assign(subset.stations.begin(), subset.stations.end());
  server_ids_.assign(subset.servers.begin(), subset.servers.end());
  weights_.assign(servers + 2 * stations, 0.0);
  set_frequencies(instance, frequencies);
  for (std::size_t k = 0; k < stations; ++k) {
    weights_[servers + k] = tables.inv_access_bw[subset.stations[k]];
    weights_[servers + stations + k] =
        tables.inv_fronthaul_bw[subset.stations[k]];
  }

  arena_.clear();
  offsets_.clear();
  offsets_.reserve(subset.devices.size() + 1);
  offsets_.push_back(0);
  // Stamps are local device indices, so they must not survive into the
  // next build: a leftover stamp would point device j at the previous
  // build's compact-row position.
  reach_stamp_.assign(servers, kUnreached);
  reach_slot_.resize(servers);
  task_cycles_row_.resize(servers);
  sigma_row_.resize(servers);
  sigma_local_.resize(servers);
  sqrt_compute_row_.resize(servers);
  covered_.resize(all_stations);
  for (std::size_t j = 0; j < subset.devices.size(); ++j) {
    const std::size_t i = subset.devices[j];
    const std::vector<double>& channel = state.channel[i];
    EOTORA_REQUIRE(channel.size() == all_stations);
    EOTORA_REQUIRE_MSG(state.task_cycles[i] > 0.0,
                       "device " << i << " f=" << state.task_cycles[i]);
    EOTORA_REQUIRE_MSG(state.data_bits[i] > 0.0,
                       "device " << i << " d=" << state.data_bits[i]);
    // σ_{i,s} of the device's reachable servers, by local server. A
    // reachable server outside the subset (reached only over a station
    // that does not cover the device this slot) has no local position:
    // server_local maps it anywhere, so each hit is checked against
    // `servers`.
    const topology::DeviceId device{i};
    const std::span<const topology::ServerId> reach =
        topo.reachable_servers(device);
    const std::span<const double> sigma = instance.suitability_row(i);
    for (std::size_t p = 0; p < reach.size(); ++p) {
      const std::uint32_t local = subset.server_local[reach[p].value];
      if (local < servers && subset.servers[local] == reach[p].value) {
        sigma_local_[local] = sigma[p];
      }
    }
    // One pass over the dense row finds the covering stations (and checks
    // them against the coverable list and the plan) and gathers σ_{i,s} of
    // every server a covering station reaches into a compact row, once per
    // server however many stations reach it; sqrt(f_i / σ_{i,s}) is then
    // batched over that row: the same operands and rounding as the
    // per-option chain, on every kernel backend. Gathering in its own pass,
    // ahead of the arena writes, measured 1.3-1.8x faster than gathering
    // while laying out the options (x86-64, AVX2 backend).
    const std::span<const topology::BaseStationId> coverable =
        topo.coverable_stations(device);
    const auto stamp = static_cast<std::uint32_t>(j);
    std::size_t covering = 0;
    std::size_t reached = 0;
    std::size_t next_coverable = 0;
    std::size_t expected = check ? subset.coverage_offsets[i] : 0;
    for (std::size_t k = 0; k < all_stations; ++k) {
      if (channel[k] <= 0.0) continue;  // not covered / unusable link
      // σ is stored only for the servers coverable stations reach, and a
      // station off the list never covers the device wherever it moves.
      while (next_coverable < coverable.size() &&
             coverable[next_coverable].value < k) {
        ++next_coverable;
      }
      EOTORA_REQUIRE_MSG(next_coverable < coverable.size() &&
                             coverable[next_coverable].value == k,
                         "device " << i << " has h > 0 on station " << k
                                   << ", which can never cover it, at slot "
                                   << state.slot);
      if (check) {
        if (expected == subset.coverage_offsets[i + 1] ||
            subset.coverage[expected] != k) {
          return false;
        }
        ++expected;
      }
      covered_[covering++] = static_cast<std::uint32_t>(k);
      for (topology::ServerId s :
           topo.reachable_servers(topology::BaseStationId{k})) {
        const std::uint32_t local = subset.server_local[s.value];
        if (reach_stamp_[local] == stamp) continue;
        reach_stamp_[local] = stamp;
        reach_slot_[local] = static_cast<std::uint32_t>(reached);
        sigma_row_[reached++] = sigma_local_[local];
      }
    }
    if (check && expected != subset.coverage_offsets[i + 1]) return false;
    std::fill_n(task_cycles_row_.begin(), reached, state.task_cycles[i]);
    kernels::dispatch().sqrt_div(task_cycles_row_.data(), sigma_row_.data(),
                                 sqrt_compute_row_.data(), reached);
    for (std::size_t c = 0; c < covering; ++c) {
      const std::size_t k = covered_[c];
      const double p_access = std::sqrt(state.data_bits[i] / channel[k]);
      const double p_fronthaul =
          std::sqrt(state.data_bits[i] / tables.fronthaul_se[k]);
      const std::uint32_t bs = subset.station_local[k];
      for (topology::ServerId s :
           topo.reachable_servers(topology::BaseStationId{k})) {
        const std::uint32_t server = subset.server_local[s.value];
        Option opt;
        opt.bs = bs;
        opt.server = server;
        opt.r_compute = server;
        opt.r_access = static_cast<std::uint32_t>(servers + bs);
        opt.r_fronthaul = static_cast<std::uint32_t>(servers + stations + bs);
        opt.p_compute = sqrt_compute_row_[reach_slot_[server]];
        opt.p_access = p_access;
        opt.p_fronthaul = p_fronthaul;
        arena_.push_back(opt);
      }
    }
    EOTORA_REQUIRE_MSG(arena_.size() > offsets_.back(),
                       "device " << i
                                 << " has no feasible (base station, server) "
                                    "option at slot "
                                 << state.slot);
    offsets_.push_back(arena_.size());
  }

  generation_ = last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  return true;
}

std::span<const Option> WcgProblem::options(std::size_t device) const {
  EOTORA_REQUIRE(device + 1 < offsets_.size());
  return {arena_.data() + offsets_[device],
          offsets_[device + 1] - offsets_[device]};
}

double WcgProblem::weight(std::size_t resource) const {
  EOTORA_REQUIRE(resource < weights_.size());
  return weights_[resource];
}

void WcgProblem::set_frequencies(const Instance& instance,
                                 const Frequencies& frequencies) {
  const auto& topo = instance.topology();
  EOTORA_REQUIRE_MSG(frequencies.size() == topo.num_servers(),
                     "frequency entries=" << frequencies.size());
  for (std::size_t s = 0; s < server_ids_.size(); ++s) {
    const auto& server = topo.server(topology::ServerId{server_ids_[s]});
    const double ghz = frequencies[server_ids_[s]];
    // The tolerance of Instance::frequencies_feasible.
    EOTORA_REQUIRE_MSG(ghz >= server.freq_min_ghz - 1e-12 &&
                           ghz <= server.freq_max_ghz + 1e-12,
                       "frequencies outside [F^L, F^U]: server "
                           << server_ids_[s] << " at " << ghz << " GHz");
    weights_[s] = 1.0 / server.capacity_hz(ghz);
  }
}

Profile WcgProblem::random_profile(util::Rng& rng) const {
  Profile z(num_devices(), 0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = rng.index(offsets_[i + 1] - offsets_[i]);
  }
  return z;
}

Profile WcgProblem::warm_profile(const Assignment& carried,
                                 util::Rng& rng) const {
  Profile z = random_profile(rng);
  if (carried.bs_of.empty() && carried.server_of.empty()) return z;
  EOTORA_REQUIRE_MSG(carried.bs_of.size() == num_devices() &&
                         carried.server_of.size() == num_devices(),
                     "carried assignment entries=" << carried.bs_of.size()
                                                   << "/"
                                                   << carried.server_of.size()
                                                   << ", devices="
                                                   << num_devices());
  for (std::size_t i = 0; i < z.size(); ++i) {
    const std::size_t o =
        find_option(i, carried.bs_of[i], carried.server_of[i]);
    if (o < offsets_[i + 1] - offsets_[i]) z[i] = o;
  }
  return z;
}

std::size_t WcgProblem::find_option(std::size_t device, std::size_t bs,
                                    std::size_t server) const {
  const std::span<const Option> opts = options(device);
  std::size_t o = 0;
  while (o < opts.size() && (station_ids_[opts[o].bs] != bs ||
                             server_ids_[opts[o].server] != server)) {
    ++o;
  }
  return o;
}

void WcgProblem::loads_into(const Profile& z, std::vector<double>& p) const {
  EOTORA_REQUIRE(z.size() == num_devices());
  p.assign(weights_.size(), 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EOTORA_REQUIRE(z[i] < offsets_[i + 1] - offsets_[i]);
    const Option& opt = arena_[offsets_[i] + z[i]];
    p[opt.r_compute] += opt.p_compute;
    p[opt.r_access] += opt.p_access;
    p[opt.r_fronthaul] += opt.p_fronthaul;
  }
}

double WcgProblem::total_cost(const Profile& z) const {
  std::vector<double> scratch;
  return total_cost(z, scratch);
}

double WcgProblem::total_cost(const Profile& z,
                              std::vector<double>& scratch) const {
  loads_into(z, scratch);
  return kernels::weighted_sumsq(weights_.data(), scratch.data(),
                                 scratch.size());
}

double WcgProblem::player_cost(const Profile& z, std::size_t device) const {
  std::vector<double> scratch;
  return player_cost(z, device, scratch);
}

double WcgProblem::player_cost(const Profile& z, std::size_t device,
                               std::vector<double>& scratch) const {
  EOTORA_REQUIRE(device < num_devices());
  loads_into(z, scratch);
  const Option& opt = arena_[offsets_[device] + z[device]];
  return weights_[opt.r_compute] * opt.p_compute * scratch[opt.r_compute] +
         weights_[opt.r_access] * opt.p_access * scratch[opt.r_access] +
         weights_[opt.r_fronthaul] * opt.p_fronthaul *
             scratch[opt.r_fronthaul];
}

double WcgProblem::potential(const Profile& z) const {
  std::vector<double> loads_scratch;
  std::vector<double> squares_scratch;
  return potential(z, loads_scratch, squares_scratch);
}

double WcgProblem::potential(const Profile& z,
                             std::vector<double>& loads_scratch,
                             std::vector<double>& squares_scratch) const {
  loads_into(z, loads_scratch);
  squares_scratch.assign(weights_.size(), 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    const Option& opt = arena_[offsets_[i] + z[i]];
    squares_scratch[opt.r_compute] += opt.p_compute * opt.p_compute;
    squares_scratch[opt.r_access] += opt.p_access * opt.p_access;
    squares_scratch[opt.r_fronthaul] += opt.p_fronthaul * opt.p_fronthaul;
  }
  double phi = 0.0;
  for (std::size_t r = 0; r < weights_.size(); ++r) {
    phi += 0.5 * weights_[r] *
           (loads_scratch[r] * loads_scratch[r] + squares_scratch[r]);
  }
  return phi;
}

Assignment WcgProblem::to_assignment(const Profile& z) const {
  EOTORA_REQUIRE(z.size() == num_devices());
  Assignment a;
  a.bs_of.resize(z.size());
  a.server_of.resize(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    EOTORA_REQUIRE(z[i] < offsets_[i + 1] - offsets_[i]);
    const Option& opt = arena_[offsets_[i] + z[i]];
    a.bs_of[i] = station_ids_[opt.bs];
    a.server_of[i] = server_ids_[opt.server];
  }
  return a;
}

Profile WcgProblem::to_profile(const Assignment& assignment) const {
  EOTORA_REQUIRE(assignment.bs_of.size() == num_devices());
  EOTORA_REQUIRE(assignment.server_of.size() == num_devices());
  Profile z(num_devices(), 0);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = find_option(i, assignment.bs_of[i], assignment.server_of[i]);
    EOTORA_REQUIRE_MSG(z[i] < offsets_[i + 1] - offsets_[i],
                       "device " << i << " assignment (bs="
                                 << assignment.bs_of[i] << ", server="
                                 << assignment.server_of[i]
                                 << ") is not a feasible option");
  }
  return z;
}

double WcgProblem::singleton_lower_bound() const {
  double bound = 0.0;
  for (std::size_t i = 0; i < num_devices(); ++i) {
    double best = std::numeric_limits<double>::infinity();
    for (const Option& opt : options(i)) {
      const double own =
          weights_[opt.r_compute] * opt.p_compute * opt.p_compute +
          weights_[opt.r_access] * opt.p_access * opt.p_access +
          weights_[opt.r_fronthaul] * opt.p_fronthaul * opt.p_fronthaul;
      best = std::min(best, own);
    }
    bound += best;
  }
  return bound;
}

LoadTracker::LoadTracker(const WcgProblem& problem, Profile profile)
    : problem_(&problem), profile_(std::move(profile)) {
  EOTORA_REQUIRE(profile_.size() == problem.num_devices());
  loads_.assign(problem.num_resources(), 0.0);
  load_squares_.assign(problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < profile_.size(); ++i) {
    EOTORA_REQUIRE(profile_[i] < problem.options(i).size());
    add_device(i, problem.options(i)[profile_[i]], +1.0);
  }
}

void LoadTracker::add_device(std::size_t device, const Option& option,
                             double sign) {
  (void)device;
  loads_[option.r_compute] += sign * option.p_compute;
  loads_[option.r_access] += sign * option.p_access;
  loads_[option.r_fronthaul] += sign * option.p_fronthaul;
  load_squares_[option.r_compute] += sign * option.p_compute * option.p_compute;
  load_squares_[option.r_access] += sign * option.p_access * option.p_access;
  load_squares_[option.r_fronthaul] +=
      sign * option.p_fronthaul * option.p_fronthaul;
}

double LoadTracker::total_cost() const {
  return kernels::weighted_sumsq(problem_->weights().data(), loads_.data(),
                                 loads_.size());
}

double LoadTracker::player_cost(std::size_t device) const {
  const Option& opt = problem_->options(device)[profile_[device]];
  return problem_->weight(opt.r_compute) * opt.p_compute *
             loads_[opt.r_compute] +
         problem_->weight(opt.r_access) * opt.p_access * loads_[opt.r_access] +
         problem_->weight(opt.r_fronthaul) * opt.p_fronthaul *
             loads_[opt.r_fronthaul];
}

double LoadTracker::cost_if_moved(std::size_t device,
                                  std::size_t option_index) const {
  const std::span<const Option> opts = problem_->options(device);
  const Option& cur = opts[profile_[device]];
  const Option& alt = opts[option_index];
  // Load on each of alt's resources excluding the device itself, then add
  // the device back. The current option's contribution must be subtracted
  // only where the resources coincide.
  auto load_without = [&](std::size_t r, double p_cur_on_r) {
    return loads_[r] - p_cur_on_r;
  };
  const double l_compute = load_without(
      alt.r_compute, alt.r_compute == cur.r_compute ? cur.p_compute : 0.0);
  const double l_access = load_without(
      alt.r_access, alt.r_access == cur.r_access ? cur.p_access : 0.0);
  const double l_fronthaul =
      load_without(alt.r_fronthaul,
                   alt.r_fronthaul == cur.r_fronthaul ? cur.p_fronthaul : 0.0);
  return problem_->weight(alt.r_compute) * alt.p_compute *
             (l_compute + alt.p_compute) +
         problem_->weight(alt.r_access) * alt.p_access *
             (l_access + alt.p_access) +
         problem_->weight(alt.r_fronthaul) * alt.p_fronthaul *
             (l_fronthaul + alt.p_fronthaul);
}

double LoadTracker::delta_cost(std::size_t device,
                               std::size_t option_index) const {
  const std::span<const Option> opts = problem_->options(device);
  if (option_index == profile_[device]) return 0.0;
  const Option& cur = opts[profile_[device]];
  const Option& alt = opts[option_index];
  // Only the changed resources contribute:
  //   leaving r:  m_r ((P_r - p)² - P_r²) = m_r (p - 2 P_r) p
  //   joining r:  m_r ((P_r + p)² - P_r²) = m_r (2 P_r + p) p
  // Shared categories (same server / same base station) cancel exactly and
  // are skipped, matching move()'s update rule.
  double delta = 0.0;
  auto leave = [&](std::size_t r, double p) {
    delta += problem_->weight(r) * (p - 2.0 * loads_[r]) * p;
  };
  auto join = [&](std::size_t r, double p) {
    delta += problem_->weight(r) * (2.0 * loads_[r] + p) * p;
  };
  if (cur.r_compute != alt.r_compute) {
    leave(cur.r_compute, cur.p_compute);
    join(alt.r_compute, alt.p_compute);
  }
  if (cur.r_access != alt.r_access) {
    leave(cur.r_access, cur.p_access);
    join(alt.r_access, alt.p_access);
  }
  if (cur.r_fronthaul != alt.r_fronthaul) {
    leave(cur.r_fronthaul, cur.p_fronthaul);
    join(alt.r_fronthaul, alt.p_fronthaul);
  }
  return delta;
}

double LoadTracker::total_cost_if_moved(std::size_t device,
                                        std::size_t option_index) const {
  const std::span<const Option> opts = problem_->options(device);
  const Option& cur = opts[profile_[device]];
  const Option& alt = opts[option_index];
  // Adjusted loads on the at most six changed resources. Each changed
  // resource takes exactly one subtract or add — the same single operation
  // move() would apply — so the summation below reproduces the bits of
  // { move(); total_cost(); } without mutating the tracker.
  std::size_t changed_r[6];
  double changed_load[6];
  std::size_t m = 0;
  if (option_index != profile_[device]) {
    if (cur.r_compute != alt.r_compute) {
      changed_r[m] = cur.r_compute;
      changed_load[m++] = loads_[cur.r_compute] - cur.p_compute;
      changed_r[m] = alt.r_compute;
      changed_load[m++] = loads_[alt.r_compute] + alt.p_compute;
    }
    if (cur.r_access != alt.r_access) {
      changed_r[m] = cur.r_access;
      changed_load[m++] = loads_[cur.r_access] - cur.p_access;
      changed_r[m] = alt.r_access;
      changed_load[m++] = loads_[alt.r_access] + alt.p_access;
    }
    if (cur.r_fronthaul != alt.r_fronthaul) {
      changed_r[m] = cur.r_fronthaul;
      changed_load[m++] = loads_[cur.r_fronthaul] - cur.p_fronthaul;
      changed_r[m] = alt.r_fronthaul;
      changed_load[m++] = loads_[alt.r_fronthaul] + alt.p_fronthaul;
    }
  }
  double cost = 0.0;
  for (std::size_t r = 0; r < loads_.size(); ++r) {
    double load = loads_[r];
    for (std::size_t t = 0; t < m; ++t) {
      if (changed_r[t] == r) {
        load = changed_load[t];
        break;
      }
    }
    cost += problem_->weight(r) * load * load;
  }
  return cost;
}

LoadTracker::BestResponse LoadTracker::best_response(
    std::size_t device) const {
  const std::span<const Option> opts = problem_->options(device);
  const double current = player_cost(device);
  BestResponse best{profile_[device], current, current};
  for (std::size_t o = 0; o < opts.size(); ++o) {
    if (o == profile_[device]) continue;
    const double c = cost_if_moved(device, o);
    if (c < best.cost) {
      best.cost = c;
      best.option_index = o;
    }
  }
  return best;
}

void LoadTracker::move(std::size_t device, std::size_t option_index) {
  EOTORA_REQUIRE(device < profile_.size());
  const std::span<const Option> opts = problem_->options(device);
  EOTORA_REQUIRE(option_index < opts.size());
  if (option_index == profile_[device]) return;
  const Option& cur = opts[profile_[device]];
  const Option& nxt = opts[option_index];
  // Per-category update with coincidence skip: within one device's options,
  // equal resource index implies equal p (p depends only on the device plus
  // the base station or server), so shared categories cancel exactly and
  // skipping them keeps those loads' bits untouched.
  if (cur.r_compute != nxt.r_compute) {
    loads_[cur.r_compute] -= cur.p_compute;
    load_squares_[cur.r_compute] -= cur.p_compute * cur.p_compute;
    loads_[nxt.r_compute] += nxt.p_compute;
    load_squares_[nxt.r_compute] += nxt.p_compute * nxt.p_compute;
  }
  if (cur.r_access != nxt.r_access) {
    loads_[cur.r_access] -= cur.p_access;
    load_squares_[cur.r_access] -= cur.p_access * cur.p_access;
    loads_[nxt.r_access] += nxt.p_access;
    load_squares_[nxt.r_access] += nxt.p_access * nxt.p_access;
  }
  if (cur.r_fronthaul != nxt.r_fronthaul) {
    loads_[cur.r_fronthaul] -= cur.p_fronthaul;
    load_squares_[cur.r_fronthaul] -= cur.p_fronthaul * cur.p_fronthaul;
    loads_[nxt.r_fronthaul] += nxt.p_fronthaul;
    load_squares_[nxt.r_fronthaul] += nxt.p_fronthaul * nxt.p_fronthaul;
  }
  profile_[device] = option_index;
}

double LoadTracker::potential() const {
  double phi = 0.0;
  for (std::size_t r = 0; r < loads_.size(); ++r) {
    phi += 0.5 * problem_->weight(r) *
           (loads_[r] * loads_[r] + load_squares_[r]);
  }
  return phi;
}

BestResponseEngine::BestResponseEngine(LoadTracker& tracker) {
  bind(*tracker.problem_);
  reset(tracker);
}

void BestResponseEngine::bind(const WcgProblem& problem) {
  EOTORA_REQUIRE_MSG(problem.generation() != 0,
                     "BestResponseEngine::bind on a problem with no build");
  problem_ = &problem;
  generation_ = problem.generation();
  tracker_ = nullptr;
  num_servers_ = problem.num_servers();
  num_base_stations_ = problem.num_base_stations();
  const std::size_t devices = problem.num_devices();
  cached_.resize(devices);
  server_of_entry_.resize(problem.num_options());
  cur_server_.resize(devices);
  cur_bs_.resize(devices);

  // (device, base station) groups: the arena enumerates options base
  // station-major within each device, so each group is a contiguous run of
  // equal r_access and shares one access and one fronthaul term.
  groups_.clear();
  device_group_begin_.assign(devices + 1, 0);
  for (std::size_t j = 0; j < devices; ++j) {
    device_group_begin_[j] = static_cast<std::uint32_t>(groups_.size());
    const std::size_t lo = problem.arena_offset(j);
    const std::size_t hi = problem.arena_offset(j + 1);
    std::size_t a = lo;
    while (a < hi) {
      std::size_t b = a + 1;
      while (b < hi &&
             problem.option_at(b).r_access == problem.option_at(a).r_access) {
        ++b;
      }
      groups_.push_back({static_cast<std::uint32_t>(a),
                         static_cast<std::uint32_t>(b),
                         static_cast<std::uint32_t>(j),
                         problem.option_at(a).bs});
      a = b;
    }
  }
  device_group_begin_[devices] = static_cast<std::uint32_t>(groups_.size());

  // Per-pair p tables, and fl(w·p) for the access and fronthaul resources,
  // whose weights no frequency update moves (reset() derives the compute
  // one). fl(w·p) is rounded first exactly as in cost_if_moved's
  // weight·p·(load+p), so the cached terms reproduce its bits.
  pc_.resize(devices * num_servers_);
  wpc_.resize(devices * num_servers_);
  tc_.resize(devices * num_servers_);
  pa_.resize(devices * num_base_stations_);
  wpa_.resize(devices * num_base_stations_);
  ta_.resize(devices * num_base_stations_);
  pf_.resize(devices * num_base_stations_);
  wpf_.resize(devices * num_base_stations_);
  tf_.resize(devices * num_base_stations_);
  // The server sweep sets, counted in the same pass: the distinct servers
  // of device j are the ones whose stamp it takes.
  server_stamp_.assign(num_servers_, kUnreached);
  server_device_offsets_.assign(num_servers_ + 1, 0);
  for (std::size_t j = 0; j < devices; ++j) {
    const auto stamp = static_cast<std::uint32_t>(j);
    for (std::size_t a = problem.arena_offset(j);
         a < problem.arena_offset(j + 1); ++a) {
      const Option& opt = problem.option_at(a);
      server_of_entry_[a] = opt.server;
      pc_[j * num_servers_ + opt.server] = opt.p_compute;
      pa_[j * num_base_stations_ + opt.bs] = opt.p_access;
      wpa_[j * num_base_stations_ + opt.bs] =
          problem.weight(opt.r_access) * opt.p_access;
      pf_[j * num_base_stations_ + opt.bs] = opt.p_fronthaul;
      wpf_[j * num_base_stations_ + opt.bs] =
          problem.weight(opt.r_fronthaul) * opt.p_fronthaul;
      if (server_stamp_[opt.server] != stamp) {
        server_stamp_[opt.server] = stamp;
        ++server_device_offsets_[opt.server + 1];
      }
    }
  }
  for (std::size_t s = 0; s < num_servers_; ++s) {
    server_device_offsets_[s + 1] += server_device_offsets_[s];
  }
  // Fill in ascending device order, the offsets serving as cursors, then
  // shift them back down.
  server_device_entries_.resize(server_device_offsets_[num_servers_]);
  server_stamp_.assign(num_servers_, kUnreached);
  for (std::size_t j = 0; j < devices; ++j) {
    const auto stamp = static_cast<std::uint32_t>(j);
    for (std::size_t a = problem.arena_offset(j);
         a < problem.arena_offset(j + 1); ++a) {
      const std::uint32_t s = server_of_entry_[a];
      if (server_stamp_[s] == stamp) continue;
      server_stamp_[s] = stamp;
      server_device_entries_[server_device_offsets_[s]++] = stamp;
    }
  }
  for (std::size_t s = num_servers_; s > 0; --s) {
    server_device_offsets_[s] = server_device_offsets_[s - 1];
  }
  server_device_offsets_[0] = 0;
  // The station sweep sets: one group per (device, base station) pair.
  bs_device_offsets_.assign(num_base_stations_ + 1, 0);
  for (const kernels::ScanGroup& grp : groups_) {
    ++bs_device_offsets_[grp.bs + 1];
  }
  for (std::size_t k = 0; k < num_base_stations_; ++k) {
    bs_device_offsets_[k + 1] += bs_device_offsets_[k];
  }
  bs_device_entries_.resize(groups_.size());
  for (const kernels::ScanGroup& grp : groups_) {
    bs_device_entries_[bs_device_offsets_[grp.bs]++] = grp.device;
  }
  for (std::size_t k = num_base_stations_; k > 0; --k) {
    bs_device_offsets_[k] = bs_device_offsets_[k - 1];
  }
  bs_device_offsets_[0] = 0;
}

void BestResponseEngine::reset(LoadTracker& tracker) {
  EOTORA_REQUIRE_MSG(problem_ != nullptr && tracker.problem_ == problem_,
                     "BestResponseEngine::reset with a tracker over a "
                     "problem the engine is not bound to");
  EOTORA_REQUIRE_MSG(problem_->generation() == generation_,
                     "BestResponseEngine::reset on a problem rebuilt since "
                     "bind (generation "
                         << generation_ << ", now "
                         << problem_->generation() << ")");
  tracker_ = &tracker;
  term_refreshes_ = 0;
  const std::size_t devices = problem_->num_devices();
  for (std::size_t j = 0; j < devices; ++j) {
    const Option& cur =
        problem_->option_at(problem_->arena_offset(j) + tracker.profile()[j]);
    cur_server_[j] = cur.server;
    cur_bs_[j] = cur.bs;
  }
  // Every distinct term once: each (device, server) pair sits in exactly
  // one server sweep set, and each (device, base station) pair is exactly
  // one group. The compute w·p is re-derived at the current weights first.
  for (std::size_t s = 0; s < num_servers_; ++s) {
    const double w = problem_->weight(s);
    for (std::size_t e = server_device_offsets_[s];
         e < server_device_offsets_[s + 1]; ++e) {
      const std::size_t j = server_device_entries_[e];
      wpc_[j * num_servers_ + s] = w * pc_[j * num_servers_ + s];
      refresh_compute_term(j, s);
    }
  }
  for (const kernels::ScanGroup& grp : groups_) {
    refresh_access_term(grp.device, grp.bs);
    refresh_fronthaul_term(grp.device, grp.bs);
  }
}

void BestResponseEngine::refresh_compute_term(std::size_t device,
                                              std::size_t server) {
  const std::size_t i = device * num_servers_ + server;
  const double p = pc_[i];
  const double l =
      tracker_->loads_[server] - (cur_server_[device] == server ? p : 0.0);
  tc_[i] = wpc_[i] * (l + p);
}

void BestResponseEngine::refresh_access_term(std::size_t device,
                                             std::size_t bs) {
  const std::size_t i = device * num_base_stations_ + bs;
  const double p = pa_[i];
  const double l = tracker_->loads_[num_servers_ + bs] -
                   (cur_bs_[device] == bs ? p : 0.0);
  ta_[i] = wpa_[i] * (l + p);
}

void BestResponseEngine::refresh_fronthaul_term(std::size_t device,
                                                std::size_t bs) {
  const std::size_t i = device * num_base_stations_ + bs;
  const double p = pf_[i];
  const double l = tracker_->loads_[num_servers_ + num_base_stations_ + bs] -
                   (cur_bs_[device] == bs ? p : 0.0);
  tf_[i] = wpf_[i] * (l + p);
}

const LoadTracker::BestResponse& BestResponseEngine::best_response(
    std::size_t device) {
  const std::size_t base = problem_->arena_offset(device);
  const std::size_t cur = tracker_->profile()[device];
  // Mirror LoadTracker::best_response exactly: same initial champion, same
  // scan order, same strict-< tie handling. Each candidate cost is the same
  // left-associated (t_compute + t_access) + t_fronthaul sum cost_if_moved
  // computes, assembled from the cached terms — identical bits, two
  // additions instead of the full nine-flop evaluation.
  const double current = tracker_->player_cost(device);
  LoadTracker::BestResponse best{cur, current, current};
  const std::uint32_t g_begin = device_group_begin_[device];
  const kernels::ScanHit hit = kernels::best_response_scan(
      tc_.data() + device * num_servers_, server_of_entry_.data(),
      groups_.data() + g_begin, device_group_begin_[device + 1] - g_begin,
      ta_.data() + device * num_base_stations_,
      tf_.data() + device * num_base_stations_,
      static_cast<std::uint32_t>(base + cur), current);
  if (hit.entry != kernels::kNoEntry) {
    best.option_index = hit.entry - base;
    best.cost = hit.cost;
  }
  cached_[device] = best;
  return cached_[device];
}

void BestResponseEngine::move(std::size_t device, std::size_t option_index) {
  const std::span<const Option> opts = problem_->options(device);
  if (option_index == tracker_->profile()[device]) return;
  const Option& cur = opts[tracker_->profile()[device]];
  const Option& nxt = opts[option_index];
  // The at most six resources whose loads change, mirroring the tracker's
  // coincidence skip: a category shared by the old and new option keeps its
  // load bits AND its exclusion relevance, so its terms stay valid.
  std::size_t changed[6];
  std::size_t m = 0;
  if (cur.r_compute != nxt.r_compute) {
    changed[m++] = cur.r_compute;
    changed[m++] = nxt.r_compute;
  }
  if (cur.r_access != nxt.r_access) {
    changed[m++] = cur.r_access;
    changed[m++] = nxt.r_access;
  }
  if (cur.r_fronthaul != nxt.r_fronthaul) {
    changed[m++] = cur.r_fronthaul;
    changed[m++] = nxt.r_fronthaul;
  }

  tracker_->move(device, option_index);
  // New exclusion context first: the mover sits in the sweep sets of every
  // changed resource, so the sweeps below rebuild its own terms against its
  // new current option along with everyone else's.
  cur_server_[device] = nxt.server;
  cur_bs_[device] = nxt.bs;
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t r = changed[t];
    if (r < num_servers_) {
      term_refreshes_ +=
          server_device_offsets_[r + 1] - server_device_offsets_[r];
      for (std::size_t e = server_device_offsets_[r];
           e < server_device_offsets_[r + 1]; ++e) {
        refresh_compute_term(server_device_entries_[e], r);
      }
    } else if (r < num_servers_ + num_base_stations_) {
      const std::size_t k = r - num_servers_;
      term_refreshes_ += bs_device_offsets_[k + 1] - bs_device_offsets_[k];
      for (std::size_t e = bs_device_offsets_[k]; e < bs_device_offsets_[k + 1];
           ++e) {
        refresh_access_term(bs_device_entries_[e], k);
      }
    } else {
      const std::size_t k = r - num_servers_ - num_base_stations_;
      term_refreshes_ += bs_device_offsets_[k + 1] - bs_device_offsets_[k];
      for (std::size_t e = bs_device_offsets_[k]; e < bs_device_offsets_[k + 1];
           ++e) {
        refresh_fronthaul_term(bs_device_entries_[e], k);
      }
    }
  }
}

}  // namespace eotora::core
