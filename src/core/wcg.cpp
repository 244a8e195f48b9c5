#include "core/wcg.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/counters.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::core {

namespace {
constexpr std::uint32_t kUnreached = 0xffffffffu;

// The last generation a WcgProblem build took (see generation()).
std::atomic<std::uint64_t> last_generation{0};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

void StationTables::refresh(const Instance& instance) {
  if (stamp == instance.stamp()) {
    ++counters::active().arena_precompute_reuses;
    return;
  }
  const auto& topo = instance.topology();
  const std::size_t stations = topo.num_base_stations();
  inv_access_bw.resize(stations);
  inv_fronthaul_bw.resize(stations);
  fronthaul_se.resize(stations);
  for (std::size_t k = 0; k < stations; ++k) {
    const auto& bs = topo.base_station(topology::BaseStationId{k});
    inv_access_bw[k] = 1.0 / bs.access_bandwidth_hz;
    inv_fronthaul_bw[k] = 1.0 / bs.fronthaul_bandwidth_hz;
    fronthaul_se[k] = bs.fronthaul_spectral_efficiency;
  }
  stamp = instance.stamp();
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
  tables_.refresh(instance);
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
  build(instance, state, frequencies, all, tables_);
}

namespace detail {
void reject_channel_gain(double h, std::size_t device, std::size_t station,
                         std::size_t slot) {
  std::ostringstream message;
  message << "device " << device << " has h=" << h << " on station "
          << station << " at slot " << slot;
  util::throw_precondition("std::isfinite(h)", __FILE__, __LINE__,
                           message.str());
}
}  // namespace detail

bool WcgProblem::same_layout(const Instance& instance,
                             const WcgSubset& subset) const {
  return instance_stamp_ == instance.stamp() &&
         std::ranges::equal(subset.devices, device_ids_) &&
         std::ranges::equal(subset.stations, station_ids_) &&
         std::ranges::equal(subset.servers, server_ids_);
}

void WcgProblem::lay_out(const Instance& instance, const WcgSubset& subset) {
  const auto& topo = instance.topology();
  instance_stamp_ = instance.stamp();
  device_ids_.assign(subset.devices.begin(), subset.devices.end());
  station_ids_.assign(subset.stations.begin(), subset.stations.end());
  server_ids_.assign(subset.servers.begin(), subset.servers.end());
  // A row has room for an option on every server each coverable station
  // reaches, so a device whose coverage moves rewrites only its own row.
  // Every row's stations and servers must map into the subset: rows and
  // σ gathers read their local ids unchecked.
  const auto listed = [](std::span<const std::uint32_t> local,
                         std::span<const std::uint32_t> ids, std::size_t id) {
    return id < local.size() && local[id] < ids.size() && ids[local[id]] == id;
  };
  row_offsets_.assign(1, 0);
  coverable_offsets_.assign(1, 0);
  for (const std::uint32_t i : device_ids_) {
    const topology::DeviceId device{i};
    const std::span<const topology::BaseStationId> coverable =
        topo.coverable_stations(device);
    std::size_t capacity = 0;
    for (const topology::BaseStationId k : coverable) {
      EOTORA_REQUIRE_MSG(listed(subset.station_local, subset.stations, k.value),
                         "device " << i << ": coverable station " << k.value
                                   << " is outside the subset");
      capacity += topo.reachable_servers(k).size();
    }
    for (const topology::ServerId s : topo.reachable_servers(device)) {
      EOTORA_REQUIRE_MSG(listed(subset.server_local, subset.servers, s.value),
                         "device " << i << ": reachable server " << s.value
                                   << " is outside the subset");
    }
    row_offsets_.push_back(row_offsets_.back() + capacity);
    coverable_offsets_.push_back(coverable_offsets_.back() + coverable.size());
  }
  const std::size_t devices = device_ids_.size();
  arena_.resize(row_offsets_.back());
  counts_.assign(devices, 0);
  live_options_ = 0;
  key_f_.resize(devices);
  key_d_.resize(devices);
  key_h_.resize(coverable_offsets_.back());
}

bool WcgProblem::same_inputs(
    std::size_t j, double f, double d, const std::vector<double>& channel,
    std::span<const topology::BaseStationId> coverable) const {
  // f first: it differs every slot in a batch drain, so there the check
  // ends at its first compare.
  if (!same_bits(key_f_[j], f) || !same_bits(key_d_[j], d)) return false;
  const double* h = key_h_.data() + coverable_offsets_[j];
  for (std::size_t c = 0; c < coverable.size(); ++c) {
    if (!same_bits(h[c], channel[coverable[c].value])) return false;
  }
  return true;
}

void WcgProblem::derive_device(const Instance& instance, const SlotState& state,
                               const WcgSubset& subset,
                               const StationTables& tables, std::size_t j,
                               std::size_t covering) {
  const auto& topo = instance.topology();
  const std::size_t servers = server_ids_.size();
  const std::size_t stations = station_ids_.size();
  const std::size_t i = device_ids_[j];
  const std::vector<double>& channel = state.channel[i];
  const double f = state.task_cycles[i];
  const double d = state.data_bits[i];
  // σ_{i,s} of the device's reachable servers, by local server.
  const topology::DeviceId device{i};
  const std::span<const topology::ServerId> reach =
      topo.reachable_servers(device);
  const std::span<const double> sigma = instance.suitability_row(i);
  for (std::size_t p = 0; p < reach.size(); ++p) {
    sigma_local_[subset.server_local[reach[p].value]] = sigma[p];
  }
  // Gather σ_{i,s} of every server a covering station reaches into a
  // compact row, once per server however many stations reach it;
  // sqrt(f_i / σ_{i,s}) is then batched over that row: the same operands
  // and rounding as the per-option chain, on every kernel backend.
  // Gathering in its own pass, ahead of the arena writes, measured
  // 1.3-1.8x faster than gathering while laying out the options (x86-64,
  // AVX2 backend).
  const auto stamp = static_cast<std::uint32_t>(j);
  std::size_t reached = 0;
  for (std::size_t c = 0; c < covering; ++c) {
    for (topology::ServerId s :
         topo.reachable_servers(topology::BaseStationId{covered_[c]})) {
      const std::uint32_t local = subset.server_local[s.value];
      if (reach_stamp_[local] == stamp) continue;
      reach_stamp_[local] = stamp;
      reach_slot_[local] = static_cast<std::uint32_t>(reached);
      sigma_row_[reached++] = sigma_local_[local];
    }
  }
  std::fill_n(task_cycles_row_.begin(), reached, f);
  kernels::dispatch().sqrt_div(task_cycles_row_.data(), sigma_row_.data(),
                               sqrt_compute_row_.data(), reached);
  Option* row = arena_.data() + row_offsets_[j];
  std::size_t count = 0;
  for (std::size_t c = 0; c < covering; ++c) {
    const std::size_t k = covered_[c];
    const double p_access = std::sqrt(d / channel[k]);
    const double p_fronthaul = std::sqrt(d / tables.fronthaul_se[k]);
    const std::uint32_t bs = subset.station_local[k];
    for (topology::ServerId s :
         topo.reachable_servers(topology::BaseStationId{k})) {
      const std::uint32_t server = subset.server_local[s.value];
      Option& opt = row[count++];
      opt.bs = bs;
      opt.server = server;
      opt.r_compute = server;
      opt.r_access = static_cast<std::uint32_t>(servers + bs);
      opt.r_fronthaul = static_cast<std::uint32_t>(servers + stations + bs);
      opt.p_compute = sqrt_compute_row_[reach_slot_[server]];
      opt.p_access = p_access;
      opt.p_fronthaul = p_fronthaul;
    }
  }
  EOTORA_REQUIRE_MSG(count > 0, "device "
                                    << i
                                    << " has no feasible (base station, "
                                       "server) option at slot "
                                    << state.slot);
  live_options_ = live_options_ - counts_[j] + count;
  counts_[j] = static_cast<std::uint32_t>(count);
  key_f_[j] = f;
  key_d_[j] = d;
  const std::span<const topology::BaseStationId> coverable =
      topo.coverable_stations(device);
  double* h = key_h_.data() + coverable_offsets_[j];
  for (std::size_t c = 0; c < coverable.size(); ++c) {
    h[c] = channel[coverable[c].value];
  }
}

void WcgProblem::build(const Instance& instance, const SlotState& state,
                       const Frequencies& frequencies, const WcgSubset& subset,
                       const StationTables& tables) {
  const auto& topo = instance.topology();
  const std::size_t all_devices = topo.num_devices();
  const std::size_t all_stations = topo.num_base_stations();
  const std::size_t servers = subset.servers.size();
  const std::size_t stations = subset.stations.size();
  // Until this build succeeds, no engine binds to the problem, and rows
  // and keys count as forgotten: a throwing build may leave rows half
  // rewritten, so the build after it is full.
  const std::uint64_t previous = generation_;
  const bool laid_out = layout_valid_;
  generation_ = 0;
  layout_valid_ = false;

  EOTORA_REQUIRE_MSG(servers + 2 * stations <=
                         std::numeric_limits<std::uint32_t>::max(),
                     "resources=" << servers + 2 * stations);
  EOTORA_REQUIRE_MSG(state.task_cycles.size() == all_devices,
                     "task_cycles entries=" << state.task_cycles.size());
  EOTORA_REQUIRE_MSG(state.data_bits.size() == all_devices,
                     "data_bits entries=" << state.data_bits.size());
  EOTORA_REQUIRE_MSG(state.channel.size() == all_devices,
                     "channel rows=" << state.channel.size());
  EOTORA_REQUIRE_MSG(tables.stamp == instance.stamp(),
                     "station tables of instance " << tables.stamp
                                                   << ", not of instance "
                                                   << instance.stamp());

  // Rows and keys survive only into a build over the layout they were
  // derived for.
  const bool patch = laid_out && same_layout(instance, subset);
  if (!patch) lay_out(instance, subset);
  weights_.assign(servers + 2 * stations, 0.0);
  set_frequencies(instance, frequencies);
  for (std::size_t k = 0; k < stations; ++k) {
    weights_[servers + k] = tables.inv_access_bw[subset.stations[k]];
    weights_[servers + stations + k] =
        tables.inv_fronthaul_bw[subset.stations[k]];
  }

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
  rederived_.clear();
  for (std::size_t j = 0; j < subset.devices.size(); ++j) {
    const std::size_t i = subset.devices[j];
    const std::vector<double>& channel = state.channel[i];
    EOTORA_REQUIRE(channel.size() == all_stations);
    EOTORA_REQUIRE_MSG(state.task_cycles[i] > 0.0,
                       "device " << i << " f=" << state.task_cycles[i]);
    EOTORA_REQUIRE_MSG(state.data_bits[i] > 0.0,
                       "device " << i << " d=" << state.data_bits[i]);
    // One pass over the dense row finds the covering stations and checks
    // them against the coverable list.
    const std::span<const topology::BaseStationId> coverable =
        topo.coverable_stations(topology::DeviceId{i});
    std::size_t covering = 0;
    std::size_t next_coverable = 0;
    for (std::size_t k = 0; k < all_stations; ++k) {
      if (!covers(channel[k], i, k, state.slot)) continue;
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
      covered_[covering++] = static_cast<std::uint32_t>(k);
    }
    if (patch && same_inputs(j, state.task_cycles[i], state.data_bits[i],
                             channel, coverable)) {
      continue;
    }
    derive_device(instance, state, subset, tables, j, covering);
    rederived_.push_back(static_cast<std::uint32_t>(j));
  }

  counters::SolverCounters& work = counters::active();
  work.arena_device_builds += rederived_.size();
  work.arena_device_reuses += subset.devices.size() - rederived_.size();
  layout_valid_ = true;
  if (patch && rederived_.empty()) {
    // Every row is the previous build's: so are its changes since the
    // generation it patched, and engines bound to it stay bound.
    generation_ = previous;
    return;
  }
  patched_from_ = patch ? previous : 0;
  changed_.swap(rederived_);
  generation_ = last_generation.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::span<const Option> WcgProblem::options(std::size_t device) const {
  EOTORA_REQUIRE(device < counts_.size());
  return {arena_.data() + row_offsets_[device], counts_[device]};
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
    z[i] = rng.index(counts_[i]);
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
    EOTORA_REQUIRE(z[i] < counts_[i]);
    const Option& opt = arena_[row_offsets_[i] + z[i]];
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

Assignment WcgProblem::to_assignment(const Profile& z) const {
  EOTORA_REQUIRE(z.size() == num_devices());
  Assignment a;
  a.bs_of.resize(z.size());
  a.server_of.resize(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    EOTORA_REQUIRE(z[i] < counts_[i]);
    const Option& opt = arena_[row_offsets_[i] + z[i]];
    a.bs_of[i] = station_ids_[opt.bs];
    a.server_of[i] = server_ids_[opt.server];
  }
  return a;
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
  for (std::size_t i = 0; i < profile_.size(); ++i) {
    EOTORA_REQUIRE(profile_[i] < problem.options(i).size());
    const Option& option = problem.options(i)[profile_[i]];
    loads_[option.r_compute] += option.p_compute;
    loads_[option.r_access] += option.p_access;
    loads_[option.r_fronthaul] += option.p_fronthaul;
  }
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
    loads_[nxt.r_compute] += nxt.p_compute;
  }
  if (cur.r_access != nxt.r_access) {
    loads_[cur.r_access] -= cur.p_access;
    loads_[nxt.r_access] += nxt.p_access;
  }
  if (cur.r_fronthaul != nxt.r_fronthaul) {
    loads_[cur.r_fronthaul] -= cur.p_fronthaul;
    loads_[nxt.r_fronthaul] += nxt.p_fronthaul;
  }
  profile_[device] = option_index;
}

void BestResponseEngine::SweepSets::clear(std::size_t num_devices,
                                          std::size_t num_resources) {
  devices = num_devices;
  members.resize(num_resources * num_devices);
  count.assign(num_resources, 0);
}

void BestResponseEngine::SweepSets::drop(const std::vector<char>& leaving) {
  for (std::size_t r = 0; r < count.size(); ++r) {
    std::uint32_t* set = members.data() + r * devices;
    std::uint32_t kept = 0;
    for (std::uint32_t e = 0; e < count[r]; ++e) {
      if (leaving[set[e]] == 0) set[kept++] = set[e];
    }
    count[r] = kept;
  }
}

BestResponseEngine::BestResponseEngine(LoadTracker& tracker) {
  bind(*tracker.problem_);
  reset(tracker);
}

void BestResponseEngine::bind(const WcgProblem& problem) {
  EOTORA_REQUIRE_MSG(problem.generation() != 0,
                     "BestResponseEngine::bind on a problem with no build");
  // The tables hold the build this engine is bound to; a build that patched
  // exactly that one changed only the devices it lists.
  const bool patch = problem_ == &problem && generation_ != 0 &&
                     problem.patched_from() == generation_;
  problem_ = &problem;
  generation_ = problem.generation();
  tracker_ = nullptr;
  // Stamps are device indices, so a previous bind's must not survive: a
  // re-derived device would skip the servers it had then.
  server_stamp_.assign(problem.num_servers(), kUnreached);
  if (patch) {
    const std::span<const std::uint32_t> changed = problem.changed_devices();
    for (const std::uint32_t j : changed) leaving_[j] = 1;
    server_sets_.drop(leaving_);
    bs_sets_.drop(leaving_);
    for (const std::uint32_t j : changed) {
      leaving_[j] = 0;
      bind_device(j);
    }
    return;
  }
  num_servers_ = problem.num_servers();
  num_base_stations_ = problem.num_base_stations();
  const std::size_t devices = problem.num_devices();
  cached_.resize(devices);
  cur_server_.resize(devices);
  cur_bs_.resize(devices);
  groups_.resize(problem.coverable_offset(devices));
  group_count_.assign(devices, 0);
  server_of_entry_.resize(problem.arena_offset(devices));
  pc_.resize(devices * num_servers_);
  wpc_.resize(devices * num_servers_);
  tc_.resize(devices * num_servers_);
  pa_.resize(devices * num_base_stations_);
  wpa_.resize(devices * num_base_stations_);
  ta_.resize(devices * num_base_stations_);
  pf_.resize(devices * num_base_stations_);
  wpf_.resize(devices * num_base_stations_);
  tf_.resize(devices * num_base_stations_);
  server_sets_.clear(devices, num_servers_);
  bs_sets_.clear(devices, num_base_stations_);
  leaving_.assign(devices, 0);
  for (std::size_t j = 0; j < devices; ++j) bind_device(j);
}

void BestResponseEngine::bind_device(std::size_t j) {
  const std::span<const Option> opts = problem_->options(j);
  const std::size_t base = problem_->arena_offset(j);
  // (device, base station) groups: the row enumerates options base
  // station-major, so each group is a contiguous run of equal r_access and
  // shares one access and one fronthaul term.
  const std::size_t first = problem_->coverable_offset(j);
  std::size_t g = first;
  std::size_t a = 0;
  while (a < opts.size()) {
    std::size_t b = a + 1;
    while (b < opts.size() && opts[b].r_access == opts[a].r_access) ++b;
    groups_[g++] = {static_cast<std::uint32_t>(base + a),
                    static_cast<std::uint32_t>(base + b), opts[a].bs};
    bs_sets_.join(j, opts[a].bs);
    a = b;
  }
  group_count_[j] = static_cast<std::uint32_t>(g - first);
  // Per-pair p tables, and fl(w·p) for the access and fronthaul resources,
  // whose weights no frequency update moves (reset() derives the compute
  // one). fl(w·p) is rounded first exactly as in cost_if_moved's
  // weight·p·(load+p), so the cached terms reproduce its bits.
  for (std::size_t o = 0; o < opts.size(); ++o) {
    const Option& opt = opts[o];
    server_of_entry_[base + o] = opt.server;
    pc_[j * num_servers_ + opt.server] = opt.p_compute;
    pa_[j * num_base_stations_ + opt.bs] = opt.p_access;
    wpa_[j * num_base_stations_ + opt.bs] =
        problem_->weight(opt.r_access) * opt.p_access;
    pf_[j * num_base_stations_ + opt.bs] = opt.p_fronthaul;
    wpf_[j * num_base_stations_ + opt.bs] =
        problem_->weight(opt.r_fronthaul) * opt.p_fronthaul;
    if (server_stamp_[opt.server] != j) {
      server_stamp_[opt.server] = static_cast<std::uint32_t>(j);
      server_sets_.join(j, opt.server);
    }
  }
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
  // one server sweep set, and each (device, base station) pair in exactly
  // one station sweep set. The compute w·p is re-derived at the current
  // weights first.
  for (std::size_t s = 0; s < num_servers_; ++s) {
    const double w = problem_->weight(s);
    for (const std::uint32_t j : server_sets_.of(s)) {
      wpc_[j * num_servers_ + s] = w * pc_[j * num_servers_ + s];
      refresh_compute_term(j, s);
    }
  }
  for (std::size_t k = 0; k < num_base_stations_; ++k) {
    for (const std::uint32_t j : bs_sets_.of(k)) {
      refresh_access_term(j, k);
      refresh_fronthaul_term(j, k);
    }
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
  const kernels::ScanHit hit = kernels::best_response_scan(
      tc_.data() + device * num_servers_, server_of_entry_.data(),
      groups_.data() + problem_->coverable_offset(device),
      group_count_[device],
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
      const std::span<const std::uint32_t> sweep = server_sets_.of(r);
      term_refreshes_ += sweep.size();
      for (const std::uint32_t j : sweep) refresh_compute_term(j, r);
    } else if (r < num_servers_ + num_base_stations_) {
      const std::size_t k = r - num_servers_;
      const std::span<const std::uint32_t> sweep = bs_sets_.of(k);
      term_refreshes_ += sweep.size();
      for (const std::uint32_t j : sweep) refresh_access_term(j, k);
    } else {
      const std::size_t k = r - num_servers_ - num_base_stations_;
      const std::span<const std::uint32_t> sweep = bs_sets_.of(k);
      term_refreshes_ += sweep.size();
      for (const std::uint32_t j : sweep) refresh_fronthaul_term(j, k);
    }
  }
}

}  // namespace eotora::core
