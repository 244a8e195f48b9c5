#include "core/components.h"

#include <algorithm>

#include "core/kernels/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace eotora::core {

namespace {
constexpr std::uint32_t kNone = 0xffffffffu;

// Counting sort of `count` keyed items into a CSR list, ascending by item.
void bucket(const std::vector<std::uint32_t>& key, std::size_t count,
            std::vector<std::size_t>& offsets,
            std::vector<std::uint32_t>& list,
            std::vector<std::uint32_t>& rank) {
  offsets.assign(count + 1, 0);
  for (const std::uint32_t c : key) {
    if (c != kNone) ++offsets[c + 1];
  }
  for (std::size_t c = 0; c < count; ++c) offsets[c + 1] += offsets[c];
  list.resize(offsets[count]);
  rank.assign(key.size(), kNone);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t item = 0; item < key.size(); ++item) {
    const std::uint32_t c = key[item];
    if (c == kNone) continue;
    rank[item] = static_cast<std::uint32_t>(cursor[c] - offsets[c]);
    list[cursor[c]++] = static_cast<std::uint32_t>(item);
  }
}
}  // namespace

bool WcgComponents::same_reach(const topology::Topology& topo) {
  const std::size_t stations = topo.num_base_stations();
  bool same = reach_offsets_.size() == stations + 1;
  for (std::size_t k = 0; same && k < stations; ++k) {
    const auto& reach = topo.reachable_servers(topology::BaseStationId{k});
    same = reach_offsets_[k + 1] - reach_offsets_[k] == reach.size() &&
           std::equal(reach.begin(), reach.end(),
                      reach_.begin() +
                          static_cast<std::ptrdiff_t>(reach_offsets_[k]),
                      [](topology::ServerId s, std::uint32_t memo) {
                        return s.value == memo;
                      });
  }
  if (same) return true;
  reach_offsets_.assign(1, 0);
  reach_.clear();
  for (std::size_t k = 0; k < stations; ++k) {
    for (topology::ServerId s :
         topo.reachable_servers(topology::BaseStationId{k})) {
      reach_.push_back(static_cast<std::uint32_t>(s.value));
    }
    reach_offsets_.push_back(reach_.size());
  }
  return false;
}

bool WcgComponents::scan_coverage(const Instance& instance,
                                  const SlotState& state) {
  const std::size_t devices = instance.num_devices();
  const std::size_t stations = instance.num_base_stations();
  EOTORA_REQUIRE_MSG(state.channel.size() == devices,
                     "channel rows=" << state.channel.size());
  scan_offsets_.assign(1, 0);
  scan_.clear();
  for (std::size_t i = 0; i < devices; ++i) {
    const std::vector<double>& row = state.channel[i];
    EOTORA_REQUIRE(row.size() == stations);
    for (std::size_t k = 0; k < stations; ++k) {
      if (covers(row[k], i, k, state.slot)) {
        scan_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    scan_offsets_.push_back(scan_.size());
  }
  const bool same = planned_ && scan_offsets_ == coverage_offsets_ &&
                    scan_ == coverage_;
  scan_offsets_.swap(coverage_offsets_);
  scan_.swap(coverage_);
  return same;
}

void WcgComponents::replan(const Instance& instance, const SlotState& state) {
  planned_ = false;  // until the plan below is complete
  const auto& topo = instance.topology();
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  const std::size_t servers = topo.num_servers();

  // Union-find with path halving over [stations | servers]: each device
  // unites the stations it covers that reach a server, and each such
  // station is united with the servers it reaches.
  std::vector<std::uint32_t> parent(stations + servers);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    parent[v] = static_cast<std::uint32_t>(v);
  }
  const auto find = [&parent](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::vector<bool> station_touched(stations, false);
  std::vector<std::uint32_t> anchor(devices, kNone);
  options_ = 0;
  for (std::size_t i = 0; i < devices; ++i) {
    for (std::size_t e = coverage_offsets_[i]; e < coverage_offsets_[i + 1];
         ++e) {
      const std::uint32_t k = coverage_[e];
      const auto& reach = topo.reachable_servers(topology::BaseStationId{k});
      if (reach.empty()) continue;
      options_ += reach.size();
      if (!station_touched[k]) {
        station_touched[k] = true;
        for (topology::ServerId s : reach) {
          parent[find(static_cast<std::uint32_t>(stations + s.value))] =
              find(k);
        }
      }
      if (anchor[i] == kNone) {
        anchor[i] = k;
      } else {
        parent[find(k)] = find(anchor[i]);
      }
    }
    EOTORA_REQUIRE_MSG(anchor[i] != kNone,
                       "device " << i
                                 << " has no feasible (base station, server) "
                                    "option at slot "
                                 << state.slot);
  }

  // Dense ids in order of first device; stations and servers take their
  // root's id when a device reaches them, kNone otherwise.
  std::vector<std::uint32_t> root_id(parent.size(), kNone);
  count_ = 0;
  device_component_.resize(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    const std::uint32_t root = find(anchor[i]);
    if (root_id[root] == kNone) {
      root_id[root] = static_cast<std::uint32_t>(count_++);
    }
    device_component_[i] = root_id[root];
  }
  std::vector<std::uint32_t> station_component(stations, kNone);
  for (std::size_t k = 0; k < stations; ++k) {
    if (station_touched[k]) {
      station_component[k] = root_id[find(static_cast<std::uint32_t>(k))];
    }
  }
  std::vector<std::uint32_t> server_component(servers, kNone);
  for (std::size_t s = 0; s < servers; ++s) {
    server_component[s] =
        root_id[find(static_cast<std::uint32_t>(stations + s))];
  }
  bucket(device_component_, count_, device_offsets_, device_list_,
         device_local_);
  bucket(station_component, count_, station_offsets_, station_list_,
         station_local_);
  bucket(server_component, count_, server_offsets_, server_list_,
         server_local_);
  ++counters::active().component_finds;
  planned_ = true;
}

void WcgComponents::begin(const Instance& instance, const SlotState& state) {
  const auto& topo = instance.topology();
  tables_.refresh(topo);
  if (!same_reach(topo) || device_component_.size() != topo.num_devices() ||
      server_local_.size() != topo.num_servers()) {
    planned_ = false;
  }
  checked_ = !planned_ || count_ <= 1;
  if (!checked_) return;
  EOTORA_TRACE_SPAN("wcg/plan");
  if (scan_coverage(instance, state)) {
    ++counters::active().component_reuses;
  } else {
    replan(instance, state);
  }
}

WcgSubset WcgComponents::subset(std::size_t c, bool check) const {
  WcgSubset out;
  out.devices = devices(c);
  out.stations = stations(c);
  out.servers = servers(c);
  out.station_local = station_local_;
  out.server_local = server_local_;
  if (check) {
    out.coverage_offsets = coverage_offsets_;
    out.coverage = coverage_;
  }
  return out;
}

void WcgComponents::build(const Instance& instance, const SlotState& state,
                          const Frequencies& frequencies,
                          std::size_t workers) {
  EOTORA_TRACE_SPAN("wcg/rebuild");
  EOTORA_REQUIRE_MSG(planned_, "WcgComponents::build without begin()");
  const auto build_all = [&](bool check) {
    components_.resize(count_);
    solve(workers, build_counters_, [&](std::size_t c) {
      Component& component = components_[c];
      component.built = component.problem.build(
          instance, state, frequencies, subset(c, check), tables_);
    });
  };
  const bool check = !checked_;
  checked_ = false;
  build_all(check);
  if (!check) return;
  const bool all_built =
      std::all_of(components_.begin(), components_.end(),
                  [](const Component& component) { return component.built; });
  if (all_built) {
    ++counters::active().component_reuses;
    return;
  }
  // The coverage moved under a plan of several components: re-plan from
  // this slot's rows and build again.
  {
    EOTORA_TRACE_SPAN("wcg/plan");
    (void)scan_coverage(instance, state);
    replan(instance, state);
  }
  build_all(false);
}

void WcgComponents::for_each(
    std::size_t workers, const std::function<void(std::size_t)>& body) const {
  if (workers <= 1 || count_ <= 1) {
    for (std::size_t c = 0; c < count_; ++c) body(c);
    return;
  }
  util::ThreadPool::shared().parallel_for_index(count_, workers, body);
}

void WcgComponents::solve(std::size_t workers,
                          std::vector<counters::SolverCounters>& counters,
                          const std::function<void(std::size_t)>& body) const {
  counters.assign(count_, counters::SolverCounters{});
  for_each(workers, [&](std::size_t c) {
    const counters::Scope scope(counters[c]);
    body(c);
  });
  for (const counters::SolverCounters& component : counters) {
    counters::active().merge(component);
  }
}

void WcgComponents::draw_profiles(util::Rng& rng,
                                  std::vector<Profile>& profiles) const {
  profiles.resize(count_);
  for (std::size_t c = 0; c < count_; ++c) {
    profiles[c].resize(devices(c).size());
  }
  for (std::size_t i = 0; i < device_component_.size(); ++i) {
    const std::size_t c = device_component_[i];
    const std::size_t j = device_local_[i];
    const WcgProblem& p = components_[c].problem;
    profiles[c][j] = rng.index(p.options(j).size());
  }
}

void WcgComponents::keep_carried(std::size_t c, const Assignment& carried,
                                 Profile& profile) const {
  if (carried.bs_of.empty() && carried.server_of.empty()) return;
  EOTORA_REQUIRE_MSG(carried.bs_of.size() == num_devices() &&
                         carried.server_of.size() == num_devices(),
                     "carried assignment entries=" << carried.bs_of.size()
                                                   << "/"
                                                   << carried.server_of.size()
                                                   << ", devices="
                                                   << num_devices());
  const WcgProblem& p = components_[c].problem;
  const std::span<const std::uint32_t> ids = devices(c);
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::size_t o =
        p.find_option(j, carried.bs_of[ids[j]], carried.server_of[ids[j]]);
    if (o < p.options(j).size()) profile[j] = o;
  }
}

void WcgComponents::to_assignment(const std::vector<Profile>& profiles,
                                  Assignment& out) const {
  out.bs_of.resize(num_devices());
  out.server_of.resize(num_devices());
  for (std::size_t c = 0; c < count_; ++c) {
    const WcgProblem& p = components_[c].problem;
    const std::span<const std::uint32_t> ids = devices(c);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      const Option& opt = p.option_at(p.arena_offset(j) + profiles[c][j]);
      out.bs_of[ids[j]] = p.station_id(opt.bs);
      out.server_of[ids[j]] = p.server_id(opt.server);
    }
  }
}

double WcgComponents::total_cost(
    const std::vector<std::vector<double>>& loads) const {
  // Scatter into the global [compute][access][fronthaul] layout and sum it
  // left to right as LoadTracker::total_cost does. A resource no component
  // touches keeps weight and load 0.0 and adds +0.0, which leaves every
  // (nonnegative) partial sum's bits unchanged.
  const std::size_t servers = server_local_.size();
  const std::size_t stations = station_local_.size();
  merged_loads_.assign(servers + 2 * stations, 0.0);
  merged_weights_.assign(servers + 2 * stations, 0.0);
  for (std::size_t c = 0; c < count_; ++c) {
    const WcgProblem& p = components_[c].problem;
    const std::size_t ns = p.num_servers();
    const std::size_t nk = p.num_base_stations();
    for (std::size_t s = 0; s < ns; ++s) {
      merged_loads_[p.server_id(s)] = loads[c][s];
      merged_weights_[p.server_id(s)] = p.weight(s);
    }
    for (std::size_t k = 0; k < nk; ++k) {
      const std::size_t access = servers + p.station_id(k);
      const std::size_t fronthaul = access + stations;
      merged_loads_[access] = loads[c][ns + k];
      merged_weights_[access] = p.weight(ns + k);
      merged_loads_[fronthaul] = loads[c][ns + nk + k];
      merged_weights_[fronthaul] = p.weight(ns + nk + k);
    }
  }
  return kernels::weighted_sumsq(merged_weights_.data(), merged_loads_.data(),
                                 merged_loads_.size());
}

}  // namespace eotora::core
