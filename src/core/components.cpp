#include "core/components.h"

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

void WcgComponents::plan(const Instance& instance) {
  plan_stamp_ = 0;  // until the plan below is complete
  const auto& topo = instance.topology();
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  const std::size_t servers = topo.num_servers();

  // Union-find with path halving over [stations | servers]: each device
  // unites its coverable stations, and each such station is united with
  // the servers it reaches (never none: every station reaches a cluster,
  // and every cluster has a server).
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
  for (std::size_t i = 0; i < devices; ++i) {
    for (const topology::BaseStationId station :
         topo.coverable_stations(topology::DeviceId{i})) {
      const auto k = static_cast<std::uint32_t>(station.value);
      if (!station_touched[k]) {
        station_touched[k] = true;
        for (topology::ServerId s : topo.reachable_servers(station)) {
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
                       "device " << i << " has no coverable station");
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
  plan_stamp_ = instance.stamp();
}

WcgSubset WcgComponents::subset(std::size_t c) const {
  WcgSubset out;
  out.devices = devices(c);
  out.stations = stations(c);
  out.servers = servers(c);
  out.station_local = station_local_;
  out.server_local = server_local_;
  return out;
}

void WcgComponents::build(const Instance& instance, const SlotState& state,
                          const Frequencies& frequencies,
                          std::size_t workers) {
  EOTORA_TRACE_SPAN("wcg/rebuild");
  if (plan_stamp_ == instance.stamp()) {
    ++counters::active().component_reuses;
  } else {
    EOTORA_TRACE_SPAN("wcg/plan");
    plan(instance);
  }
  tables_.refresh(instance);
  components_.resize(count_);
  solve(workers, build_counters_, [&](std::size_t c) {
    components_[c].problem.build(instance, state, frequencies, subset(c),
                                 tables_);
  });
  options_ = 0;
  for (const Component& component : components_) {
    options_ += component.problem.num_options();
  }
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
