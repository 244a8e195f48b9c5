// The component-parallel slot: a slot's WCG as its connected components.
//
// Devices in different connected components of the device↔resource graph
// never share a resource, so all of P2 separates by component: the social
// cost and every best-response or annealing trajectory of P2-A, and — P2-B
// separating per server, with V, Q(t) and p_t fixed within a slot — the
// frequency choice too. Algorithm 2's best-iteration pick (lines 5-8) is
// the only global step. WcgComponents holds a slot's WCG as one
// self-contained WcgProblem per component, with component-local ids, built
// directly from its devices' state rows, next to that component's
// BestResponseEngine; the solvers then run per component, and only
// O(N + 2K) reductions in global resource order stay serial (core/bdma.h,
// sim/pipeline CgbaAssignStage). Both live across slots: a component's
// build re-derives only the option rows of devices whose inputs changed
// since its last build, a component with no changed device does no
// per-device work, and its engine re-binds only the re-derived devices
// (WcgProblem::build, BestResponseEngine::bind).
//
// Plan. The components are those of the instance's coverable pairs: each
// device is joined to every station that can ever cover it
// (Topology::coverable_stations), and each such station to the servers it
// reaches. A slot's coverage (h > 0) stays on those lists — the build
// rejects any other h > 0 — so no slot's WCG joins what the plan keeps
// apart, and the plan is a function of the Instance alone: build() derives
// it when handed an Instance whose stamp() is not the plan's, and reuses it
// otherwise, counting exactly one of counters::active().component_finds /
// component_reuses per build. Ids are dense, in order of first device;
// each component lists its devices, their coverable stations and those
// stations' servers in ascending global id, so its local resource layout
// keeps the global [compute][access][fronthaul] scheme and relative order
// — a component's problem is bit-for-bit the global rebuild() restricted
// to it. A listed station no device covers in a slot carries zero load,
// and its terms add exactly +0.0 to every cost.
//
// Workers. Every fan-out runs on at most `workers` workers of
// util::ThreadPool::shared(). 0 and 1 — and any one-component slot — run
// inline on the calling thread and never create the shared pool. Results,
// rng streams and SolverCounters are the same for every worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/counters.h"
#include "core/instance.h"
#include "core/types.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

class WcgComponents {
 public:
  // Builds every component's problem for `state` at `frequencies`, on up to
  // `workers` workers (span wcg/rebuild), each under its own
  // counters::Scope merged in component order, so the arena_device_* counts
  // are the same for every worker count. First plans the components and
  // refreshes the station tables when `instance` is not the one they were
  // derived for (span wcg/plan). Throws where WcgProblem::rebuild() throws;
  // when several components throw, the error is the lowest component's,
  // for every worker count.
  void build(const Instance& instance, const SlotState& state,
             const Frequencies& frequencies, std::size_t workers);

  [[nodiscard]] std::size_t count() const { return count_; }
  // The plan's devices, and the WCG options of the last build, over every
  // component.
  [[nodiscard]] std::size_t num_devices() const {
    return device_component_.size();
  }
  [[nodiscard]] std::size_t num_options() const { return options_; }

  [[nodiscard]] const WcgProblem& problem(std::size_t c) const {
    return components_[c].problem;
  }
  [[nodiscard]] WcgProblem& problem(std::size_t c) {
    return components_[c].problem;
  }
  // Component c's best-response engine, kept next to its problem across
  // slots: CGBA binds it once per build of the problem and resets it for
  // each solve (cgba_from's engine overload). Only the worker solving
  // component c touches it; an MCBA or ROPT slot never binds it, so it
  // holds no tables.
  [[nodiscard]] BestResponseEngine& engine(std::size_t c) {
    return components_[c].engine;
  }
  // Global ids of component c's devices: local device j is devices(c)[j].
  [[nodiscard]] std::span<const std::uint32_t> devices(std::size_t c) const {
    return {device_list_.data() + device_offsets_[c],
            device_offsets_[c + 1] - device_offsets_[c]};
  }
  // Global ids of component c's coverable base stations and their servers
  // (= problem(c)'s).
  [[nodiscard]] std::span<const std::uint32_t> stations(std::size_t c) const {
    return {station_list_.data() + station_offsets_[c],
            station_offsets_[c + 1] - station_offsets_[c]};
  }
  [[nodiscard]] std::span<const std::uint32_t> servers(std::size_t c) const {
    return {server_list_.data() + server_offsets_[c],
            server_offsets_[c + 1] - server_offsets_[c]};
  }

  // Runs body(c) for every component, each under a counters::Scope of its
  // own entry of `counters` (resized to count() and zeroed first), then
  // merges them into the caller's counters::active() in component order.
  void solve(std::size_t workers,
             std::vector<counters::SolverCounters>& counters,
             const std::function<void(std::size_t)>& body) const;

  // random_profile's draws for the whole slot: rng.index(|options_i|) for
  // every device in global device order, on the calling thread, into
  // per-component profiles — the rng advances exactly as
  // WcgProblem::random_profile on the global problem.
  void draw_profiles(util::Rng& rng, std::vector<Profile>& profiles) const;

  // The warm start's keep step for component c, after draw_profiles: every
  // device whose carried (bs, server) pair is still one of its options
  // keeps it; the others keep their draw. An empty `carried` keeps nothing;
  // otherwise it must cover every device of the slot, or this throws.
  void keep_carried(std::size_t c, const Assignment& carried,
                    Profile& profile) const;

  // Decodes per-component profiles into the global (x, y) Assignment.
  void to_assignment(const std::vector<Profile>& profiles,
                     Assignment& out) const;

  // The social cost Σ_r m_r P_r² of per-component loads (each in its
  // component's local resource layout), summed in global resource order —
  // the bits LoadTracker::total_cost gives on the global problem.
  [[nodiscard]] double total_cost(
      const std::vector<std::vector<double>>& loads) const;

 private:
  // alignas(64): workers build and solve neighbouring components at once,
  // and two components' bookkeeping must not share a cache line.
  struct alignas(64) Component {
    WcgProblem problem;
    BestResponseEngine engine;
  };

  // Derives the plan from `instance`'s coverable pairs (counts a
  // component_find). Throws when a device has no coverable station.
  void plan(const Instance& instance);
  void for_each(std::size_t workers,
                const std::function<void(std::size_t)>& body) const;
  [[nodiscard]] WcgSubset subset(std::size_t c) const;

  StationTables tables_;
  std::size_t options_ = 0;  // the last build's, over every component
  std::uint64_t plan_stamp_ = 0;  // Instance::stamp() of the plan; 0 = none
  // The plan: component and local index of every device, the CSR member
  // lists (ascending global ids), and the global -> local id maps.
  std::size_t count_ = 0;
  std::vector<std::uint32_t> device_component_;
  std::vector<std::uint32_t> device_local_;
  std::vector<std::size_t> device_offsets_;
  std::vector<std::uint32_t> device_list_;
  std::vector<std::size_t> station_offsets_;
  std::vector<std::uint32_t> station_list_;
  std::vector<std::size_t> server_offsets_;
  std::vector<std::uint32_t> server_list_;
  std::vector<std::uint32_t> station_local_;
  std::vector<std::uint32_t> server_local_;
  std::vector<Component> components_;
  // build()'s per-component counters (the arena_device_* counts), merged
  // in component order whichever worker built each.
  std::vector<counters::SolverCounters> build_counters_;
  // total_cost() scratch in the global resource layout.
  mutable std::vector<double> merged_loads_;
  mutable std::vector<double> merged_weights_;
};

}  // namespace eotora::core
