// The Weighted Congestion Game view of the P2-A problem (paper §V-B).
//
// After Lemma 1 eliminates the divisible resource-allocation variables, the
// per-slot latency becomes  T_t = Σ_r m_r P_r(z)²  over the resource set
//   R = {C_n | servers} ∪ {B^A_k | base stations} ∪ {B^F_k | base stations}
// with per-resource loads P_r(z) = Σ_{i uses r} p_{i,r} and weights
//   m_{C_n}  = 1 / (cores_n · ω_n · 1e9)   p_{i,C_n}  = sqrt(f_i / σ_{i,n})
//   m_{B^A_k} = 1 / W^A_k                  p_{i,B^A_k} = sqrt(d_i / h_{i,k})
//   m_{B^F_k} = 1 / W^F_k                  p_{i,B^F_k} = sqrt(d_i / h^F_k)
// (This is the form consistent with Eqs. (18)-(19); see DESIGN.md for the
// paper's §V-B typo.)
//
// A device's strategy is an Option: a feasible (base station, server) pair —
// the BS must cover the device (h > 0) and the server must be reachable over
// that BS's fronthaul (constraint (3)). The player cost is
//   T_i(z) = Σ_{r ∈ R(z_i)} m_r p_{i,r} P_r(z),
// and Σ_i T_i = T_t, so the game's social cost is exactly the latency.
//
// The game admits the exact potential
//   Φ(z) = ½ Σ_r m_r (P_r(z)² + Σ_{i∈I_r} p_{i,r}²),
// i.e. ΔΦ equals the mover's cost change for every unilateral deviation —
// this is what makes CGBA's best-response dynamics terminate.
//
// Hot-path layout (see docs/ARCHITECTURE.md "The WCG hot path"): options live
// in one arena of 48-byte entries, one fixed-capacity row per device with
// its live options packed at the front, and BestResponseEngine caches the
// per-(device, resource) cost terms option costs factor into. A build
// re-derives only the rows of devices whose inputs changed since the last
// one, and the engine re-binds only those devices; it is reset for each
// solve, and re-derives only the terms a move's changed loads invalidate —
// every best response it returns is bit-identical to a from-scratch
// LoadTracker evaluation.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.h"
#include "core/kernels/kernels.h"
#include "core/types.h"
#include "util/rng.h"

namespace eotora::core {

// One feasible (base station, server) choice for a device, with its resource
// indices and weights precomputed. 48 bytes: build() keeps every resource
// index below 2^32.
struct Option {
  std::uint32_t bs = 0;
  std::uint32_t server = 0;
  std::uint32_t r_compute = 0;
  std::uint32_t r_access = 0;
  std::uint32_t r_fronthaul = 0;
  double p_compute = 0.0;
  double p_access = 0.0;
  double p_fronthaul = 0.0;
};
static_assert(sizeof(Option) == 48);

// z: per-device index into that device's option list.
using Profile = std::vector<std::size_t>;

namespace detail {
[[noreturn]] void reject_channel_gain(double h, std::size_t device,
                                      std::size_t station, std::size_t slot);
}  // namespace detail

// The covering rule of the build's coverage scan: station k covers device
// i when h_{i,k} > 0. Throws std::invalid_argument naming the device, the
// station and the slot when h is NaN or infinite.
[[nodiscard]] inline bool covers(double h, std::size_t device,
                                 std::size_t station, std::size_t slot) {
  if (!std::isfinite(h)) [[unlikely]] {
    detail::reject_channel_gain(h, device, station, slot);
  }
  return h > 0.0;
}

// The per-station tables every build reads: the bandwidth reciprocals
// 1/W^A_k, 1/W^F_k and the fronthaul spectral efficiencies h^F_k. They
// depend only on the instance, so refresh() re-derives them only when
// handed an Instance whose stamp() is not the one they were derived for
// (reuse keeps the reciprocals' exact bits trivially — the inputs are the
// same instance's). Counted as counters::active().arena_precomputes /
// arena_precompute_reuses.
struct StationTables {
  std::uint64_t stamp = 0;  // Instance::stamp() of the tables; 0 = none
  std::vector<double> inv_access_bw;
  std::vector<double> inv_fronthaul_bw;
  std::vector<double> fronthaul_se;  // h^F_k

  void refresh(const Instance& instance);
};

// What WcgProblem::build() builds over: a subset of a slot's devices and
// the global ids of every station each of them can ever be covered by and
// every server those stations reach, each list ascending. The built
// problem numbers devices, stations and servers by position in these
// lists, so its resource layout keeps the global [compute][access]
// [fronthaul] scheme with the global relative order. A listed station that
// covers no device in a slot carries zero load.
struct WcgSubset {
  std::span<const std::uint32_t> devices;
  std::span<const std::uint32_t> stations;
  std::span<const std::uint32_t> servers;
  // Global station / server id -> position in `stations` / `servers`, read
  // at every coverable station and reachable server of a subset device.
  std::span<const std::uint32_t> station_local;
  std::span<const std::uint32_t> server_local;
};

class WcgProblem {
 public:
  // An empty problem; rebuild() must run before anything else is called.
  WcgProblem() = default;

  // Builds option lists and resource weights from the instance, the current
  // slot state, and the current frequencies. Throws std::invalid_argument if
  // any device has no feasible option (no covering BS with a usable channel),
  // h > 0 on a station outside its coverable_stations, or a non-finite h.
  WcgProblem(const Instance& instance, const SlotState& state,
             const Frequencies& frequencies);

  // Re-derives the problem for a new slot, reusing the existing allocations
  // (option arena, row tables, weights) and the rows of every device whose
  // inputs did not change (see build()). Equivalent to constructing a fresh
  // problem, without the per-slot heap churn. This is the one-subset case
  // of build(): every device, station and server, with local ids equal to
  // global ids.
  void rebuild(const Instance& instance, const SlotState& state,
               const Frequencies& frequencies);

  // Builds the problem over `subset` (see WcgSubset), reading the station
  // tables from `tables`, which must be refreshed for `instance`. Options
  // keep the order rebuild() lays them out in and the same p-value bits;
  // weights are the global resources' weights. Throws where rebuild()
  // throws, when the subset has 2^32 or more resources, and when it misses
  // a coverable station or reachable server of one of its devices.
  //
  // Incremental. Every row is scanned (covering stations, the coverable
  // list), but a device keeps its option row when its f_i, d_i and its h on
  // every coverable station — so its covering stations and their h — are
  // bitwise what the last successful build derived the row from, and that
  // build ran over the same layout: the same Instance (by
  // Instance::stamp(), never its address) and the same device, station and
  // server lists. Only the other devices are re-derived, by the one
  // per-device routine a full build runs for every device; each device
  // counts one counters::active().arena_device_builds or
  // arena_device_reuses per successful build. A build that throws forgets
  // every key, so the next one is full.
  void build(const Instance& instance, const SlotState& state,
             const Frequencies& frequencies, const WcgSubset& subset,
             const StationTables& tables);

  [[nodiscard]] std::size_t num_devices() const {
    return row_offsets_.empty() ? 0 : row_offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_resources() const { return weights_.size(); }
  // Which build this problem holds: a successful build() (and so rebuild())
  // that re-derived any row takes a fresh value from a process-wide
  // counter, one that re-derived none keeps the generation it had, and the
  // generation is 0 while a build is in flight, after one threw, and before
  // the first. set_frequencies() keeps it: a BestResponseEngine
  // bound to this build stays valid across frequency updates.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  // What the build that took generation() changed: the generation whose
  // rows it patched — 0 when it laid the problem out afresh — and the local
  // devices it re-derived. A BestResponseEngine bound to patched_from()
  // re-binds only those devices (BestResponseEngine::bind).
  [[nodiscard]] std::uint64_t patched_from() const { return patched_from_; }
  [[nodiscard]] std::span<const std::uint32_t> changed_devices() const {
    return changed_;
  }
  // All resource weights m_r in the [compute][access][fronthaul] layout —
  // the contiguous span the kernel-layer reductions run over.
  [[nodiscard]] std::span<const double> weights() const { return weights_; }
  [[nodiscard]] std::size_t num_servers() const { return server_ids_.size(); }
  [[nodiscard]] std::size_t num_base_stations() const {
    return station_ids_.size();
  }
  // Global id of the problem's base station / server `local` (the identity
  // on a rebuild() problem).
  [[nodiscard]] std::size_t station_id(std::size_t local) const {
    return station_ids_[local];
  }
  [[nodiscard]] std::size_t server_id(std::size_t local) const {
    return server_ids_[local];
  }
  [[nodiscard]] std::span<const Option> options(std::size_t device) const;
  [[nodiscard]] double weight(std::size_t resource) const;

  // Live options, over every device.
  [[nodiscard]] std::size_t num_options() const { return live_options_; }

  // Flat-arena views used by the incremental engine. Device i's row spans
  // arena indices [arena_offset(i), arena_offset(i + 1)), room for an
  // option on every server each of its coverable stations reaches; its
  // options(i).size() live options sit at the front. arena_offset(
  // num_devices()) is the arena's size. Likewise [coverable_offset(i),
  // coverable_offset(i + 1)) has one slot per coverable station of device
  // i, room for its (base station) option groups.
  [[nodiscard]] std::size_t arena_offset(std::size_t device) const {
    return row_offsets_[device];
  }
  [[nodiscard]] std::size_t coverable_offset(std::size_t device) const {
    return coverable_offsets_[device];
  }
  [[nodiscard]] const Option& option_at(std::size_t arena_index) const {
    return arena_[arena_index];
  }

  // Re-derives the compute-resource weights for new frequencies (one entry
  // per server of the instance); option lists, p-values and the access and
  // fronthaul weights are frequency-independent and stay valid, and so does
  // generation(). Checks only the frequencies of the problem's own servers
  // against [F^L, F^U].
  void set_frequencies(const Instance& instance,
                       const Frequencies& frequencies);

  // Uniform random feasible profile.
  [[nodiscard]] Profile random_profile(util::Rng& rng) const;

  // Index of the option with global base station `bs` and server `server`
  // in device i's option list, or options(i).size() when the pair is not
  // one of its options.
  [[nodiscard]] std::size_t find_option(std::size_t device, std::size_t bs,
                                        std::size_t server) const;

  // Social cost T_t(z) = Σ_r m_r P_r(z)² — evaluates from scratch. The
  // scratch overload reuses `scratch` for the per-resource loads so loops
  // stay allocation-free.
  [[nodiscard]] double total_cost(const Profile& z) const;
  [[nodiscard]] double total_cost(const Profile& z,
                                  std::vector<double>& scratch) const;

  // Decodes a profile into the (x, y) Assignment, in global station and
  // server ids.
  [[nodiscard]] Assignment to_assignment(const Profile& z) const;

  // A lower bound on the social cost of ANY profile: every device must pay
  // at least its own-weight cost m_r p_{i,r}² on the resources of its best
  // option (loads only grow when others share). Used by branch & bound and
  // reported alongside heuristic solutions.
  [[nodiscard]] double singleton_lower_bound() const;

 private:
  void loads_into(const Profile& z, std::vector<double>& p) const;
  // Whether `subset` over `instance` is the layout the last successful
  // build ran over.
  [[nodiscard]] bool same_layout(const Instance& instance,
                                 const WcgSubset& subset) const;
  // Records the layout, checks that it holds every coverable station and
  // reachable server of its devices, and sizes the rows and keys for it.
  void lay_out(const Instance& instance, const WcgSubset& subset);
  // Whether local device j's row was derived from these inputs; h is
  // compared over the device's `coverable` stations.
  [[nodiscard]] bool same_inputs(
      std::size_t j, double f, double d, const std::vector<double>& channel,
      std::span<const topology::BaseStationId> coverable) const;
  // The per-device routine: lays out local device j's options in its row
  // from covered_[0, covering) and records its key.
  void derive_device(const Instance& instance, const SlotState& state,
                     const WcgSubset& subset, const StationTables& tables,
                     std::size_t j, std::size_t covering);

  std::vector<Option> arena_;                // fixed-capacity rows
  std::vector<std::size_t> row_offsets_;     // num_devices + 1 row starts
  std::vector<std::uint32_t> counts_;        // live options per row
  std::size_t live_options_ = 0;             // Σ counts_
  std::vector<double> weights_;              // m_r
  std::uint64_t generation_ = 0;             // see generation()
  std::uint64_t patched_from_ = 0;           // see patched_from()
  std::vector<std::uint32_t> changed_;       // see changed_devices()
  std::vector<std::uint32_t> station_ids_;   // local -> global base station
  std::vector<std::uint32_t> server_ids_;    // local -> global server

  // The layout key: valid only after a successful build. With station_ids_
  // and server_ids_, the instance's stamp — which also fixes the station
  // tables rows and weights read — and the global device of every local
  // one.
  bool layout_valid_ = false;
  std::uint64_t instance_stamp_ = 0;
  std::vector<std::uint32_t> device_ids_;
  // Per-device reuse keys: f_i, d_i and h on each coverable station, in
  // slots [coverable_offset(j), coverable_offset(j + 1)). Off its
  // coverable list no station may cover a device, so these h decide which
  // stations cover it.
  std::vector<std::size_t> coverable_offsets_;
  std::vector<double> key_f_;
  std::vector<double> key_d_;
  std::vector<double> key_h_;
  std::vector<std::uint32_t> rederived_;  // build() scratch for changed_

  // rebuild()'s own station tables and its identity subset lists.
  StationTables tables_;
  std::vector<std::uint32_t> identity_;
  // build() scratch: the covered stations of the device being laid out,
  // its σ by local server, and the batched per-device sqrt(f_i / σ_{i,s})
  // over the servers device i reaches — local server s sits at position
  // reach_slot_[s] of the compact rows iff reach_stamp_[s] == i.
  std::vector<std::uint32_t> covered_;
  std::vector<double> sigma_local_;
  std::vector<std::uint32_t> reach_stamp_;
  std::vector<std::uint32_t> reach_slot_;
  std::vector<double> task_cycles_row_;
  std::vector<double> sigma_row_;
  std::vector<double> sqrt_compute_row_;
};

// Incremental load bookkeeping for search algorithms (CGBA, MCBA, B&B).
// Tracks P_r for a current profile and answers player costs / best responses
// in O(options(i)) without touching other devices.
class LoadTracker {
 public:
  // Binds to `problem` (must outlive the tracker) at the given profile.
  LoadTracker(const WcgProblem& problem, Profile profile);

  [[nodiscard]] const Profile& profile() const { return profile_; }
  [[nodiscard]] double total_cost() const;

  // Tracked per-resource loads P_r — exposed so tests can compare the
  // incremental state against a from-scratch oracle.
  [[nodiscard]] std::span<const double> loads() const { return loads_; }

  // Player i's current cost given the tracked loads.
  [[nodiscard]] double player_cost(std::size_t device) const;

  // Cost player i would pay after unilaterally switching to `option_index`
  // (others fixed).
  [[nodiscard]] double cost_if_moved(std::size_t device,
                                     std::size_t option_index) const;

  // Social-cost change of the unilateral switch, in O(1): only the at most
  // six resources whose loads change contribute,
  //   ΔT = Σ_r m_r ((P_r + δ_r)² - P_r²) = Σ_r m_r (2 P_r + δ_r) δ_r.
  // MCBA's accept/reject test runs on this instead of a full total_cost().
  [[nodiscard]] double delta_cost(std::size_t device,
                                  std::size_t option_index) const;

  // Social cost after the unilateral switch, evaluated with a full
  // O(num_resources) sweep — bit-identical to { move(); total_cost(); }
  // without mutating the tracker. This is the naive oracle MCBA keeps
  // behind McbaConfig::naive_scan.
  [[nodiscard]] double total_cost_if_moved(std::size_t device,
                                           std::size_t option_index) const;

  struct BestResponse {
    std::size_t option_index = 0;
    double cost = 0.0;
    // The player's cost at its current option — best_response() evaluates it
    // anyway, so callers never pay a second player_cost() pass.
    double current_cost = 0.0;
  };
  // Minimum-cost unilateral deviation for player i (includes staying put).
  [[nodiscard]] BestResponse best_response(std::size_t device) const;

  // Switches player i to `option_index`, updating loads incrementally.
  // Resource categories shared by the old and new option (same server or
  // same base station) carry identical p-values and are skipped, so their
  // tracked loads keep their exact bits.
  void move(std::size_t device, std::size_t option_index);

 private:
  friend class BestResponseEngine;

  const WcgProblem* problem_;
  Profile profile_;
  std::vector<double> loads_;  // P_r
};

// Incremental best-response evaluator over a LoadTracker. best_response(i)
// returns exactly what tracker.best_response(i) would — same option, same
// cost bits — at a fraction of the arithmetic, by exploiting how option
// costs factor over the tracked loads.
//
// cost_if_moved evaluates every option as the fixed left-associated sum
//   (t_compute + t_access) + t_fronthaul,   t = fl(fl(w·p) · fl(l̃ + p)),
// where l̃ is the load excluding the device's own current contribution. The
// access and fronthaul terms are shared by every option of a device on one
// base station, and the compute term by every option of a device on one
// server — so a device's whole option list is priced by ~num_servers +
// 2·num_base_stations cached terms. The engine keeps those terms current:
// a move changes at most six resource loads, and only the terms of devices
// touching those resources (plus the mover's own exclusion terms, which the
// same sweeps cover) are re-derived, in O(devices on the changed resources)
// three-flop updates. A best-response scan then costs two additions and a
// compare per option, with scan order, strict-< tie handling, and every
// intermediate rounding identical to the from-scratch evaluation — the
// returned bits match LoadTracker::best_response exactly.
//
// Lifetime. bind() derives what a build fixes: the (device, base station)
// scan groups, the per-pair p tables, the access and fronthaul w·p tables
// and the per-server and per-station device sweep sets. When the engine is
// bound to exactly the generation the problem's build patched
// (WcgProblem::patched_from), bind() re-derives only the devices that
// build changed; otherwise it binds every device. Either way the tables
// are the ones a fresh engine derives. reset() starts a solve on that
// build: it re-derives the compute w·p at the problem's current weights
// (set_frequencies moves only those), records each device's current server
// and station, and derives every distinct term once from the tracker's
// loads. BDMA keeps one engine per WCG component, binds it when the slot's
// build is new and only resets it for the slot's later solves (cgba_from's
// engine overload decides, core/cgba.h); a build that re-derived no row
// keeps its generation, so the engine stays bound. An engine reset against
// a problem rebuilt since its bind throws.
//
// CGBA runs on this engine by default; CgbaConfig::naive_scan keeps the full
// O(devices × options) rescan as the correctness oracle the equivalence
// tests compare against.
class BestResponseEngine {
 public:
  // An unbound engine, holding no tables until bind().
  BestResponseEngine() = default;

  // One-shot use: bind(tracker's problem), then reset(tracker).
  explicit BestResponseEngine(LoadTracker& tracker);

  // Derives the build-fixed tables from `problem`, which must outlive every
  // later reset() and stay at its build: a rebuild needs a new bind(), which
  // patches the devices the rebuild changed when this engine is bound to
  // the generation it patched. Throws on a problem no build succeeded on
  // (generation() == 0).
  void bind(const WcgProblem& problem);

  // True when the last bind() was against `problem`'s current build.
  [[nodiscard]] bool bound_to(const WcgProblem& problem) const {
    return problem_ == &problem && generation_ != 0 &&
           generation_ == problem.generation();
  }

  // Starts a solve at `tracker`'s profile and loads, and zeroes
  // term_refreshes(). The tracker must be over the bound problem and outlive
  // the solve; the engine owns every profile change from here on: route
  // moves through BestResponseEngine::move, never the tracker directly.
  // Throws when the tracker is over another problem or the problem was
  // rebuilt since bind().
  void reset(LoadTracker& tracker);

  // Best response (and current cost) for player i from the cached terms.
  [[nodiscard]] const LoadTracker::BestResponse& best_response(
      std::size_t device);

  // Switches player i, updating tracker loads and re-deriving exactly the
  // cost terms the changed resources invalidate.
  void move(std::size_t device, std::size_t option_index);

  // Incremental per-(device,resource) term re-derivations performed by
  // move() calls since the last reset() — the effort the cache saved vs. a
  // full re-derivation. Flushed into core::counters by the solver that owns
  // the engine; reset()'s own derivations are not counted.
  [[nodiscard]] std::uint64_t term_refreshes() const {
    return term_refreshes_;
  }

 private:
  // A device sweep set per server or base station: the devices with an
  // option on it, in no particular order (each refresh writes one
  // independent term), with room for every device of the problem.
  struct SweepSets {
    std::size_t devices = 0;
    std::vector<std::uint32_t> members;  // resources × devices
    std::vector<std::uint32_t> count;    // per resource

    void clear(std::size_t num_devices, std::size_t num_resources);
    [[nodiscard]] std::span<const std::uint32_t> of(std::size_t r) const {
      return {members.data() + r * devices, count[r]};
    }
    void join(std::size_t device, std::size_t r) {
      members[r * devices + count[r]++] = static_cast<std::uint32_t>(device);
    }
    // Takes every device `leaving` marks out of every set.
    void drop(const std::vector<char>& leaving);
  };

  // The per-device routine of bind(): derives device j's groups, entries,
  // p and w·p tables and sweep set memberships from its current option
  // row. Device j must be in no sweep set.
  void bind_device(std::size_t j);
  void refresh_compute_term(std::size_t device, std::size_t server);
  void refresh_access_term(std::size_t device, std::size_t bs);
  void refresh_fronthaul_term(std::size_t device, std::size_t bs);

  const WcgProblem* problem_ = nullptr;
  std::uint64_t generation_ = 0;  // problem_->generation() at bind()
  LoadTracker* tracker_ = nullptr;
  std::size_t num_servers_ = 0;
  std::size_t num_base_stations_ = 0;
  std::vector<LoadTracker::BestResponse> cached_;  // scan result, per device
  // Device-major (device, base station) runs, in the kernel layer's group
  // layout — best_response hands them straight to kernels::best_response_scan.
  // Device j's run sits at [problem_->coverable_offset(j), +
  // group_count_[j]), room for one group per coverable station.
  std::vector<kernels::ScanGroup> groups_;
  std::vector<std::uint32_t> group_count_;
  std::vector<std::uint32_t> server_of_entry_;  // arena entry -> server
  // The sweep sets for term refreshes after a move. bind() marks the
  // devices it re-derives in leaving_, and dedups a device's servers with
  // server_stamp_.
  SweepSets server_sets_;
  SweepSets bs_sets_;
  std::vector<char> leaving_;
  std::vector<std::uint32_t> server_stamp_;
  // Mover-maintained copies of each device's current server / base station,
  // so exclusion checks never chase the option arena.
  std::vector<std::uint32_t> cur_server_;
  std::vector<std::uint32_t> cur_bs_;
  // Per (device, server): p_compute, fl(w·p), and the cached compute term;
  // per (device, base station): the same for access and fronthaul. Entries
  // for infeasible pairs are never read.
  std::vector<double> pc_, wpc_, tc_;  // devices × num_servers
  std::vector<double> pa_, wpa_, ta_;  // devices × num_base_stations
  std::vector<double> pf_, wpf_, tf_;  // devices × num_base_stations
  std::uint64_t term_refreshes_ = 0;
};

}  // namespace eotora::core
