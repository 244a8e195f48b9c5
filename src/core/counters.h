// Deterministic solver counters — the reproducible half of the
// observability layer (util/trace.h is the wall-clock half).
//
// Counters record algorithmic effort (best-response rounds, accepted
// moves, BDMA outer iterations, cache rebuilds vs. incremental term
// refreshes, Lemma-1 evaluations, option rows re-derived vs. kept) rather
// than time, so they are part of
// the determinism contract: for a fixed scenario + seed the totals are
// byte-identical across thread counts and reruns, and they are stamped
// into the eotora-sweep-v1 artifact next to the metric fields
// (tests/test_runner.cpp pins this).
//
// Plumbing: rather than threading a sink parameter through every solver
// signature, solvers write to `counters::active()` — a thread-local
// pointer installed by a `counters::Scope`. With no scope installed the
// writes land in a per-thread dummy that is never read, so library users
// who do not care about counters pay one TLS load per solve. The simulator
// installs a Scope around Policy::step() only, so audit-time re-solves
// (sim/audit.cpp also calls optimal_allocation) do not pollute decision
// counters. This is deterministic because each slot's decision runs
// synchronously on exactly one thread — the runner parallelises across
// cells/seeds, never within a solve.
#pragma once

#include <cstdint>

namespace eotora::util {
class Json;
}  // namespace eotora::util

namespace eotora::core::counters {

struct SolverCounters {
  // CGBA: best-response rounds (round-robin sweeps or max-gap argmax
  // scans) and moves that actually changed a device's option.
  std::uint64_t cgba_rounds = 0;
  std::uint64_t cgba_moves = 0;
  // MCBA: sampled proposals (option != current) and accepted switches.
  std::uint64_t mcba_proposals = 0;
  std::uint64_t mcba_accepted = 0;
  // BDMA outer iterations (one P2-A solve + one P2-B solve each).
  std::uint64_t bdma_iterations = 0;
  // BestResponseEngine: binds — derivations of an engine's build-fixed
  // tables, in full or patching the devices a build changed, one per build
  // it solves on; under BDMA at most one per WCG component per slot, as the
  // slot's later solves only reset the engine and a build that re-derived
  // no row keeps it bound — vs. incremental per-(device,resource) term
  // refreshes after moves.
  std::uint64_t engine_rebuilds = 0;
  std::uint64_t engine_term_refreshes = 0;
  // Closed-form Lemma-1 allocations evaluated (core/lemma1.cpp).
  std::uint64_t lemma1_evaluations = 0;
  // WcgComponents::build (core/components.h), one per build: plans
  // derived for an instance the components were not planned for vs. plans
  // reused.
  std::uint64_t component_finds = 0;
  std::uint64_t component_reuses = 0;
  // StationTables::refresh(), once per build of a slot's WCG: station-table
  // derivations for an instance the tables were not derived for vs.
  // reuses.
  std::uint64_t arena_precomputes = 0;
  std::uint64_t arena_precompute_reuses = 0;
  // WcgProblem::build(), one per device per successful build: option rows
  // re-derived vs. kept because the device's f_i, d_i and h on its
  // coverable stations are bitwise those of the last build over the same
  // layout.
  std::uint64_t arena_device_builds = 0;
  std::uint64_t arena_device_reuses = 0;

  void merge(const SolverCounters& other);
  void reset() { *this = SolverCounters{}; }

  bool operator==(const SolverCounters& other) const;
  bool operator!=(const SolverCounters& other) const {
    return !(*this == other);
  }

  // Insertion-ordered object with one integer-valued field per counter;
  // the field order here is the artifact order.
  [[nodiscard]] util::Json to_json() const;
};

// The calling thread's current sink. Never null: with no Scope installed
// this is a per-thread dummy whose contents are never read.
[[nodiscard]] SolverCounters& active();

// Installs `sink` as the calling thread's active() target for its
// lifetime; restores the previous sink (scopes nest) on destruction.
class Scope {
 public:
  explicit Scope(SolverCounters& sink);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SolverCounters* previous_;
};

}  // namespace eotora::core::counters
