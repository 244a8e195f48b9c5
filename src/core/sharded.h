// Sharded P2-A solving: connected-component decomposition of the WCG.
//
// Devices in different components of the device↔resource graph never share
// a resource, so the social cost separates and best-response / annealing
// dynamics restricted to one component never read another component's
// state. The drivers here exploit that: WcgProblem::components() finds the
// decomposition (cached across structure-preserving rebuilds),
// extract_component() repacks each component into a self-contained
// subproblem bit-for-bit — once per rebuild() of the global problem, later
// solves of the same build re-copying only the weights — the per-shard
// solves run concurrently on util::ThreadPool, and the merge recombines
// profiles / costs / counters in component order so the output is
// identical for every worker count.
//
// Exactness contracts (pinned by tests/test_sharded.cpp):
//   * cgba_sharded_from returns the SAME SolveResult bits as the global
//     cgba_from call for runs that converge within max_moves, under both
//     selection rules. Round-robin visits a component's devices in the same
//     order globally and locally; max-gap's global argmax restricted to a
//     component is that component's argmax (loads elsewhere never change a
//     local gap, and the strict `>` tie-break resolves identically). The
//     merged cost is summed from the final shard loads scattered into a
//     global-length buffer, reproducing LoadTracker::total_cost's
//     left-to-right pass exactly (untouched resources contribute +0.0, and
//     every partial sum is nonnegative, so the extra zeros preserve bits).
//   * mcba_sharded is bit-identical to mcba() by construction: mcba() IS
//     this driver with workers == 1 (see core/mcba.h for the
//     component-aware chain semantics).
//
// Counters: each shard's solve runs under a counters::Scope, so the
// returned per-shard SolverCounters partition the solve's effort; the
// merged totals are flushed into counters::active() in component order
// (uint64 addition commutes, so totals are thread-count independent).
// Planning counts shard_extractions / shard_extraction_reuses, one per
// component, straight into the caller's active() sink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cgba.h"
#include "core/counters.h"
#include "core/mcba.h"
#include "core/solve_result.h"
#include "core/wcg.h"
#include "util/rng.h"

namespace eotora::core {

struct ShardedResult {
  SolveResult result;
  // Number of connected components the solve decomposed into (>= 1).
  std::size_t shards = 0;
  // Effort per component, in component order. Sums to what the solve
  // flushed into counters::active() for the in-shard counter fields.
  std::vector<counters::SolverCounters> shard_counters;
};

// Reusable scratch for the sharded drivers: per-shard extracted problems,
// initial profiles, results, final loads, seeds, and the merged load
// buffer. A caller that keeps one workspace across a simulation horizon
// (BdmaWorkspace does) pays no per-solve arena reallocation, and repeated
// solves of one build of the global problem (the z BDMA iterations of a
// slot) extract its components only once. Not thread-safe: one workspace
// per concurrent caller.
struct ShardedWorkspace {
  // build_id() of the problem `problems` were extracted from; 0 = none.
  std::uint64_t extracted_build = 0;
  std::vector<WcgProblem> problems;
  std::vector<Profile> initials;
  std::vector<SolveResult> results;
  std::vector<std::vector<double>> loads;
  std::vector<std::uint64_t> seeds;
  std::vector<double> merged_loads;
};

// CGBA over the components from a caller-supplied global initial profile,
// split per component — the sharded counterpart of cgba_from, with the same
// result bits. `workers` >= 1 caps the pool workers used for the fan-out.
[[nodiscard]] ShardedResult cgba_sharded_from(
    const WcgProblem& problem, const CgbaConfig& config, Profile initial,
    std::size_t workers, ShardedWorkspace* workspace = nullptr);

// Component-aware MCBA with the per-component chains run concurrently.
// Identical bits to mcba() for every worker count: the per-component seeds
// are drawn from `rng` sequentially in component order during planning.
[[nodiscard]] ShardedResult mcba_sharded(const WcgProblem& problem,
                                         const McbaConfig& config,
                                         util::Rng& rng, std::size_t workers,
                                         ShardedWorkspace* workspace = nullptr);

}  // namespace eotora::core
