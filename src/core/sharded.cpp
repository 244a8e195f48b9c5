#include "core/sharded.h"

#include <utility>

#include "core/kernels/kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace eotora::core {

namespace {

// Sizes the per-shard workspace slots and brings ws.problems[0, count) up
// to date with `problem`. A subproblem's options and p-values change only
// when `problem` is rebuilt, so each component is extracted once per
// build_id() and reused by every later solve of that build (the z BDMA
// iterations of a slot); the weights, which set_frequencies moves between
// iterations, are re-copied on every call. Runs on the calling thread, so
// the extracted arenas stay out of the pool workers' malloc arenas.
void plan_subproblems(const WcgProblem& problem, const WcgComponents& split,
                      ShardedWorkspace& ws) {
  const std::size_t count = split.count;
  if (ws.problems.size() < count) ws.problems.resize(count);
  ws.initials.resize(count);
  ws.results.resize(count);
  ws.loads.resize(count);
  if (problem.build_id() != 0 && ws.extracted_build == problem.build_id()) {
    for (std::size_t c = 0; c < count; ++c) {
      problem.copy_component_weights(split, c, ws.problems[c]);
    }
    counters::active().shard_extraction_reuses += count;
    return;
  }
  ws.extracted_build = 0;  // never matches a half-finished extraction
  for (std::size_t c = 0; c < count; ++c) {
    problem.extract_component(split, c, ws.problems[c]);
  }
  ws.extracted_build = problem.build_id();
  counters::active().shard_extractions += count;
}

// Copies each component's slice of the per-device fields back into the
// global result, accumulating iterations/convergence, and flushes the
// per-shard counters into the caller's active() sink in component order.
void merge_results(const WcgComponents& split, const ShardedWorkspace& ws,
                   std::size_t num_devices, ShardedResult& out) {
  SolveResult& merged = out.result;
  merged.profile.resize(num_devices);
  merged.iterations = 0;
  merged.converged = true;
  for (std::size_t c = 0; c < split.count; ++c) {
    const SolveResult& r = ws.results[c];
    const std::span<const std::uint32_t> devices = split.devices_of(c);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      merged.profile[devices[i]] = r.profile[i];
    }
    merged.iterations += r.iterations;
    merged.converged = merged.converged && r.converged;
    counters::active().merge(out.shard_counters[c]);
  }
}

}  // namespace

ShardedResult cgba_sharded_from(const WcgProblem& problem,
                                const CgbaConfig& config, Profile initial,
                                std::size_t workers,
                                ShardedWorkspace* workspace) {
  EOTORA_REQUIRE(workers >= 1);
  EOTORA_REQUIRE_MSG(initial.size() == problem.num_devices(),
                     "initial profile entries=" << initial.size());
  ShardedWorkspace local;
  ShardedWorkspace& ws = workspace != nullptr ? *workspace : local;

  ShardedResult out;
  const WcgComponents* split = nullptr;
  {
    EOTORA_TRACE_SPAN("shard/plan");
    split = &problem.components();
    out.shards = split->count;
    out.shard_counters.assign(split->count, counters::SolverCounters{});
    if (split->count > 1) {
      plan_subproblems(problem, *split, ws);
      for (std::size_t c = 0; c < split->count; ++c) {
        const std::span<const std::uint32_t> devices = split->devices_of(c);
        ws.initials[c].resize(devices.size());
        for (std::size_t i = 0; i < devices.size(); ++i) {
          ws.initials[c][i] = initial[devices[i]];
        }
      }
    }
  }

  if (split->count == 1) {
    // One component: the global solve IS the shard solve. Run it under a
    // Scope so the caller still gets a per-shard effort breakdown.
    {
      const counters::Scope scope(out.shard_counters[0]);
      out.result = cgba_from(problem, config, std::move(initial));
    }
    counters::active().merge(out.shard_counters[0]);
    return out;
  }

  {
    EOTORA_TRACE_SPAN("shard/solve");
    util::ThreadPool::shared().parallel_for_index(
        split->count, workers, [&](std::size_t c) {
          const counters::Scope scope(out.shard_counters[c]);
          ws.results[c] = cgba_from(ws.problems[c], config,
                                    std::move(ws.initials[c]), &ws.loads[c]);
        });
  }

  {
    EOTORA_TRACE_SPAN("shard/merge");
    merge_results(*split, ws, problem.num_devices(), out);
    // Scatter the final shard loads into a global-length buffer and sum the
    // cost with the same ascending left-to-right pass
    // LoadTracker::total_cost runs. Resources outside every component keep
    // load 0.0 exactly as the global tracker would, so the bits match the
    // global solve's reported cost.
    ws.merged_loads.assign(problem.num_resources(), 0.0);
    for (std::size_t c = 0; c < split->count; ++c) {
      const std::span<const std::uint32_t> resources = split->resources_of(c);
      for (std::size_t t = 0; t < resources.size(); ++t) {
        ws.merged_loads[resources[t]] = ws.loads[c][t];
      }
    }
    out.result.cost =
        kernels::weighted_sumsq(problem.weights().data(),
                                ws.merged_loads.data(), ws.merged_loads.size());
  }
  return out;
}

ShardedResult mcba_sharded(const WcgProblem& problem, const McbaConfig& config,
                           util::Rng& rng, std::size_t workers,
                           ShardedWorkspace* workspace) {
  EOTORA_REQUIRE(workers >= 1);
  ShardedWorkspace local;
  ShardedWorkspace& ws = workspace != nullptr ? *workspace : local;

  ShardedResult out;
  const WcgComponents* split = nullptr;
  {
    EOTORA_TRACE_SPAN("shard/plan");
    split = &problem.components();
    out.shards = split->count;
    out.shard_counters.assign(split->count, counters::SolverCounters{});
    if (split->count > 1) {
      plan_subproblems(problem, *split, ws);
      // Seeds are drawn sequentially in component order on the calling
      // thread, so every worker count consumes `rng` identically.
      ws.seeds.resize(split->count);
      for (std::size_t c = 0; c < split->count; ++c) {
        ws.seeds[c] = rng.engine()();
      }
    }
  }

  if (split->count == 1) {
    // One component: the historical single-chain MCBA, consuming the
    // caller's rng directly (this is the path every paper scenario takes,
    // so pre-decomposition results are reproduced bit-for-bit).
    {
      const counters::Scope scope(out.shard_counters[0]);
      out.result = mcba_chain(problem, config, rng);
    }
    counters::active().merge(out.shard_counters[0]);
    return out;
  }

  {
    EOTORA_TRACE_SPAN("shard/solve");
    util::ThreadPool::shared().parallel_for_index(
        split->count, workers, [&](std::size_t c) {
          const counters::Scope scope(out.shard_counters[c]);
          util::Rng chain_rng(ws.seeds[c]);
          ws.results[c] = mcba_chain(ws.problems[c], config, chain_rng);
        });
  }

  {
    EOTORA_TRACE_SPAN("shard/merge");
    merge_results(*split, ws, problem.num_devices(), out);
    // The per-component bests were tracked against per-component costs;
    // the combined profile's social cost is re-derived once globally (the
    // cost separates, so the combination is at least as good as any state
    // a joint chain visited).
    out.result.cost = problem.total_cost(out.result.profile, ws.merged_loads);
  }
  return out;
}

}  // namespace eotora::core
