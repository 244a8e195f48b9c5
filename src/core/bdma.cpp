#include "core/bdma.h"

#include <limits>
#include <utility>

#include "core/counters.h"
#include "util/check.h"
#include "util/trace.h"

namespace eotora::core {

namespace {

// The pool workers a slot's per-component work runs on: the P2-A solver's.
std::size_t workers_of(const BdmaConfig& config) {
  return config.solver == P2aSolverKind::kMcba ? config.mcba.shard_workers
                                               : config.cgba.shard_workers;
}

// Component c's P2-B load sums at its chosen options, in ascending device
// order as reduced_latency_breakdown accumulates them, written to the
// global-id entries of its servers and stations. Summing into a local
// buffer first keeps the workers' writes to the shared arrays at one per
// resource.
void sum_loads(const WcgProblem& problem, const Profile& profile,
               P2bLoads& loads) {
  std::vector<double> sums(problem.num_resources(), 0.0);
  for (std::size_t j = 0; j < profile.size(); ++j) {
    const Option& opt = problem.option_at(problem.arena_offset(j) + profile[j]);
    sums[opt.r_compute] += opt.p_compute;
    sums[opt.r_access] += opt.p_access;
    sums[opt.r_fronthaul] += opt.p_fronthaul;
  }
  const std::size_t servers = problem.num_servers();
  const std::size_t stations = problem.num_base_stations();
  for (std::size_t s = 0; s < servers; ++s) {
    loads.compute[problem.server_id(s)] = sums[s];
  }
  for (std::size_t k = 0; k < stations; ++k) {
    loads.access[problem.station_id(k)] = sums[servers + k];
    loads.fronthaul[problem.station_id(k)] = sums[servers + stations + k];
  }
}

}  // namespace

void bdma_begin_slot(const Instance& instance, const SlotState& state,
                     BdmaWorkspace& workspace, BdmaLoopState& loop) {
  (void)state;
  // Line 1 of Algorithm 2: Ω starts at the lowest feasible frequencies.
  loop.omega = instance.min_frequencies();
  loop.best = BdmaResult{};
  loop.best.objective = std::numeric_limits<double>::infinity();
  loop.p2a_shards = 0;
  loop.p2a_shard_counters.clear();
  loop.workspace = &workspace;
}

void bdma_p2a_iterate(const Instance& instance, const SlotState& state,
                      const BdmaConfig& config, std::size_t iteration,
                      util::Rng& rng, BdmaWorkspace& workspace,
                      BdmaLoopState& loop) {
  EOTORA_REQUIRE_MSG(loop.workspace == &workspace,
                     "bdma_p2a_iterate: workspace of another slot");
  counters::active().bdma_iterations += 1;
  WcgComponents& wcg = workspace.problem;
  const std::size_t workers = workers_of(config);
  if (iteration == 0) {
    wcg.build(instance, state, loop.omega, workers);
    P2bLoads& loads = workspace.p2b.loads;
    loads.compute.assign(instance.num_servers(), 0.0);
    loads.access.assign(instance.num_base_stations(), 0.0);
    loads.fronthaul.assign(instance.num_base_stations(), 0.0);
    workspace.profiles.resize(wcg.count());
    workspace.iterations.resize(wcg.count());
  }
  // Line 3: every draw happens here, on the calling thread, in global
  // device (or component) order — the rng stream of the global solve.
  {
    EOTORA_TRACE_SPAN("p2a/draw");
    switch (config.solver) {
      case P2aSolverKind::kCgba:
        if (iteration == 0) wcg.draw_profiles(rng, workspace.profiles);
        break;
      case P2aSolverKind::kMcba:
        workspace.seeds.resize(wcg.count());
        if (wcg.count() > 1) {
          for (std::uint64_t& seed : workspace.seeds) seed = rng.engine()();
        }
        break;
      case P2aSolverKind::kRopt:
        wcg.draw_profiles(rng, workspace.profiles);
        break;
    }
  }
  {
    EOTORA_TRACE_SPAN("shard/solve");
    wcg.solve(workers, loop.p2a_shard_counters, [&](std::size_t c) {
      WcgProblem& problem = wcg.problem(c);
      // Iteration 0 solves at the Ω^L the build installed.
      if (iteration > 0) problem.set_frequencies(instance, loop.omega);
      Profile& profile = workspace.profiles[c];
      SolveResult result;
      switch (config.solver) {
        case P2aSolverKind::kCgba:
          if (iteration == 0) wcg.keep_carried(c, workspace.carried, profile);
          result = cgba_from(problem, config.cgba, std::move(profile),
                             wcg.engine(c));
          break;
        case P2aSolverKind::kMcba:
          if (wcg.count() == 1) {
            // One component: the single chain on the caller's rng (inline).
            result = mcba(problem, config.mcba, rng);
          } else {
            util::Rng chain_rng(workspace.seeds[c]);
            result = mcba(problem, config.mcba, chain_rng);
          }
          break;
        case P2aSolverKind::kRopt:
          result.profile = std::move(profile);
          break;
      }
      profile = std::move(result.profile);
      workspace.iterations[c] = result.iterations;
      sum_loads(problem, profile, workspace.p2b.loads);
    });
  }
  loop.p2a_shards = wcg.count();
  if (config.solver == P2aSolverKind::kRopt) {
    loop.best.p2a_iterations += 1;  // one draw of the whole profile
  } else {
    for (const std::size_t moves : workspace.iterations) {
      loop.best.p2a_iterations += moves;
    }
  }
}

void bdma_p2b_iterate(const Instance& instance, const SlotState& state,
                      double v, double q, const BdmaConfig& config,
                      BdmaWorkspace& workspace, BdmaLoopState& loop) {
  EOTORA_REQUIRE_MSG(loop.workspace == &workspace,
                     "bdma_p2b_iterate: workspace of another slot");
  // Line 4: solve P2-B from the components' load sums; the objective is
  // summed in global resource order, with dpp_objective's bits.
  solve_p2b(instance, state, workspace.p2b.loads, v, q, config.freq_tolerance,
            workspace.p2b, workspace.p2b_result);
  const P2bResult& p2b = workspace.p2b_result;
  // Lines 5-8: keep the best pair by the P2 objective, hand Ω to the next
  // iteration.
  loop.best.objective_history.push_back(p2b.objective);
  if (p2b.objective < loop.best.objective) {
    loop.best.objective = p2b.objective;
    loop.best.frequencies = p2b.frequencies;
    loop.best.latency = p2b.latency;
    loop.best.theta = p2b.theta;
    workspace.best_profiles = workspace.profiles;
  }
  loop.omega = p2b.frequencies;
}

void bdma_finish_slot(const Instance& instance, const SlotState& state,
                      BdmaLoopState& loop) {
  (void)instance;
  (void)state;
  EOTORA_REQUIRE_MSG(loop.workspace != nullptr,
                     "bdma_finish_slot before bdma_begin_slot");
  BdmaWorkspace& workspace = *loop.workspace;
  const bool has_best =
      loop.best.objective < std::numeric_limits<double>::infinity();
  if (has_best) {
    workspace.problem.to_assignment(workspace.best_profiles,
                                    loop.best.assignment);
  }
  // The last iteration is often the best one; its assignment is then
  // already decoded.
  if (has_best && workspace.profiles == workspace.best_profiles) {
    workspace.carried = loop.best.assignment;
  } else {
    workspace.problem.to_assignment(workspace.profiles, workspace.carried);
  }
}

BdmaResult bdma(const Instance& instance, const SlotState& state, double v,
                double q, const BdmaConfig& config, util::Rng& rng) {
  BdmaWorkspace workspace;
  return bdma(instance, state, v, q, config, rng, workspace);
}

BdmaResult bdma(const Instance& instance, const SlotState& state, double v,
                double q, const BdmaConfig& config, util::Rng& rng,
                BdmaWorkspace& workspace) {
  EOTORA_REQUIRE(config.iterations >= 1);
  EOTORA_REQUIRE_MSG(v >= 0.0, "V=" << v);
  EOTORA_REQUIRE_MSG(q >= 0.0, "Q=" << q);

  BdmaLoopState loop;
  bdma_begin_slot(instance, state, workspace, loop);
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    EOTORA_TRACE_SPAN("bdma/iteration");
    bdma_p2a_iterate(instance, state, config, iter, rng, workspace, loop);
    bdma_p2b_iterate(instance, state, v, q, config, workspace, loop);
  }
  bdma_finish_slot(instance, state, loop);
  return std::move(loop.best);
}

}  // namespace eotora::core
