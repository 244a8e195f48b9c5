#include "core/cgba.h"

#include <cstdint>
#include <utility>

#include "core/counters.h"
#include "util/check.h"

namespace eotora::core {

namespace {

// The best-response dynamics shared by the cached (BestResponseEngine) and
// naive (full LoadTracker rescan) paths. Both paths feed it best responses
// with identical bits — the engine's cache invariant guarantees
// engine.best_response(i) == tracker.best_response(i) bitwise — so the two
// modes take identical move sequences and land on identical profiles and
// costs. `best_response(i)` must return LoadTracker::BestResponse; `move(i,
// o)` must apply the move to the tracker (and, in cached mode, invalidate).
template <typename BestResponseFn, typename MoveFn>
SolveResult run_cgba(const CgbaConfig& config, LoadTracker& tracker,
                     std::size_t devices, BestResponseFn&& best_response,
                     MoveFn&& move) {
  SolveResult result;
  result.converged = false;
  // Rounds = full best-response passes (round-robin sweeps or max-gap
  // argmax scans); moves = responses that changed an option. Accumulated
  // locally and flushed once so the hot loop touches no TLS.
  std::uint64_t rounds = 0;

  if (config.selection == CgbaSelection::kRoundRobin) {
    // Sweep players in index order until one full pass makes no move.
    bool any_moved = true;
    while (any_moved && result.iterations < config.max_moves) {
      any_moved = false;
      ++rounds;
      for (std::size_t i = 0; i < devices; ++i) {
        const LoadTracker::BestResponse br = best_response(i);
        const double threshold = (1.0 - config.lambda) * br.current_cost -
                                 config.rel_epsilon * br.current_cost;
        if (br.cost < threshold) {
          move(i, br.option_index);
          ++result.iterations;
          any_moved = true;
          if (result.iterations >= config.max_moves) break;
        }
      }
    }
    result.converged = !any_moved;
    result.profile = tracker.profile();
    result.cost = tracker.total_cost();
    counters::active().cgba_rounds += rounds;
    counters::active().cgba_moves += result.iterations;
    return result;
  }

  for (std::size_t moves = 0; moves < config.max_moves; ++moves) {
    ++rounds;
    // Line 3 of Algorithm 3: the player with the largest improvement.
    std::size_t best_device = devices;  // sentinel: nobody wants to move
    std::size_t best_option = 0;
    double best_gap = 0.0;
    for (std::size_t i = 0; i < devices; ++i) {
      const LoadTracker::BestResponse br = best_response(i);
      // Termination test (line 2): move only when
      // (1 - λ) * T_i  >  min_z T_i, with a relative floor against FP noise.
      const double threshold = (1.0 - config.lambda) * br.current_cost -
                               config.rel_epsilon * br.current_cost;
      if (br.cost >= threshold) continue;
      const double gap = br.current_cost - br.cost;
      if (gap > best_gap) {
        best_gap = gap;
        best_device = i;
        best_option = br.option_index;
      }
    }
    if (best_device == devices) {
      result.converged = true;
      break;
    }
    move(best_device, best_option);
    ++result.iterations;
  }
  // If the cap was hit without reaching equilibrium we still return the best
  // profile found; callers can inspect `converged`.
  result.profile = tracker.profile();
  result.cost = tracker.total_cost();
  counters::active().cgba_rounds += rounds;
  counters::active().cgba_moves += result.iterations;
  return result;
}

}  // namespace

SolveResult cgba(const WcgProblem& problem, const CgbaConfig& config,
                 util::Rng& rng) {
  return cgba_from(problem, config, problem.random_profile(rng));
}

SolveResult cgba_from(const WcgProblem& problem, const CgbaConfig& config,
                      Profile initial, std::vector<double>* final_loads) {
  BestResponseEngine engine;
  return cgba_from(problem, config, std::move(initial), engine, final_loads);
}

SolveResult cgba_from(const WcgProblem& problem, const CgbaConfig& config,
                      Profile initial, BestResponseEngine& engine,
                      std::vector<double>* final_loads) {
  EOTORA_REQUIRE_MSG(config.lambda >= 0.0 && config.lambda < 0.125,
                     "lambda=" << config.lambda);
  EOTORA_REQUIRE(config.max_moves > 0);
  LoadTracker tracker(problem, std::move(initial));
  const std::size_t devices = problem.num_devices();

  SolveResult result;
  if (config.naive_scan) {
    result = run_cgba(
        config, tracker, devices,
        [&](std::size_t i) { return tracker.best_response(i); },
        [&](std::size_t i, std::size_t o) { tracker.move(i, o); });
  } else {
    if (!engine.bound_to(problem)) {
      engine.bind(problem);
      counters::active().engine_rebuilds += 1;
    }
    engine.reset(tracker);
    result = run_cgba(
        config, tracker, devices,
        [&](std::size_t i) { return engine.best_response(i); },
        [&](std::size_t i, std::size_t o) { engine.move(i, o); });
    counters::active().engine_term_refreshes += engine.term_refreshes();
  }
  if (final_loads != nullptr) {
    final_loads->assign(tracker.loads().begin(), tracker.loads().end());
  }
  return result;
}

}  // namespace eotora::core
