#include "core/counters.h"

#include "util/json.h"

namespace eotora::core::counters {

namespace {
thread_local SolverCounters t_dummy;
thread_local SolverCounters* t_active = nullptr;
}  // namespace

void SolverCounters::merge(const SolverCounters& other) {
  cgba_rounds += other.cgba_rounds;
  cgba_moves += other.cgba_moves;
  mcba_proposals += other.mcba_proposals;
  mcba_accepted += other.mcba_accepted;
  bdma_iterations += other.bdma_iterations;
  engine_rebuilds += other.engine_rebuilds;
  engine_term_refreshes += other.engine_term_refreshes;
  lemma1_evaluations += other.lemma1_evaluations;
  component_finds += other.component_finds;
  component_reuses += other.component_reuses;
  arena_precomputes += other.arena_precomputes;
  arena_precompute_reuses += other.arena_precompute_reuses;
  arena_device_builds += other.arena_device_builds;
  arena_device_reuses += other.arena_device_reuses;
}

bool SolverCounters::operator==(const SolverCounters& other) const {
  return cgba_rounds == other.cgba_rounds && cgba_moves == other.cgba_moves &&
         mcba_proposals == other.mcba_proposals &&
         mcba_accepted == other.mcba_accepted &&
         bdma_iterations == other.bdma_iterations &&
         engine_rebuilds == other.engine_rebuilds &&
         engine_term_refreshes == other.engine_term_refreshes &&
         lemma1_evaluations == other.lemma1_evaluations &&
         component_finds == other.component_finds &&
         component_reuses == other.component_reuses &&
         arena_precomputes == other.arena_precomputes &&
         arena_precompute_reuses == other.arena_precompute_reuses &&
         arena_device_builds == other.arena_device_builds &&
         arena_device_reuses == other.arena_device_reuses;
}

util::Json SolverCounters::to_json() const {
  // Counter magnitudes stay far below 2^53, so the double-backed Json
  // number type holds them exactly and dumps them as integers.
  util::Json out = util::Json::object();
  out["cgba_rounds"] = cgba_rounds;
  out["cgba_moves"] = cgba_moves;
  out["mcba_proposals"] = mcba_proposals;
  out["mcba_accepted"] = mcba_accepted;
  out["bdma_iterations"] = bdma_iterations;
  out["engine_rebuilds"] = engine_rebuilds;
  out["engine_term_refreshes"] = engine_term_refreshes;
  out["lemma1_evaluations"] = lemma1_evaluations;
  out["component_finds"] = component_finds;
  out["component_reuses"] = component_reuses;
  out["arena_precomputes"] = arena_precomputes;
  out["arena_precompute_reuses"] = arena_precompute_reuses;
  out["arena_device_builds"] = arena_device_builds;
  out["arena_device_reuses"] = arena_device_reuses;
  return out;
}

SolverCounters& active() {
  return t_active != nullptr ? *t_active : t_dummy;
}

Scope::Scope(SolverCounters& sink) : previous_(t_active) { t_active = &sink; }

Scope::~Scope() { t_active = previous_; }

}  // namespace eotora::core::counters
