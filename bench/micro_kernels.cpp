// google-benchmark micro suite over the hot paths of the per-slot decision:
// WCG construction, best responses, Lemma 1, latency evaluation, P2-B, and
// full CGBA / BDMA solves at the paper's scale.
#include <benchmark/benchmark.h>

#include "eotora/eotora.h"

namespace {

using namespace eotora;

struct Fixture {
  Fixture() {
    sim::ScenarioConfig config;
    config.devices = 100;
    config.seed = 555;
    scenario = std::make_unique<sim::Scenario>(config);
    for (int warmup = 0; warmup < 3; ++warmup) {
      state = scenario->next_state();
    }
    problem = std::make_unique<core::WcgProblem>(
        scenario->instance(), state,
        scenario->instance().max_frequencies());
    util::Rng rng(1);
    profile = problem->random_profile(rng);
    assignment = problem->to_assignment(profile);
  }

  std::unique_ptr<sim::Scenario> scenario;
  core::SlotState state;
  std::unique_ptr<core::WcgProblem> problem;
  core::Profile profile;
  core::Assignment assignment;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Streaming state generation: the value-returning next_state() builds
// fresh per-device vectors and a fresh channel matrix every slot; the
// in-place overload refills the caller's buffer (sim::ScenarioSource's
// steady state — no per-slot allocations once the shapes stabilize). Both
// draw the same RNG stream, so only allocation behavior differs.
void BM_ScenarioNextStateAlloc(benchmark::State& bench) {
  sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = 777;
  sim::Scenario scenario(config);
  for (auto _ : bench) {
    core::SlotState state = scenario.next_state();
    benchmark::DoNotOptimize(state.price_per_mwh);
  }
}
BENCHMARK(BM_ScenarioNextStateAlloc);

void BM_ScenarioNextStateInPlace(benchmark::State& bench) {
  sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = 777;
  sim::Scenario scenario(config);
  core::SlotState state;
  scenario.next_state(state);  // settle the buffer shapes
  for (auto _ : bench) {
    scenario.next_state(state);
    benchmark::DoNotOptimize(state.price_per_mwh);
  }
}
BENCHMARK(BM_ScenarioNextStateInPlace);

void BM_WcgConstruction(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    core::WcgProblem problem(instance, f.state, instance.max_frequencies());
    benchmark::DoNotOptimize(problem.num_resources());
  }
}
BENCHMARK(BM_WcgConstruction);

// rebuild() reuses the arena/offset/index capacity construction pays for
// every call — compare against BM_WcgConstruction.
void BM_WcgRebuild(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::WcgProblem problem(instance, f.state, instance.max_frequencies());
  for (auto _ : bench) {
    problem.rebuild(instance, f.state, instance.max_frequencies());
    benchmark::DoNotOptimize(problem.num_resources());
  }
}
BENCHMARK(BM_WcgRebuild);

void BM_TotalCost(benchmark::State& bench) {
  auto& f = fixture();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(f.problem->total_cost(f.profile));
  }
}
BENCHMARK(BM_TotalCost);

void BM_BestResponseSweep(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  for (auto _ : bench) {
    double total = 0.0;
    for (std::size_t i = 0; i < f.problem->num_devices(); ++i) {
      total += tracker.best_response(i).cost;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_BestResponseSweep);

void BM_Lemma1Allocation(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::optimal_allocation(instance, f.state, f.assignment));
  }
}
BENCHMARK(BM_Lemma1Allocation);

void BM_ReducedLatency(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::reduced_latency(instance, f.state, f.assignment, freq));
  }
}
BENCHMARK(BM_ReducedLatency);

void BM_P2bSolve(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::solve_p2b(instance, f.state, f.assignment, 100.0, 50.0));
  }
}
BENCHMARK(BM_P2bSolve);

// Kernel-backend before/after pairs: the three core/kernels entry points
// pinned to the scalar reference backend vs the most specialized SIMD
// backend this CPU supports (the dispatch default). On a machine with no
// SIMD backend both arms measure scalar; results are bit-identical either
// way — only the time moves.
class BackendPin {
 public:
  explicit BackendPin(const std::string& name)
      : previous_(core::kernels::backend_name()) {
    core::kernels::set_backend(name);
  }
  ~BackendPin() { core::kernels::set_backend(previous_); }

 private:
  std::string previous_;
};

std::string simd_backend_name() {
  return core::kernels::available_backends().back()->name;
}

// best_response_scan: a full best-response sweep through the incremental
// engine (the CGBA hot path — every candidate cost comes off the kernel).
void engine_sweep_bench(benchmark::State& bench, const std::string& backend) {
  auto& f = fixture();
  const BackendPin pin(backend);
  core::LoadTracker tracker(*f.problem, f.profile);
  core::BestResponseEngine engine(tracker);
  for (auto _ : bench) {
    double total = 0.0;
    for (std::size_t i = 0; i < f.problem->num_devices(); ++i) {
      total += engine.best_response(i).cost;
    }
    benchmark::DoNotOptimize(total);
  }
}
void BM_KernelScanScalar(benchmark::State& bench) {
  engine_sweep_bench(bench, "scalar");
}
BENCHMARK(BM_KernelScanScalar);
void BM_KernelScanSimd(benchmark::State& bench) {
  engine_sweep_bench(bench, simd_backend_name());
}
BENCHMARK(BM_KernelScanSimd);

// lemma1_batch: the workspace overload, allocation-free.
void lemma1_batch_bench(benchmark::State& bench, const std::string& backend) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const BackendPin pin(backend);
  core::Lemma1Workspace workspace;
  core::ResourceAllocation out;
  for (auto _ : bench) {
    core::optimal_allocation(instance, f.state, f.assignment, workspace, out);
    benchmark::DoNotOptimize(out.phi.data());
  }
}
void BM_KernelLemma1Scalar(benchmark::State& bench) {
  lemma1_batch_bench(bench, "scalar");
}
BENCHMARK(BM_KernelLemma1Scalar);
void BM_KernelLemma1Simd(benchmark::State& bench) {
  lemma1_batch_bench(bench, simd_backend_name());
}
BENCHMARK(BM_KernelLemma1Simd);

// p2b_batch: the workspace overload — sqrt-chain load build plus the
// lockstep lanes of the batched frequency bisection.
void p2b_batch_bench(benchmark::State& bench, const std::string& backend) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const BackendPin pin(backend);
  core::P2bWorkspace workspace;
  core::P2bResult result;
  for (auto _ : bench) {
    core::solve_p2b(instance, f.state, f.assignment, 100.0, 50.0, 1e-7,
                    workspace, result);
    benchmark::DoNotOptimize(result.objective);
  }
}
void BM_KernelP2bScalar(benchmark::State& bench) {
  p2b_batch_bench(bench, "scalar");
}
BENCHMARK(BM_KernelP2bScalar);
void BM_KernelP2bSimd(benchmark::State& bench) {
  p2b_batch_bench(bench, simd_backend_name());
}
BENCHMARK(BM_KernelP2bSimd);

void BM_CgbaSolve(benchmark::State& bench) {
  auto& f = fixture();
  util::Rng rng(2);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::cgba(*f.problem, core::CgbaConfig{}, rng));
  }
}
BENCHMARK(BM_CgbaSolve);

// Cached BestResponseEngine vs the retained naive full-rescan oracle, same
// warm start, both selection rules. The pairs produce bit-identical
// SolveResults (tests/test_wcg_incremental.cpp); only the time differs.
void cgba_selection_bench(benchmark::State& bench,
                          core::CgbaSelection selection, bool naive) {
  auto& f = fixture();
  core::CgbaConfig config;
  config.selection = selection;
  config.naive_scan = naive;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(core::cgba_from(*f.problem, config, f.profile));
  }
}
void BM_CgbaMaxGapCached(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kMaxGap, false);
}
BENCHMARK(BM_CgbaMaxGapCached);
void BM_CgbaMaxGapNaive(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kMaxGap, true);
}
BENCHMARK(BM_CgbaMaxGapNaive);
void BM_CgbaRoundRobinCached(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kRoundRobin, false);
}
BENCHMARK(BM_CgbaRoundRobinCached);
void BM_CgbaRoundRobinNaive(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kRoundRobin, true);
}
BENCHMARK(BM_CgbaRoundRobinNaive);

// MCBA with the O(1) delta_cost accept test vs the O(num_resources)
// total_cost_if_moved oracle.
void mcba_bench(benchmark::State& bench, bool naive) {
  auto& f = fixture();
  core::McbaConfig config;
  config.iterations = 20000;
  config.naive_scan = naive;
  for (auto _ : bench) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(core::mcba(*f.problem, config, rng));
  }
}
void BM_McbaFast(benchmark::State& bench) { mcba_bench(bench, false); }
BENCHMARK(BM_McbaFast);
void BM_McbaNaive(benchmark::State& bench) { mcba_bench(bench, true); }
BENCHMARK(BM_McbaNaive);

// The raw per-proposal evaluators behind the MCBA pair.
void BM_DeltaCost(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  util::Rng rng(5);
  for (auto _ : bench) {
    const std::size_t device = rng.index(f.problem->num_devices());
    const std::size_t option = rng.index(f.problem->options(device).size());
    benchmark::DoNotOptimize(tracker.delta_cost(device, option));
  }
}
BENCHMARK(BM_DeltaCost);

void BM_TotalCostIfMoved(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  util::Rng rng(5);
  for (auto _ : bench) {
    const std::size_t device = rng.index(f.problem->num_devices());
    const std::size_t option = rng.index(f.problem->options(device).size());
    benchmark::DoNotOptimize(tracker.total_cost_if_moved(device, option));
  }
}
BENCHMARK(BM_TotalCostIfMoved);

void BM_BdmaSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  util::Rng rng(3);
  core::BdmaConfig config;
  config.iterations = 5;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::bdma(instance, f.state, 100.0, 50.0, config, rng));
  }
}
BENCHMARK(BM_BdmaSlot);

void BM_FrankWolfeLowerBound(benchmark::State& bench) {
  auto& f = fixture();
  core::RelaxationConfig config;
  config.max_iterations = 200;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(core::fractional_lower_bound(*f.problem, config));
  }
}
BENCHMARK(BM_FrankWolfeLowerBound);

void BM_DesStaticSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, f.state, f.assignment);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        des::simulate_slot(instance, f.state, f.assignment, freq, alloc,
                           des::SharingDiscipline::kStaticShares));
  }
}
BENCHMARK(BM_DesStaticSlot);

// Observability overhead gate: the full per-slot decide loop (run_policy
// over a streamed scenario) with tracing + counters disabled vs enabled.
// The instrumented variant pays the live cost of every span, counter
// increment, and phase timer on the hot path; CI asserts the ratio stays
// under 2% (ISSUE 5 acceptance gate). The trace buffer is cleared per
// iteration so memory stays bounded across benchmark repetitions.
void decide_loop_bench(benchmark::State& bench, bool traced) {
  sim::ScenarioConfig config;
  config.devices = 40;
  config.seed = 999;
  constexpr std::size_t kSlots = 24;
  const bool was_enabled = util::trace::enabled();
  for (auto _ : bench) {
    util::trace::set_enabled(traced);
    sim::ScenarioSource source(config, kSlots);
    auto policy = sim::make_policy("dpp-bdma", source.instance(),
                                   sim::PolicyParams{});
    const auto result =
        sim::run_policy(*policy, source, 1, /*keep_series=*/false);
    benchmark::DoNotOptimize(result.counters.bdma_iterations);
    util::trace::set_enabled(was_enabled);
    if (traced) util::trace::clear();
  }
}
void BM_DecideLoopUninstrumented(benchmark::State& bench) {
  decide_loop_bench(bench, false);
}
BENCHMARK(BM_DecideLoopUninstrumented);
void BM_DecideLoopInstrumented(benchmark::State& bench) {
  decide_loop_bench(bench, true);
}
BENCHMARK(BM_DecideLoopInstrumented);

void BM_DesProcessorSharingSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, f.state, f.assignment);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        des::simulate_slot(instance, f.state, f.assignment, freq, alloc,
                           des::SharingDiscipline::kProcessorSharing));
  }
}
BENCHMARK(BM_DesProcessorSharingSlot);

}  // namespace

BENCHMARK_MAIN();
