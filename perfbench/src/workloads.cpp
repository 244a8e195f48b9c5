#include "workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/counters.h"
#include "serve/codec.h"
#include "serve/server.h"
#include "sim/audit.h"
#include "sim/registry.h"
#include "sim/simulator.h"
#include "trace/price_trace.h"
#include "util/memory.h"
#include "util/stats.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

namespace core = eotora::core;
namespace serve = eotora::serve;
namespace sim = eotora::sim;
namespace util = eotora::util;

namespace {

constexpr const char* kPolicy = "dpp-bdma";
// The traced run repeats set-up at least kSetupRepeats times and until
// kSetupSeconds have been spent; every run reports the median.
constexpr std::size_t kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.5;
// The rng seed run_policy and ServeLoop hand to Policy::step by default, so
// the batch drains, the serve loop and its batch replay see one stream.
constexpr std::uint64_t kStepSeed = 1;
constexpr std::size_t kAuditPeriod = 16;
// Speeds the workloads are sized by, so that a run's passes take about
// --seconds on a 4-core x86-64 VM: closed-loop batch slots per second.
constexpr double kPaperRate = 500.0;
constexpr double kMetroRate = 5.0;
// serve-sparse-100: offered load and the latency limit a slot may take from
// its due time to its decision. Closed-loop capacity is about 650 slots/s
// on a 4-core x86-64 VM, so 250 slots/s is about 40% load: enough headroom
// that the run-to-run swings in CPU speed of a shared host (up to 2x, for
// seconds) do not turn into an unbounded backlog. The limit is about twice
// the p99 measured there.
constexpr double kServeRate = 250.0;
constexpr double kServeLimitMs = 5.0;

struct Spec {
  std::string name;
  sim::ScenarioConfig scenario;  // the seed is set per instance
  sim::PolicyParams params;
  std::uint64_t seed = 1;
  // Scenarios a pass goes through. At 100 devices one drawn topology moves
  // decide time by about 7% and average latency by about 15% from seed to
  // seed; several per run average that out, where one metro layout
  // averages 64 districts.
  std::size_t instances = 1;
  // An end-to-end run goes through every instance `passes` times and
  // reports the timing statistics of each slot's fastest pass
  // (slotwise_min). A shared host's CPU speed swings by up to 2x in phases
  // of several seconds; the passes of a slot lie seconds apart and, where
  // pinned, on different CPUs, so one of them usually meets a fast phase.
  std::size_t passes = 1;
  std::size_t slots = 0;  // per batch drain, or per instance's serve stream
  bool serve = false;

  // Sizes `slots` so that the passes take about `seconds` at `rate` slots
  // per second.
  void size_for(double seconds, double rate) {
    slots = static_cast<std::size_t>(std::llround(
        seconds * rate / static_cast<double>(passes * instances)));
    if (slots < 2 * kTailBeyond) {
      throw std::invalid_argument("--seconds is too short for workload " +
                                  name);
    }
  }
};

// Instance k of a run draws its scenario from seed * instances + k, so runs
// with different seeds share no instance.
sim::ScenarioConfig scenario_for(const Spec& spec, std::size_t k) {
  sim::ScenarioConfig config = spec.scenario;
  config.seed = spec.seed * spec.instances + k;
  return config;
}

Spec make_spec(const Options& options) {
  Spec spec;
  spec.name = options.workload;
  spec.seed = options.seed;
  spec.params.v = 100.0;
  spec.params.bdma_iterations = 5;
  if (spec.name == "paper-100") {
    spec.scenario.devices = 100;
    spec.instances = 16;
    spec.passes = 5;
    spec.size_for(options.seconds, kPaperRate);
  } else if (spec.name == "metro-10k") {
    spec.scenario.devices = 10000;
    spec.scenario.metro_districts = 64;
    spec.scenario.servers_per_cluster = 8;
    // The paper's $1/slot for 16 servers, scaled to the layout's 512: at
    // $1/slot no frequency choice meets the budget.
    spec.scenario.budget_per_slot = 1.0 * 64.0 * 8.0 / 16.0;
    const std::size_t nproc =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    spec.params.shard_workers = std::min<std::size_t>(4, nproc);
    // Four passes keep 38 slots a drain at 30 s, enough for a p75 tail.
    spec.passes = 4;
    spec.size_for(options.seconds, kMetroRate);
  } else if (spec.name == "serve-sparse-100") {
    spec.scenario.devices = 100;
    spec.serve = true;
    // Twice the passes of paper-100 over half the instances: serve timings
    // spike more (two threads, queueing), and the tails need the fastest
    // of more passes.
    spec.instances = 8;
    spec.passes = 10;
    spec.size_for(options.seconds, kServeRate);
  } else {
    std::string known;
    for (const auto& name : workload_names()) known += " " + name;
    throw std::invalid_argument("unknown workload '" + spec.name +
                                "'; known:" + known);
  }
  return spec;
}

// A scenario source and the policy bound to its instance. The policy holds
// the instance, and ScenarioSource::reset() rebuilds it, so a drain that
// replays a stream builds a fresh pair instead of resetting the source.
struct Bound {
  std::unique_ptr<sim::ScenarioSource> source;
  std::unique_ptr<sim::Policy> policy;

  // Returns the seconds the scenario and the policy took to build.
  std::pair<double, double> build(const Spec& spec, std::size_t k) {
    // The policy holds the instance, so it goes first.
    policy.reset();
    source.reset();
    const auto t0 = Clock::now();
    source =
        std::make_unique<sim::ScenarioSource>(scenario_for(spec, k), spec.slots);
    const auto t1 = Clock::now();
    policy = sim::make_policy(kPolicy, source->instance(), spec.params);
    const auto t2 = Clock::now();
    return {seconds_between(t0, t1), seconds_between(t1, t2)};
  }
};

// What setup_s times, on the run's first instance: the scenario with its
// instance, the policy, and the first slot (its state and its decision,
// which sizes the solver's workspaces). Building the paper scenario alone
// takes about 0.1 ms and changes by up to 1.7x from one process to the
// next with the heap's layout; the first decision makes set-up long enough
// to time.
// An end-to-end run sets up once before every drain (every stream, for
// serve), on that drain's CPU, so the repetitions spread over the run's
// phases of host speed as its drains do.
struct Setup {
  std::vector<double> scenario_s;
  std::vector<double> policy_s;
  std::vector<double> first_slot_s;
  std::vector<double> total_s;

  void time_once(const Spec& spec) {
    Bound bound;
    const auto [scenario, policy] = bound.build(spec, 0);
    const auto t0 = Clock::now();
    core::SlotState state;
    util::Rng rng(kStepSeed);
    if (!bound.source->next(state)) throw std::logic_error("empty workload");
    (void)bound.policy->step(state, rng);
    const double first_slot = seconds_between(t0, Clock::now());
    scenario_s.push_back(scenario);
    policy_s.push_back(policy);
    first_slot_s.push_back(first_slot);
    total_s.push_back(scenario + policy + first_slot);
  }
};

// The traced run's set-up, repeated in one go.
Setup time_setup(const Spec& spec) {
  Setup setup;
  double spent = 0.0;
  while (setup.total_s.size() < kSetupRepeats || spent < kSetupSeconds) {
    setup.time_once(spec);
    spent += setup.total_s.back();
  }
  return setup;
}

// Slater's condition for the budget constraint: even at F^L the expected
// cost must stay under C̄, or DPP's queue grows without bound and the
// workload measures an invalid model. Checked for every instance before
// anything runs.
void check_feasible(const Spec& spec, std::ostream& log) {
  eotora::trace::PriceTraceConfig price = spec.scenario.price;
  price.period = spec.scenario.period;
  const eotora::trace::PriceTrace trend(price, util::Rng(0));
  double mean_price = 0.0;
  for (std::size_t t = 0; t < price.period; ++t) mean_price += trend.trend_at(t);
  mean_price /= static_cast<double>(price.period);
  double worst = 0.0;
  for (std::size_t k = 0; k < spec.instances; ++k) {
    const sim::Scenario scenario(scenario_for(spec, k));
    const core::Instance& instance = scenario.instance();
    worst = std::max(
        worst, instance.energy_cost(instance.min_frequencies(), mean_price));
  }
  log << "feasibility: budget " << spec.scenario.budget_per_slot
      << " $/slot, highest cost at F^L and mean price " << mean_price
      << " $/MWh is " << worst << " $/slot\n";
  if (!(spec.scenario.budget_per_slot > worst)) {
    throw std::runtime_error("workload " + spec.name +
                             " is infeasible: its budget does not cover the "
                             "energy cost at the lowest frequencies");
  }
}

double state_bytes(const core::SlotState& state) {
  std::size_t doubles = state.task_cycles.size() + state.data_bits.size();
  for (const auto& row : state.channel) doubles += row.size();
  return static_cast<double>(doubles * sizeof(double));
}

double sigma_bytes(const core::Instance& instance) {
  return static_cast<double>(instance.num_devices() * instance.num_servers() *
                             sizeof(double));
}

// Hands the heap's free pages back to the system. The pool threads of a
// sharded policy keep what they freed in arenas of their own, so without
// this the peak RSS of a run depends on how its earlier drains happened to
// spread over those arenas.
void trim_heap() {
#if defined(__GLIBC__)
  (void)malloc_trim(0);
#endif
}

double peak_rss_mib() {
  return static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

std::vector<double> milliseconds(const std::vector<Clock::time_point>& from,
                                 const std::vector<Clock::time_point>& to) {
  std::vector<double> out(std::min(from.size(), to.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = 1e3 * seconds_between(from[i], to[i]);
  }
  return out;
}

sim::AuditConfig sampled_audit() {
  sim::AuditConfig config;
  config.mode = sim::AuditMode::kSampled;
  config.sample_period = kAuditPeriod;
  return config;
}

void check_audit(const sim::AuditReport& report, RunResult& out) {
  if (!report.clean()) {
    out.fail(report.slots_with_violations, "audit: " + report.summary());
  }
}

// ---- batch workloads ----------------------------------------------------

// One closed-loop drain of a fresh source: each slot is due when the
// previous decision returns, then pulls its state and decides.
struct Drain {
  std::vector<double> decide_ms;  // Policy::step
  std::vector<double> slot_ms;    // state pull + step
  double seconds = 0.0;           // the drain: state + decide, no audit
  core::MetricsCollector metrics;
};

Drain drain(sim::StateSource& source, sim::Policy& policy,
            sim::SlotAuditor* auditor) {
  Drain out;
  out.metrics.set_keep_series(false);
  policy.reset();
  util::Rng rng(kStepSeed);
  core::SlotState state;
  for (;;) {
    const auto due = Clock::now();
    if (!source.next(state)) break;
    const auto pulled = Clock::now();
    const core::DppSlotResult result = policy.step(state, rng);
    const auto done = Clock::now();
    out.decide_ms.push_back(1e3 * seconds_between(pulled, done));
    out.slot_ms.push_back(1e3 * seconds_between(due, done));
    out.seconds += seconds_between(due, done);
    out.metrics.record(result);
    if (auditor != nullptr) auditor->observe(state, result);
  }
  return out;
}

// Per-slot latencies of each instance's passes, and the quality of each
// instance.
struct Passes {
  // [instance][pass][slot]
  std::vector<std::vector<std::vector<double>>> decide_ms;
  std::vector<std::vector<std::vector<double>>> slot_ms;
  std::vector<double> avg_latency;  // per instance
  std::vector<double> cost_ratio;   // per instance, over the budget

  explicit Passes(std::size_t instances)
      : decide_ms(instances), slot_ms(instances) {}
};

double tail(const std::vector<double>& xs) {
  return util::percentile(xs, tail_percentile(xs.size()));
}

// Pools each instance's per-slot fastest pass and reports the end-to-end
// metrics, every timing scaled by `speed`. `served_rate` is the serve
// workload's rate, set by its schedule and reported as measured; a batch
// workload's rate is the pooled slots over their summed time.
void add_end_to_end(const Setup& setup, const Passes& passes,
                    const HostSpeed& speed, std::optional<double> served_rate,
                    RunResult& out, std::ostream& log) {
  std::vector<double> decide_ms;
  std::vector<double> slot_ms;
  std::vector<double> decide_tails;
  std::vector<double> slot_tails;
  for (std::size_t k = 0; k < passes.slot_ms.size(); ++k) {
    if (passes.slot_ms[k].empty()) continue;  // every pass failed
    const std::vector<double> decide = slotwise_min(passes.decide_ms[k]);
    const std::vector<double> slot = slotwise_min(passes.slot_ms[k]);
    log << "instance " << k << ": " << passes.slot_ms[k].size()
        << " passes, mean decide " << util::mean(decide) << " ms, mean slot "
        << util::mean(slot) << " ms\n";
    decide_ms.insert(decide_ms.end(), decide.begin(), decide.end());
    slot_ms.insert(slot_ms.end(), slot.begin(), slot.end());
    decide_tails.push_back(tail(decide));
    slot_tails.push_back(tail(slot));
  }
  if (slot_ms.empty()) throw std::runtime_error("no pass completed");
  log << "medians over " << slot_ms.size() << " slots; tails are p"
      << tail_percentile(slot_ms.size() / decide_tails.size())
      << " per instance, averaged over " << decide_tails.size()
      << " instances\n";
  double total_ms = 0.0;
  for (const double ms : slot_ms) total_ms += ms;
  const double scale = speed.scale();
  log << "host speed: reference " << speed.reference_ms() << " ms (nominal "
      << HostSpeed::kReferenceMs << "), timings scaled by " << scale
      << "; unscaled decide p50 " << median(decide_ms) << " ms, slot p50 "
      << median(slot_ms) << " ms, setup " << median(setup.total_s) << " s\n";
  out.add("setup_s", scale * median(setup.total_s), "s");
  out.add("slots_per_sec",
          served_rate.value_or(1e3 * static_cast<double>(slot_ms.size()) /
                               (scale * total_ms)),
          "1/s");
  out.add("decide_p50_ms", scale * median(decide_ms), "ms");
  out.add("decide_tail_ms", scale * util::mean(decide_tails), "ms");
  out.add("slot_p50_ms", scale * median(slot_ms), "ms");
  out.add("slot_tail_ms", scale * util::mean(slot_tails), "ms");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.add("avg_latency_s", util::mean(passes.avg_latency), "s");
  out.add("cost_over_budget", util::mean(passes.cost_ratio), "ratio");
}

// Drains every instance once per pass, pass p of instance k on CPU p + k of
// the rotation unless the policy shards over worker threads. A repeated
// drain must reproduce its instance's first one bit for bit.
RunResult batch_end_to_end(const Spec& spec, std::ostream& log) {
  RunResult out;
  Setup setup;
  const CpuRotation cpus;
  const bool pinned = spec.params.shard_workers == 0;
  Passes passes(spec.instances);
  HostSpeed speed;
  std::vector<core::MetricsCollector> first(spec.instances);
  for (std::size_t p = 0; p < spec.passes; ++p) {
    for (std::size_t k = 0; k < spec.instances; ++k) {
      if (pinned) cpus.pin(p + k);
      trim_heap();
      setup.time_once(spec);
      trim_heap();
      speed.sample();
      Bound bound;
      (void)bound.build(spec, k);
      std::optional<sim::SlotAuditor> auditor;
      if (p == 0) auditor.emplace(bound.source->instance(), sampled_audit());
      Drain run = drain(*bound.source, *bound.policy,
                        auditor ? &*auditor : nullptr);
      out.attempted += run.decide_ms.size();
      passes.decide_ms[k].push_back(std::move(run.decide_ms));
      passes.slot_ms[k].push_back(std::move(run.slot_ms));
      if (auditor) {
        check_audit(auditor->report(), out);
        first[k] = run.metrics;
        passes.avg_latency.push_back(run.metrics.average_latency());
        passes.cost_ratio.push_back(run.metrics.average_energy_cost() /
                                    spec.scenario.budget_per_slot);
      } else if (!same_bits(run.metrics.average_latency(),
                            first[k].average_latency()) ||
                 !same_bits(run.metrics.average_energy_cost(),
                            first[k].average_energy_cost())) {
        out.fail(spec.slots, "a repeated drain changed its decisions");
      }
    }
  }
  add_end_to_end(setup, passes, speed, std::nullopt, out, log);
  return out;
}

// Per-layer metrics that only the serve workload produces, zero elsewhere.
struct ServeLayers {
  double decode_us = 0.0;
  double wire_bytes = 0.0;
  double devices_touched = 0.0;
  double apply_us = 0.0;
  double wait_p50_ms = 0.0;
  double wait_tail_ms = 0.0;
  double decide_p50_ms = 0.0;
  double ring_depth_max = 0.0;
  double late_max_ms = 0.0;
};

// Everything the traced batch drain measures about the decide layers.
struct DecideLayers {
  std::size_t slots = 0;
  double decide_seconds = 0.0;  // the registry policy's step()
  double state_bytes = 0.0;
  double options = 0.0;  // per slot
  std::size_t shards = 0;
  double shard_skew = 0.0;
  double audit_violations = 0.0;
};

// The layers that make up one decision, as the shadow times them.
const std::vector<std::size_t>& decide_layers() {
  static const std::vector<std::size_t> layers = {
      kWcgLayer, kP2aLayer, kP2bLayer, kDecisionOutLayer};
  return layers;
}

void add_layers(const Setup& setup, const core::Instance& instance,
                const LayerClock* clock, const DecideLayers& decide,
                const ServeLayers& serve, double overhead, RunResult& out) {
  const auto self_ms = [&](Layer layer) {
    if (clock == nullptr || decide.slots == 0) return 0.0;
    return 1e3 * clock->self_seconds(layer) /
           static_cast<double>(decide.slots);
  };
  core::counters::SolverCounters counters;
  if (clock != nullptr) counters = clock->counters_of(decide_layers());
  const double state_s =
      clock == nullptr ? 0.0 : clock->self_seconds(kStateLayer);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  out.add("setup.scenario_s", median(setup.scenario_s), "s");
  out.add("setup.policy_s", median(setup.policy_s), "s");
  out.add("setup.first_slot_s", median(setup.first_slot_s), "s");
  out.add("scenario.state_ms", self_ms(kStateLayer), "ms");
  out.add("scenario.state_share",
          state_s > 0.0 ? state_s / (state_s + decide.decide_seconds) : 0.0,
          "ratio");
  out.add("scenario.state_bytes", decide.state_bytes, "B");
  out.add("instance.sigma_bytes", sigma_bytes(instance), "B");
  out.add("wcg.rebuild_ms", self_ms(kWcgLayer), "ms");
  out.add("wcg.options", decide.options, "count");
  out.add("wcg.component_finds", count(counters.component_finds), "count");
  out.add("wcg.component_reuses", count(counters.component_reuses), "count");
  out.add("wcg.arena_precompute_reuses",
          count(counters.arena_precompute_reuses), "count");
  out.add("p2a.solve_ms", self_ms(kP2aLayer), "ms");
  out.add("p2a.cgba_rounds", count(counters.cgba_rounds), "count");
  out.add("p2a.cgba_moves", count(counters.cgba_moves), "count");
  out.add("p2a.move_ratio",
          counters.cgba_rounds > 0 ? count(counters.cgba_moves) /
                                         count(counters.cgba_rounds)
                                   : 0.0,
          "ratio");
  out.add("p2a.engine_rebuilds", count(counters.engine_rebuilds), "count");
  out.add("p2a.engine_term_refreshes", count(counters.engine_term_refreshes),
          "count");
  out.add("p2a.shards", static_cast<double>(decide.shards), "count");
  out.add("p2a.shard_skew", decide.shard_skew, "ratio");
  out.add("p2b.solve_ms", self_ms(kP2bLayer), "ms");
  out.add("decision_out.ms", self_ms(kDecisionOutLayer), "ms");
  out.add("lemma1.evaluations", count(counters.lemma1_evaluations), "count");
  out.add("decide.unattributed_frac",
          clock == nullptr || decide.slots == 0
              ? 0.0
              : unattributed_frac(decide.decide_seconds, *clock,
                                  decide_layers()),
          "ratio");
  out.add("audit.ms_per_slot", self_ms(kAuditLayer), "ms");
  out.add("audit.violations", decide.audit_violations, "count");
  out.add("ingest.decode_us", serve.decode_us, "us");
  out.add("ingest.wire_bytes", serve.wire_bytes, "B");
  out.add("ingest.devices_touched", serve.devices_touched, "count");
  out.add("ingest.apply_us", serve.apply_us, "us");
  out.add("serve.wait_p50_ms", serve.wait_p50_ms, "ms");
  out.add("serve.wait_tail_ms", serve.wait_tail_ms, "ms");
  out.add("serve.decide_p50_ms", serve.decide_p50_ms, "ms");
  out.add("serve.ring_depth_max", serve.ring_depth_max, "count");
  out.add("loadgen.late_max_ms", serve.late_max_ms, "ms");
  out.add("trace.overhead", overhead, "ratio");
}

// Traces the run's first instance: one untraced drain for the overhead,
// then a drain with the shadow decide beside every step().
RunResult batch_traced(const Spec& spec) {
  RunResult out;
  const Setup setup = time_setup(spec);
  Bound bound;
  (void)bound.build(spec, 0);
  const Drain untraced = drain(*bound.source, *bound.policy, nullptr);
  (void)bound.build(spec, 0);
  sim::ScenarioSource& source = *bound.source;
  sim::Policy& policy = *bound.policy;
  const core::Instance& instance = source.instance();

  LayerClock clock(kLayerCount);
  ShadowDecider shadow(instance,
                       sim::dpp_config_from(spec.params,
                                            core::P2aSolverKind::kCgba));
  sim::SlotAuditor auditor(instance, sampled_audit());
  core::counters::SolverCounters step_counters;
  DecideLayers decide;
  std::size_t mismatches = 0;

  policy.reset();
  util::Rng rng(kStepSeed);
  core::SlotState state;
  const auto start = Clock::now();
  for (;;) {
    bool more = false;
    {
      const LayerClock::Span span(clock, kStateLayer);
      more = source.next(state);
    }
    if (!more) break;
    util::Rng shadow_rng = rng;
    const auto t0 = Clock::now();
    core::DppSlotResult result;
    {
      const core::counters::Scope scope(step_counters);
      result = policy.step(state, rng);
    }
    decide.decide_seconds += seconds_between(t0, Clock::now());
    const core::DppSlotResult replayed = shadow.step(state, shadow_rng, clock);
    if (!same_decision(result, replayed) ||
        shadow_rng.engine() != rng.engine()) {
      ++mismatches;
    }
    {
      const LayerClock::Span span(clock, kAuditLayer);
      auditor.observe(state, result);
    }
    ++decide.slots;
  }
  const double traced_seconds = seconds_between(start, Clock::now()) -
                                clock.self_seconds(kAuditLayer);

  out.attempted = decide.slots;
  if (mismatches > 0) {
    out.fail(mismatches, "shadow decide differs from step() on " +
                             std::to_string(mismatches) + " slots");
  }
  if (step_counters != clock.counters_of(decide_layers())) {
    out.fail(decide.slots, "shadow solver counters differ from step()'s");
  }
  check_audit(auditor.report(), out);

  decide.state_bytes = state_bytes(state);
  decide.options = static_cast<double>(shadow.options_total()) /
                   static_cast<double>(decide.slots);
  decide.shards = shadow.shards();
  decide.shard_skew = shadow.shard_skew();
  decide.audit_violations =
      static_cast<double>(auditor.report().total_violations());
  add_layers(setup, instance, &clock, decide, ServeLayers{},
             traced_seconds / untraced.seconds, out);
  return out;
}

// ---- serve workload -----------------------------------------------------

// Policy decorator that stamps when each step() starts and ends, splitting
// serve latency into ingest, wait and decide without touching the loop.
class StampedPolicy final : public sim::Policy {
 public:
  StampedPolicy(std::unique_ptr<sim::Policy> inner,
                std::vector<Clock::time_point>& starts,
                std::vector<Clock::time_point>& ends)
      : inner_(std::move(inner)), starts_(starts), ends_(ends) {}

  core::DppSlotResult step(const core::SlotState& state,
                           util::Rng& rng) override {
    starts_.push_back(Clock::now());
    core::DppSlotResult result = inner_->step(state, rng);
    ends_.push_back(Clock::now());
    return result;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<sim::Policy> inner_;
  std::vector<Clock::time_point>& starts_;
  std::vector<Clock::time_point>& ends_;
};

// Per-slot stamps of one open-loop serve run. `due` is when the slot was
// scheduled, `sent` when the producer got to it, `decoded` after frame
// reassembly and decode, `submitted` once the ring took it; `start`/`end`
// bracket step() and `done` is the decision callback.
struct ServeRun {
  std::vector<Clock::time_point> due, sent, decoded, submitted, start, end,
      done;
  serve::ServeMetrics metrics;
  bool failed = false;

  [[nodiscard]] double seconds() const {
    return done.empty() ? 0.0 : seconds_between(due.front(), done.back());
  }
};

// Serves `frames` once. With `cpus`, the decide thread is pinned to CPU
// `turn` of the rotation and the calling producer thread to the next one.
ServeRun serve_once(const Spec& spec, const core::Instance& instance,
                    const std::vector<std::vector<std::uint8_t>>& frames,
                    const CpuRotation* cpus = nullptr, std::size_t turn = 0) {
  if (cpus != nullptr) cpus->pin(turn + 1);
  ServeRun run;
  for (auto* stamps : {&run.due, &run.sent, &run.decoded, &run.submitted,
                       &run.start, &run.end, &run.done}) {
    stamps->reserve(frames.size());
  }
  serve::ServeLoop loop(
      instance,
      std::make_unique<StampedPolicy>(
          sim::make_policy(kPolicy, instance, spec.params), run.start,
          run.end));
  loop.set_decision_callback([&run](std::uint64_t, const core::DppSlotResult&) {
    run.done.push_back(Clock::now());
  });
  std::thread decider([&loop, cpus, turn] {
    if (cpus != nullptr) cpus->pin(turn);
    loop.run();
  });
  // Stops and joins the decide thread on every exit from this scope.
  struct Joiner {
    serve::ServeLoop& loop;
    std::thread& thread;
    ~Joiner() {
      loop.request_stop();
      if (thread.joinable()) thread.join();
    }
  } joiner{loop, decider};

  serve::FrameAssembler assembler;
  serve::Frame frame;
  const std::chrono::duration<double> period(1.0 / kServeRate);
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < frames.size() && !loop.failed(); ++i) {
    const auto due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 period * static_cast<double>(i));
    // Sleeps to 1 ms before the due time and spins the rest, so how late
    // the producer sends does not depend on how long the host takes to
    // wake an idle CPU.
    std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
    while (Clock::now() < due) {
    }
    run.due.push_back(due);
    run.sent.push_back(Clock::now());
    assembler.feed(frames[i].data(), frames[i].size());
    if (!assembler.next(frame) || frame.type != serve::FrameType::kDelta) {
      throw std::runtime_error("frame " + std::to_string(i) +
                               " did not reassemble to a delta");
    }
    const sim::SlotDelta delta = serve::decode_delta(frame.payload);
    run.decoded.push_back(Clock::now());
    while (!loop.submit(delta) && !loop.failed()) std::this_thread::yield();
    run.submitted.push_back(Clock::now());
  }
  while (!loop.drained()) std::this_thread::yield();
  loop.request_stop();
  decider.join();
  run.metrics = loop.metrics();
  run.failed = loop.failed();
  return run;
}

struct ServeInputs {
  std::vector<sim::SlotDelta> deltas;
  std::vector<std::vector<std::uint8_t>> frames;
};

// Instance k's delta stream, drawn from `source`, which must be instance
// k's fresh source.
ServeInputs serve_inputs(const Spec& spec, std::size_t k,
                         sim::ScenarioSource& source) {
  ServeInputs in;
  in.deltas = sparse_deltas(source, spec.scenario.devices, spec.slots,
                            scenario_for(spec, k).seed);
  in.frames.reserve(in.deltas.size());
  for (const sim::SlotDelta& delta : in.deltas) {
    in.frames.push_back(serve::encode_frame(serve::FrameType::kDelta,
                                            serve::encode_delta(delta)));
  }
  return in;
}

// What the serve==batch gate compares: the end of the same delta stream
// through a batch run_policy drain over a DeltaSource, with the sampled
// audit.
struct BatchReplay {
  double avg_latency = 0.0;
  double avg_energy_cost = 0.0;
  double final_queue = 0.0;
};

BatchReplay batch_replay(const Spec& spec, const core::Instance& instance,
                         const ServeInputs& in, RunResult& out) {
  sim::DeltaSource replay(in.deltas, instance.num_devices(),
                          instance.num_base_stations());
  const auto policy = sim::make_policy(kPolicy, instance, spec.params);
  const sim::SimulationResult batch = sim::run_policy(
      *policy, instance, replay, sampled_audit(), kStepSeed,
      /*keep_series=*/true);
  check_audit(batch.audit, out);
  return {batch.metrics.average_latency(), batch.metrics.average_energy_cost(),
          batch.metrics.queue_series().back()};
}

// The serve==batch gate: a serve run must end on the batch replay's queue,
// average latency and cost, bit for bit. Returns whether the run completed.
bool check_serve_run(const Spec& spec, const BatchReplay& batch,
                     const ServeRun& run, RunResult& out) {
  if (run.failed) {
    out.fail(spec.slots - run.metrics.slots_decided,
             "serve loop failed: " + run.metrics.error);
    return false;
  }
  if (run.metrics.slots_decided != spec.slots ||
      !same_bits(run.metrics.avg_latency, batch.avg_latency) ||
      !same_bits(run.metrics.avg_energy_cost, batch.avg_energy_cost) ||
      !same_bits(run.metrics.queue_backlog, batch.final_queue)) {
    out.fail(spec.slots, "serve results differ from the batch replay");
  }
  return true;
}

// Serves every instance's stream once per pass, pass p of instance k with
// its decide thread on CPU p + k of the rotation, each checked against its
// batch replay.
RunResult serve_end_to_end(const Spec& spec, std::ostream& log) {
  RunResult out;
  Setup setup;
  std::vector<Bound> bounds(spec.instances);
  std::vector<ServeInputs> inputs;
  std::vector<BatchReplay> replays;
  for (std::size_t k = 0; k < spec.instances; ++k) {
    (void)bounds[k].build(spec, k);
    inputs.push_back(serve_inputs(spec, k, *bounds[k].source));
    replays.push_back(
        batch_replay(spec, bounds[k].source->instance(), inputs[k], out));
  }
  // Quality comes from the replays, which every served run must equal.
  Passes passes(spec.instances);
  for (const BatchReplay& replay : replays) {
    passes.avg_latency.push_back(replay.avg_latency);
    passes.cost_ratio.push_back(replay.avg_energy_cost /
                                spec.scenario.budget_per_slot);
  }
  const CpuRotation cpus;
  HostSpeed speed;
  std::size_t decided = 0;
  double served_seconds = 0.0;
  double misses = 0.0;
  for (std::size_t p = 0; p < spec.passes; ++p) {
    for (std::size_t k = 0; k < spec.instances; ++k) {
      // On the CPU the decide thread will run on.
      cpus.pin(p + k);
      setup.time_once(spec);
      speed.sample();
      const ServeRun run = serve_once(spec, bounds[k].source->instance(),
                                      inputs[k].frames, &cpus, p + k);
      out.attempted += spec.slots;
      std::vector<double> slot_ms = milliseconds(run.due, run.done);
      decided += run.done.size();
      served_seconds += run.seconds();
      // A slot the loop never decided counts as a miss.
      misses += static_cast<double>(
          std::count_if(slot_ms.begin(), slot_ms.end(),
                        [](double ms) { return ms > kServeLimitMs; }) +
          static_cast<std::ptrdiff_t>(spec.slots - slot_ms.size()));
      if (!check_serve_run(spec, replays[k], run, out)) continue;
      passes.decide_ms[k].push_back(milliseconds(run.start, run.end));
      passes.slot_ms[k].push_back(std::move(slot_ms));
    }
  }
  log << "slot_miss_frac "
      << misses / static_cast<double>(out.attempted) << " (limit "
      << kServeLimitMs << " ms from due time to decision)\n";
  add_end_to_end(setup, passes, speed,
                 static_cast<double>(decided) / served_seconds, out, log);
  return out;
}

std::size_t devices_touched(const sim::SlotDelta& delta) {
  std::vector<std::uint32_t> ids(delta.leaves);
  for (const auto& join : delta.joins) ids.push_back(join.device);
  for (const auto& update : delta.workloads) ids.push_back(update.device);
  for (const auto& update : delta.channels) ids.push_back(update.device);
  std::sort(ids.begin(), ids.end());
  return static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
}

// Traces the run's first instance: serves its stream once untraced for
// the overhead, then again with every stamp read out.
RunResult serve_traced(const Spec& spec) {
  RunResult out;
  const Setup setup = time_setup(spec);
  Bound bound;
  (void)bound.build(spec, 0);
  const core::Instance& instance = bound.source->instance();
  const ServeInputs in = serve_inputs(spec, 0, *bound.source);
  const ServeRun untraced = serve_once(spec, instance, in.frames);
  const ServeRun run = serve_once(spec, instance, in.frames);
  out.attempted = spec.slots;
  const BatchReplay replay = batch_replay(spec, instance, in, out);
  (void)check_serve_run(spec, replay, untraced, out);
  (void)check_serve_run(spec, replay, run, out);

  // DeltaApplier::apply, timed in a pass of its own over the same stream.
  sim::DeltaApplier applier(instance.num_devices(),
                            instance.num_base_stations());
  core::SlotState state;
  const auto apply_start = Clock::now();
  for (const sim::SlotDelta& delta : in.deltas) applier.apply(delta, state);
  const double apply_seconds = seconds_between(apply_start, Clock::now());

  ServeLayers serve;
  serve.decode_us = 1e3 * util::mean(milliseconds(run.sent, run.decoded));
  double wire = 0.0;
  for (const auto& frame : in.frames) wire += static_cast<double>(frame.size());
  serve.wire_bytes = wire / static_cast<double>(in.frames.size());
  double touched = 0.0;
  for (std::size_t t = 1; t < in.deltas.size(); ++t) {
    touched += static_cast<double>(devices_touched(in.deltas[t]));
  }
  serve.devices_touched = touched / static_cast<double>(in.deltas.size() - 1);
  serve.apply_us = 1e6 * apply_seconds / static_cast<double>(in.deltas.size());
  const std::vector<double> wait_ms = milliseconds(run.submitted, run.start);
  serve.wait_p50_ms = median(wait_ms);
  serve.wait_tail_ms = tail(wait_ms);
  serve.decide_p50_ms = median(milliseconds(run.start, run.end));
  serve.ring_depth_max = static_cast<double>(run.metrics.ingest_depth_max);
  const std::vector<double> late_ms = milliseconds(run.due, run.sent);
  serve.late_max_ms = *std::max_element(late_ms.begin(), late_ms.end());

  DecideLayers decide;
  decide.state_bytes = state_bytes(state);
  add_layers(setup, instance, nullptr, decide, serve,
             run.seconds() / untraced.seconds(), out);
  return out;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"paper-100", "metro-10k", "serve-sparse-100"};
}

RunResult run_workload(const Options& options, std::ostream& log) {
  const Spec spec = make_spec(options);
  log << "workload " << spec.name << "  seed " << spec.seed << "  "
      << spec.instances << " x " << spec.slots
      << (spec.serve ? " slots open loop" : " slots per drain") << "  trace "
      << (options.trace ? 1 : 0) << '\n';
  log << "provenance " << provenance(spec.params.shard_workers).to_json().dump()
      << '\n';
  check_feasible(spec, log);
  if (spec.serve) {
    return options.trace ? serve_traced(spec) : serve_end_to_end(spec, log);
  }
  return options.trace ? batch_traced(spec) : batch_end_to_end(spec, log);
}

std::vector<sim::SlotDelta> sparse_deltas(sim::StateSource& source,
                                          std::size_t devices,
                                          std::size_t slots,
                                          std::uint64_t seed) {
  const auto share_of = [devices](double share) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(share * static_cast<double>(devices))));
  };
  const std::size_t updates = share_of(0.05);
  const std::size_t churn = share_of(0.01);
  const double away_target = static_cast<double>(share_of(0.10));
  // A stream of its own, apart from the scenario's draws from the same seed.
  util::Rng rng = util::Rng(seed).fork();
  std::vector<char> present(devices, 1);
  std::vector<char> touched(devices, 0);
  std::vector<std::uint32_t> pool;
  core::SlotState state;
  std::vector<sim::SlotDelta> out;
  out.reserve(slots);
  const auto pick = [&](char want_present) {
    pool.clear();
    for (std::uint32_t i = 0; i < devices; ++i) {
      if (present[i] == want_present && touched[i] == 0) pool.push_back(i);
    }
  };
  for (std::size_t t = 0; t < slots; ++t) {
    if (!source.next(state)) {
      throw std::invalid_argument("the state source ended after " +
                                  std::to_string(t) + " slots");
    }
    if (state.task_cycles.size() != devices) {
      throw std::invalid_argument("the state source has " +
                                  std::to_string(state.task_cycles.size()) +
                                  " devices, expected " +
                                  std::to_string(devices));
    }
    sim::SlotDelta delta;
    delta.slot = t;
    delta.has_price = true;
    delta.price = state.price_per_mwh;
    const auto join = [&](std::uint32_t i) {
      delta.joins.push_back({i, state.task_cycles[i], state.data_bits[i],
                             state.channel[i]});
    };
    if (t == 0) {
      for (std::uint32_t i = 0; i < devices; ++i) join(i);
      out.push_back(std::move(delta));
      continue;
    }
    std::fill(touched.begin(), touched.end(), 0);
    for (std::size_t c = 0; c < churn; ++c) {
      const auto away = static_cast<double>(
          std::count(present.begin(), present.end(), 0));
      const bool rejoin = away > 0.0 && rng.bernoulli(away / (away + away_target));
      pick(rejoin ? 0 : 1);
      if (pool.empty()) continue;
      const std::uint32_t i = rng.pick(pool);
      if (rejoin) {
        join(i);
      } else {
        delta.leaves.push_back(i);
      }
      present[i] = rejoin ? 1 : 0;
      touched[i] = 1;
    }
    pick(1);
    rng.shuffle(pool);
    pool.resize(std::min(updates, pool.size()));
    std::sort(pool.begin(), pool.end());
    for (const std::uint32_t i : pool) {
      delta.workloads.push_back({i, state.task_cycles[i], state.data_bits[i]});
      delta.channels.push_back({i, state.channel[i]});
    }
    out.push_back(std::move(delta));
  }
  return out;
}

ShadowDecider::ShadowDecider(const core::Instance& instance,
                             core::DppConfig config)
    : instance_(&instance),
      config_(std::move(config)),
      queue_(config_.initial_queue) {}

core::DppSlotResult ShadowDecider::step(const core::SlotState& state,
                                        util::Rng& rng, LayerClock& clock) {
  core::DppSlotResult out;
  out.queue_before = queue_;
  {
    const LayerClock::Span span(clock, kWcgLayer);
    core::bdma_begin_slot(*instance_, state, workspace_, loop_);
  }
  options_total_ += workspace_.problem.num_options();
  for (std::size_t it = 0; it < config_.bdma.iterations; ++it) {
    {
      const LayerClock::Span span(clock, kP2aLayer);
      core::bdma_p2a_iterate(*instance_, state, config_.bdma, it, rng,
                             workspace_, loop_);
    }
    shards_ = std::max(shards_, loop_.p2a_shards);
    const auto& shard_counters = loop_.p2a_shard_counters;
    if (shard_moves_.size() < shard_counters.size()) {
      shard_moves_.resize(shard_counters.size(), 0);
    }
    for (std::size_t c = 0; c < shard_counters.size(); ++c) {
      shard_moves_[c] += shard_counters[c].cgba_moves;
    }
    {
      const LayerClock::Span span(clock, kP2bLayer);
      core::bdma_p2b_iterate(*instance_, state, config_.v, queue_,
                             config_.bdma, workspace_, loop_);
    }
  }
  {
    const LayerClock::Span span(clock, kDecisionOutLayer);
    core::bdma_finish_slot(*instance_, state, loop_);
    const core::BdmaResult& best = loop_.best;
    out.decision.assignment = best.assignment;
    out.decision.frequencies = best.frequencies;
    core::optimal_allocation(*instance_, state, best.assignment, lemma1_,
                             out.decision.allocation);
    out.latency = best.latency;
    out.theta = best.theta;
    out.energy_cost = best.theta + instance_->budget_per_slot();
    out.objective = best.objective;
    out.p2a_iterations = best.p2a_iterations;
    // Eq. (21), as the pipeline's queue-update stage commits it.
    queue_ = std::max(queue_ + out.theta, 0.0);
    out.queue_after = queue_;
  }
  return out;
}

double ShadowDecider::shard_skew() const {
  if (shard_moves_.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  for (const std::uint64_t moves : shard_moves_) {
    total += moves;
    largest = std::max(largest, moves);
  }
  if (total == 0) return 0.0;
  const double mean_moves =
      static_cast<double>(total) / static_cast<double>(shard_moves_.size());
  return static_cast<double>(largest) / mean_moves;
}

bool same_decision(const core::DppSlotResult& a,
                   const core::DppSlotResult& b) {
  const core::Decision& x = a.decision;
  const core::Decision& y = b.decision;
  return x.assignment.bs_of == y.assignment.bs_of &&
         x.assignment.server_of == y.assignment.server_of &&
         same_bits(x.frequencies, y.frequencies) &&
         same_bits(x.allocation.phi, y.allocation.phi) &&
         same_bits(x.allocation.psi_access, y.allocation.psi_access) &&
         same_bits(x.allocation.psi_fronthaul, y.allocation.psi_fronthaul) &&
         same_bits(a.latency, b.latency) && same_bits(a.theta, b.theta) &&
         same_bits(a.energy_cost, b.energy_cost) &&
         same_bits(a.queue_before, b.queue_before) &&
         same_bits(a.queue_after, b.queue_after);
}

}  // namespace perfbench
