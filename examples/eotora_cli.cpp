// Command-line experiment driver: run any policy on the paper scenario with
// parameters from flags, optionally recording the state trace, replaying a
// previous one, or serving a client that sends the states over a socket.
//
//   $ ./examples/eotora_cli --help
//   $ ./examples/eotora_cli --policy=bdma --v=200 --days=7 --budget=1.1
//   $ ./examples/eotora_cli --policy=greedy --devices=60 --record=run.eot
//   $ ./examples/eotora_cli --policy=mcba --devices=60 --replay=run.eot
//   $ ./examples/eotora_cli --policy=bdma --devices=50 --horizon=100000
//   $ ./examples/eotora_cli --policy=mcba --devices=60 --serve=/tmp/e.sock &
//   $ ./examples/eotora_loadgen --socket=/tmp/e.sock --replay=run.eot
//
// Every mode is one sim::run_policy loop: states are pulled one slot at a
// time (sim::StateSource), so memory stays O(devices x stations) no matter
// how long the run; only aggregate metrics are kept.
#include <iostream>
#include <memory>
#include <optional>

#include "eotora/eotora.h"
#include "serve/server.h"
#include "util/args.h"
#include "util/trace.h"

namespace {

void print_usage() {
  std::cout <<
      R"(eotora_cli - run an EOTORA policy on the paper scenario

options (all --key=value):
  --policy   any sim/registry name (dpp-bdma | dpp-mcba | dpp-ropt |
             greedy-budget | fixed-frequency | fixed-max | fixed-min |
             mpc), or the short aliases bdma | mcba | ropt | greedy  [bdma]
  --devices  number of mobile devices                             [100]
  --days     horizon in days (24 slots each)                      [7]
  --horizon  horizon in slots (overrides --days)
  --budget   energy budget in $ per slot                          [1.0]
  --v        DPP penalty weight V                                 [100]
  --q0       initial queue backlog Q(1)                           [0]
  --z        BDMA iterations                                      [5]
  --seed     scenario seed                                        [42]
  --scenario named scenario preset from sim/scenario_registry.h
             (paper | handover | churn | bursty | price-spike): a
             pure ScenarioConfig transform applied BEFORE the other
             flags, so --devices/--budget/... still win          [paper]
  --shards   workers for each slot's per-component work: every slot
             is built and solved per connected component of the WCG,
             and this sets how many pool workers run the components
             (1 runs them inline on the calling thread; results are
             bit-identical for every value); only CGBA/MCBA-backed
             policies take it                                     [inline]
  --districts  metro-scale layout: tile the region with this many
             self-contained districts (must be a perfect square); each
             district gets its own server room, local mid-band stations,
             and a confined share of the devices, so the WCG splits into
             one component per district
  --record   write the run's states to this state log: the EOT1
             session --serve ingests (a hello, then one delta frame
             per slot; serve/state_log.h)
  --replay   read states from a state log instead of generating
             them; its devices x base stations must match the
             scenario built from the other flags
  --serve    listen on this Unix-domain socket and serve one client
             (eotora_loadgen, serve/codec.h): its hello must match
             the scenario like a --replay log, then every delta it
             sends is decided; the report follows its shutdown.
             Takes no --replay, --record, --prefetch, --horizon or
             --days; exits 1 on any session error, after the report
             of the slots decided before it
  --log      write a per-slot decision log (CSV) to this path
  --prefetch generate the next state on a background thread while
             the policy decides the current slot
  --audit    re-validate every slot against the P1 constraint set
             (sim/audit.h): "every" (default when the flag is bare),
             "sample" (every 16th slot), or "off"; exits 3 on violations
  --trace-out  record execution trace spans (per-slot phases, solver
             stages) and write Chrome chrome://tracing JSON to this path;
             tracing never changes results or the printed counters
  --kernel-backend  force the arithmetic kernel backend by name (see
             --list-kernels); unknown or unsupported names fail fast
             listing the available ones. Default: the most specialized
             backend this CPU supports (results are bit-identical on
             every backend), or the EOTORA_KERNEL_BACKEND env var
  --list-kernels  print every kernel backend this build + CPU supports
             with a one-line description, then exit
  --list-policies  print every registry policy name with a one-line
             description, then exit
  --list-scenarios  print every registered scenario preset with a
             one-line description, then exit
  --help     this text

Deterministic solver counters (best-response rounds, accepted moves, BDMA
iterations, Lemma-1 evaluations, ...) are printed after every run.
)";
}

// Parses the --audit flag value into a config, with check_queue narrowed
// to policies that actually maintain the virtual queue.
eotora::sim::AuditConfig parse_audit_config(const std::string& value,
                                            const std::string& policy_name) {
  eotora::sim::AuditConfig config;
  if (value.empty() || value == "every" || value == "every-slot") {
    config.mode = eotora::sim::AuditMode::kEverySlot;
  } else if (value == "sample" || value == "sampled") {
    config.mode = eotora::sim::AuditMode::kSampled;
  } else if (value == "off") {
    config.mode = eotora::sim::AuditMode::kOff;
  } else {
    throw std::invalid_argument("--audit must be every | sample | off, got '" +
                                value + "'");
  }
  config.check_queue = eotora::sim::policy_tracks_queue(policy_name);
  return config;
}

// Prints the audit digest and the first few violations; returns the
// process exit code (0 clean, 3 violations).
int report_audit(const eotora::sim::AuditReport& report) {
  std::cout << "audit: " << report.summary() << "\n";
  constexpr std::size_t kMaxShown = 5;
  for (std::size_t i = 0; i < report.violations.size() && i < kMaxShown; ++i) {
    std::cout << "  " << report.violations[i].describe() << "\n";
  }
  if (report.violations.size() > kMaxShown) {
    std::cout << "  ... " << (report.total_violations() - kMaxShown)
              << " more\n";
  }
  return report.clean() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eotora;
  try {
    const util::Args args(argc, argv,
                          {"policy", "devices", "days", "horizon", "budget",
                           "v", "q0", "z", "seed", "scenario", "shards",
                           "districts", "record", "replay", "serve", "log",
                           "prefetch", "audit", "trace-out",
                           "kernel-backend", "list-kernels",
                           "list-policies", "list-scenarios", "help"});
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    if (args.has("list-policies")) {
      for (const auto& name : sim::registered_policies()) {
        std::cout << name << "  " << sim::policy_description(name) << "\n";
      }
      return 0;
    }
    if (args.has("list-scenarios")) {
      for (const auto& name : sim::registered_scenarios()) {
        std::cout << name << "  " << sim::scenario_description(name) << "\n";
      }
      return 0;
    }
    if (args.has("list-kernels")) {
      for (const core::kernels::Backend* backend :
           core::kernels::available_backends()) {
        std::cout << backend->name << "  " << backend->description << "\n";
      }
      return 0;
    }
    // Kernel selection happens before any scenario work: an unknown backend
    // name must fail fast (set_backend throws listing the available ones),
    // and every solver must see the same selection from the first slot on.
    if (args.has("kernel-backend")) {
      core::kernels::set_backend(args.get("kernel-backend", ""));
    }

    sim::ScenarioConfig config;
    // Presets transform the defaults first; explicit flags below still win.
    if (args.has("scenario")) {
      sim::apply_scenario_preset(args.get("scenario", ""), config);
    }
    config.devices = args.get_uint("devices", 100, 1);
    config.budget_per_slot = args.get_double("budget", 1.0);
    config.seed = args.get_uint("seed", 42);
    if (args.has("districts")) {
      const long districts = args.get_int("districts", 0);
      if (districts <= 0) {
        throw std::invalid_argument(
            "--districts must be a positive perfect square, got " +
            args.get("districts", ""));
      }
      config.metro_districts = static_cast<std::size_t>(districts);
    }
    const std::size_t horizon =
        args.has("horizon")
            ? args.get_uint("horizon", 0, 1)
            : 24 * args.get_uint("days", 7, 1);

    // Reject contradictory flag combinations up front, before any file or
    // scenario work happens, so mistakes fail fast with a clear message.
    if (args.has("record") && args.has("replay")) {
      throw std::invalid_argument(
          "--record and --replay are mutually exclusive: a replayed run "
          "would just copy the input log");
    }
    if (args.has("replay") && (args.has("horizon") || args.has("days"))) {
      throw std::invalid_argument(
          "--horizon/--days do not apply with --replay: the replay file "
          "fixes the number of slots");
    }
    const std::string socket_path = args.get("serve", "");
    if (args.has("serve")) {
      if (socket_path.empty()) {
        throw std::invalid_argument("--serve requires a socket path");
      }
      for (const std::string flag :
           {"replay", "record", "prefetch", "horizon", "days"}) {
        if (args.has(flag)) {
          throw std::invalid_argument("--" + flag +
                                      " does not apply with --serve: the "
                                      "client sends the states");
        }
      }
    }
    const std::string trace_out = args.get("trace-out", "");
    if (args.has("trace-out") && trace_out.empty()) {
      throw std::invalid_argument("--trace-out requires a file path");
    }
    if (!trace_out.empty()) {
      util::trace::clear();
      util::trace::set_enabled(true);
    }

    // Policies come from the registry; the short names stay as aliases.
    const std::string policy_name =
        sim::resolve_policy_alias(args.get("policy", "bdma"));
    sim::PolicyParams params;
    params.v = args.get_double("v", 100.0);
    params.initial_queue = args.get_double("q0", 0.0);
    params.bdma_iterations = args.get_uint("z", 5, 1);
    if (args.has("shards")) {
      const long shards = args.get_int("shards", 0);
      if (shards <= 0) {
        throw std::invalid_argument(
            "--shards must be a positive worker count, got " +
            args.get("shards", ""));
      }
      if (policy_name == "dpp-ropt" || policy_name == "beta-only") {
        throw std::invalid_argument(
            "--shards needs a policy whose P2-A solve runs CGBA or MCBA; '" +
            policy_name + "' has no per-component solve to run on workers");
      }
      params.shard_workers = static_cast<std::size_t>(shards);
    }

    sim::AuditConfig audit;
    audit.mode = sim::AuditMode::kOff;
    if (args.has("audit")) {
      audit = parse_audit_config(args.get("audit", ""), policy_name);
    }
    const bool auditing = audit.mode != sim::AuditMode::kOff;

    // Build the state source: the scenario (or a state log) pulled one
    // slot at a time, optionally teed into a recording and prefetched. A
    // served run gets its states from the client instead.
    std::unique_ptr<sim::Scenario> world;  // instance for --replay/--serve
    std::unique_ptr<sim::ScenarioSource> scenario_source;
    std::unique_ptr<serve::StateLogSource> replay_source;
    std::unique_ptr<serve::RecordingSource> recording_source;
    std::unique_ptr<sim::PrefetchSource> prefetch_source;
    sim::StateSource* source = nullptr;
    const core::Instance* instance = nullptr;
    if (args.has("replay") || args.has("serve")) {
      world = std::make_unique<sim::Scenario>(config);
      instance = &world->instance();
      sim::print_scenario(std::cout, *world);
    } else {
      scenario_source = std::make_unique<sim::ScenarioSource>(config, horizon);
      sim::print_scenario(std::cout, scenario_source->scenario());
      source = scenario_source.get();
      instance = &scenario_source->instance();
    }
    if (args.has("replay")) {
      replay_source =
          std::make_unique<serve::StateLogSource>(args.get("replay", ""));
      // The log's shape must be the instance's before the first slot; the
      // applier then checks every slot's rows and values.
      serve::check_shape("replay log", replay_source->devices(),
                         replay_source->base_stations(), *instance);
      source = replay_source.get();
      std::cout << "streaming replay from " << args.get("replay", "") << "\n";
    }
    if (args.has("record")) {
      recording_source = std::make_unique<serve::RecordingSource>(
          *source, args.get("record", ""));
      source = recording_source.get();
    }
    if (args.has("prefetch")) {
      prefetch_source = std::make_unique<sim::PrefetchSource>(*source);
      source = prefetch_source.get();
    }

    std::unique_ptr<sim::Policy> policy;
    try {
      policy = sim::make_policy(policy_name, *instance, params);
    } catch (const std::invalid_argument& error) {
      std::cerr << error.what() << "\n";
      print_usage();
      return 2;
    }

    // One run_policy loop for every mode. --log writes each slot's row as
    // it is decided, and keep_series=false keeps the run O(1) in the
    // horizon: the printed comparison only needs the aggregates.
    std::optional<sim::DecisionLogWriter> log;
    sim::SlotObserver write_row;
    if (args.has("log")) {
      log.emplace(args.get("log", ""));
      write_row = [&log](const core::SlotState& state,
                         const core::DppSlotResult& slot, double) {
        log->record(state, slot);
      };
    }
    sim::SimulationResult result;
    // A failed session still reports the slots it decided, then exits 1.
    bool session_failed = false;
    if (args.has("serve")) {
      serve::ServeLoop loop(*instance, std::move(policy));
      const serve::Fd listener = serve::listen_unix(socket_path);
      std::cout << "serving one client on " << socket_path << std::endl;
      result = loop.serve(serve::accept_client(listener), audit, write_row);
      session_failed = loop.failed();
      if (session_failed) {
        std::cerr << "error: serve session failed: " << loop.metrics().error
                  << "\n";
      }
      std::cout << "served " << result.metrics.slots() << " slots\n";
      if (result.metrics.slots() == 0) return session_failed ? 1 : 0;
    } else {
      result = sim::run_policy(*policy, *instance, *source, audit, 1,
                               /*keep_series=*/false, write_row);
    }
    if (log) {
      log->close();
      std::cout << "wrote per-slot log to " << args.get("log", "") << "\n";
    }
    if (recording_source != nullptr) {
      std::cout << "recorded " << result.metrics.slots() << " slots to "
                << args.get("record", "") << "\n";
    }
    std::cout << "\n";
    sim::print_comparison(std::cout, {result}, config.budget_per_slot);
    // Deterministic for a fixed scenario + seed, so this line is also a
    // quick reproducibility check across machines.
    std::cout << "counters: " << result.counters.to_json().dump() << "\n";
    // Pipeline policies also break the same totals down per stage.
    for (const auto& stage : result.stages) {
      std::cout << "stage " << stage.name << ": runs=" << stage.runs;
      if (!stage.shards.empty()) {
        std::cout << " shards=" << stage.shards.size();
      }
      std::cout << " counters=" << stage.counters.to_json().dump() << "\n";
    }
    if (prefetch_source != nullptr) {
      const auto stats = prefetch_source->stats();
      std::cout << "prefetch: delivered=" << stats.delivered
                << " max_ready_depth=" << stats.max_ready_depth
                << " consumer_stalls=" << stats.consumer_stalls << "\n";
    }
    if (!trace_out.empty()) {
      util::trace::set_enabled(false);
      util::trace::write_chrome_json(trace_out);
      const std::size_t dropped = util::trace::dropped_count();
      std::cout << "wrote " << util::trace::event_count()
                << " trace events to " << trace_out << " (" << dropped
                << " dropped)\n";
      if (dropped > 0) {
        std::cerr << "warning: " << dropped
                  << " trace events were dropped at the cap of "
                  << util::trace::kMaxEventsPerThread
                  << " per thread; the trace covers only the start of the "
                     "run\n";
      }
    }
    const int audit_exit = auditing ? report_audit(result.audit) : 0;
    return session_failed ? 1 : audit_exit;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
