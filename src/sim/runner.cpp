#include "sim/runner.h"

#include <cmath>
#include <map>
#include <sstream>

#include "sim/scenario_registry.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace eotora::sim {

namespace {

using AxisSetter =
    std::function<void(double, ScenarioConfig&, PolicyParams&)>;

std::size_t as_count(double value, const char* what) {
  EOTORA_REQUIRE_MSG(value >= 0.0 && value == std::floor(value),
                     what << " axis requires a non-negative integer, got "
                          << value);
  return static_cast<std::size_t>(value);
}

const std::map<std::string, AxisSetter>& axis_setters() {
  static const std::map<std::string, AxisSetter> setters = {
      {"devices",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.devices = as_count(v, "devices");
       }},
      {"budget",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.budget_per_slot = v;
       }},
      {"v",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.v = v;
       }},
      {"initial-queue",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.initial_queue = v;
       }},
      {"bdma-iterations",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.bdma_iterations = as_count(v, "bdma-iterations");
       }},
      {"mcba-iterations",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.mcba_iterations = as_count(v, "mcba-iterations");
       }},
      {"fixed-fraction",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.fixed_fraction = v;
       }},
      {"seed",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.seed = static_cast<std::uint64_t>(
             as_count(v, "seed"));
       }},
      {"clusters",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.clusters = as_count(v, "clusters");
       }},
      {"servers-per-cluster",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.servers_per_cluster = as_count(v, "servers-per-cluster");
       }},
      {"mid-band-stations",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.mid_band_stations = as_count(v, "mid-band-stations");
       }},
      {"trend-weight",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.workload_trend_weight = v;
       }},
      {"shards",
       [](double v, ScenarioConfig&, PolicyParams& params) {
         params.shard_workers = as_count(v, "shards");
       }},
      {"districts",
       [](double v, ScenarioConfig& config, PolicyParams&) {
         config.metro_districts = as_count(v, "districts");
       }},
  };
  return setters;
}

}  // namespace

std::vector<std::string> sweep_axis_names() {
  std::vector<std::string> names;
  names.reserve(axis_setters().size());
  for (const auto& [name, setter] : axis_setters()) names.push_back(name);
  return names;
}

void apply_sweep_axis(const std::string& name, double value,
                      ScenarioConfig& config, PolicyParams& params) {
  const auto it = axis_setters().find(name);
  if (it == axis_setters().end()) {
    std::ostringstream message;
    message << "unknown sweep axis \"" << name << "\"; known axes:";
    for (const auto& known : sweep_axis_names()) message << ' ' << known;
    throw std::invalid_argument(message.str());
  }
  it->second(value, config, params);
}

double SweepCell::tail_latency_ci_halfwidth() const {
  if (seeds < 2) return 0.0;
  const double n = static_cast<double>(seeds);
  const double sample_stddev =
      tail_latency_stats.stddev() * std::sqrt(n / (n - 1.0));
  return 1.96 * sample_stddev / std::sqrt(n);
}

namespace {

void validate(const SweepSpec& spec) {
  EOTORA_REQUIRE(spec.horizon > 0);
  EOTORA_REQUIRE_MSG(spec.window > 0 && spec.window <= spec.horizon,
                     "window=" << spec.window
                               << " must be in [1, horizon=" << spec.horizon
                               << "]");
  EOTORA_REQUIRE(spec.seeds >= 1);
  if (!spec.scenario.empty()) {
    // Reject unknown preset names before any work happens.
    ScenarioConfig config = spec.base;
    apply_scenario_preset(spec.scenario, config);
  }
  EOTORA_REQUIRE_MSG(!spec.policies.empty(), "no policies selected");
  EOTORA_REQUIRE_MSG(spec.axes.size() <= 2,
                     "at most two sweep axes supported, got "
                         << spec.axes.size());
  for (const auto& axis : spec.axes) {
    EOTORA_REQUIRE_MSG(!axis.values.empty(),
                       "axis \"" << axis.name << "\" has no values");
    // Reject unknown names before any work happens.
    ScenarioConfig config = spec.base;
    PolicyParams params = spec.params;
    apply_sweep_axis(axis.name, axis.values.front(), config, params);
  }
  for (const auto& policy : spec.policies) {
    (void)policy_description(policy);  // throws for an unknown name
  }
}

// The cross product axis-major, policy-minor: for two axes, axis 0 is the
// slowest index, the policy the fastest. Cell order is part of the artifact
// contract (records compare across runs by position).
std::vector<AxisAssignment> enumerate_assignments(const SweepSpec& spec) {
  std::vector<AxisAssignment> assignments;
  if (spec.axes.empty()) {
    assignments.push_back({});
    return assignments;
  }
  const SweepAxis& first = spec.axes.front();
  for (const double value : first.values) {
    if (spec.axes.size() == 1) {
      assignments.push_back({{first.name, value}});
      continue;
    }
    const SweepAxis& second = spec.axes[1];
    for (const double inner : second.values) {
      assignments.push_back({{first.name, value}, {second.name, inner}});
    }
  }
  return assignments;
}

SweepCell run_cell(const SweepSpec& spec, const AxisAssignment& assignment,
                   const std::string& policy_name) {
  EOTORA_TRACE_SPAN("sweep/cell");
  util::Timer cell_timer;
  SweepCell cell;
  cell.axis_values = assignment;
  cell.policy = policy_name;
  cell.seeds = spec.seeds;

  ScenarioConfig config = spec.base;
  PolicyParams params = spec.params;
  if (!spec.scenario.empty()) apply_scenario_preset(spec.scenario, config);
  for (const auto& [axis, value] : assignment) {
    apply_sweep_axis(axis, value, config, params);
  }
  if (spec.configure) spec.configure(assignment, config, params);

  util::RunningStats tail_cost;
  util::RunningStats tail_backlog;
  util::RunningStats avg_latency;
  util::RunningStats avg_cost;
  util::RunningStats avg_backlog;
  // Queue-ledger checks only make sense for policies that keep the queue.
  AuditConfig audit = spec.audit;
  audit.check_queue = audit.check_queue && policy_tracks_queue(policy_name);

  for (std::size_t r = 0; r < spec.seeds; ++r) {
    ScenarioConfig seeded = config;
    seeded.seed = config.seed + r;
    ScenarioSource source(seeded, spec.horizon);
    auto policy = make_policy(policy_name, source.instance(), params);
    const SimulationResult result =
        run_policy(*policy, source.instance(), source, audit, 1 + r);
    cell.audited_slots += result.audit.slots_audited;
    cell.audit_violations += result.audit.total_violations();
    const auto tail = tail_averages(result, spec.window);
    cell.policy_label = result.policy_name;
    cell.tail_latency_stats.add(tail.latency);
    tail_cost.add(tail.energy_cost);
    tail_backlog.add(tail.queue);
    avg_latency.add(result.metrics.average_latency());
    avg_cost.add(result.metrics.average_energy_cost());
    avg_backlog.add(result.metrics.average_queue());
    cell.decision_seconds += result.wall_seconds;
    cell.state_seconds += result.state_seconds;
    cell.audit_seconds += result.audit_seconds;
    cell.counters.merge(result.counters);
    if (cell.stages.empty()) {
      cell.stages = result.stages;
    } else {
      // Same policy, same assembly: the stage list is identical across
      // seeds, so merging by position is merging by stage.
      EOTORA_REQUIRE(cell.stages.size() == result.stages.size());
      for (std::size_t s = 0; s < cell.stages.size(); ++s) {
        EOTORA_REQUIRE(cell.stages[s].name == result.stages[s].name);
        cell.stages[s].runs += result.stages[s].runs;
        cell.stages[s].seconds += result.stages[s].seconds;
        cell.stages[s].counters.merge(result.stages[s].counters);
        // Per-shard breakdowns merge by component index (the component
        // layout is a function of the scenario, not the seed).
        auto& shards = cell.stages[s].shards;
        const auto& delta = result.stages[s].shards;
        if (delta.size() > shards.size()) shards.resize(delta.size());
        for (std::size_t c = 0; c < delta.size(); ++c) {
          shards[c].merge(delta[c]);
        }
      }
    }
  }
  cell.tail.latency = cell.tail_latency_stats.mean();
  cell.tail.energy_cost = tail_cost.mean();
  cell.tail.queue = tail_backlog.mean();
  cell.avg_latency = avg_latency.mean();
  cell.avg_cost = avg_cost.mean();
  cell.avg_backlog = avg_backlog.mean();
  cell.wall_seconds = cell_timer.elapsed_seconds();
  return cell;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, std::size_t threads) {
  validate(spec);
  util::Timer total_timer;

  // Tracing is process-global; scope it to this sweep and restore the
  // caller's setting afterwards (nested/sequential sweeps compose).
  const bool trace_here = !spec.trace.empty();
  const bool trace_was_enabled = util::trace::enabled();
  if (trace_here) {
    util::trace::clear();
    util::trace::set_enabled(true);
  }

  const auto assignments = enumerate_assignments(spec);
  struct CellKey {
    const AxisAssignment* assignment;
    const std::string* policy;
  };
  std::vector<CellKey> keys;
  keys.reserve(assignments.size() * spec.policies.size());
  for (const auto& assignment : assignments) {
    for (const auto& policy : spec.policies) {
      keys.push_back({&assignment, &policy});
    }
  }

  SweepResult result;
  result.name = spec.name;
  result.scenario = spec.scenario;
  result.axes = spec.axes;
  result.policies = spec.policies;
  result.horizon = spec.horizon;
  result.window = spec.window;
  result.seeds = spec.seeds;
  result.audit_mode = spec.audit.mode;
  result.cells.resize(keys.size());

  auto& pool = util::ThreadPool::shared();
  const std::size_t workers = threads == 0 ? pool.size() : threads;
  {
    EOTORA_TRACE_SPAN("sweep/run");
    // Cell i writes slot i; the merge below is a no-op, so the result is
    // independent of how the pool interleaved the cells.
    pool.parallel_for_index(keys.size(), workers, [&](std::size_t i) {
      result.cells[i] = run_cell(spec, *keys[i].assignment, *keys[i].policy);
    });
  }

  if (trace_here) {
    util::trace::set_enabled(trace_was_enabled);
    util::trace::write_chrome_json(spec.trace);
  }
  result.wall_seconds = total_timer.elapsed_seconds();
  return result;
}

util::Table SweepResult::table() const {
  std::vector<std::string> headers;
  for (const auto& axis : axes) headers.push_back(axis.name);
  headers.insert(headers.end(),
                 {"policy", "tail latency (s)", "tail cost ($/slot)",
                  "tail backlog", "avg latency (s)"});
  const bool with_ci = seeds > 1;
  if (with_ci) headers.push_back("latency 95% CI");
  headers.push_back("run s");

  util::Table table(headers);
  for (const auto& cell : cells) {
    std::vector<std::string> row;
    for (const auto& [axis, value] : cell.axis_values) {
      row.push_back(util::format_double(value, 2));
    }
    row.push_back(cell.policy_label);
    row.push_back(util::format_double(cell.tail.latency, 3));
    row.push_back(util::format_double(cell.tail.energy_cost, 3));
    row.push_back(util::format_double(cell.tail.queue, 3));
    row.push_back(util::format_double(cell.avg_latency, 3));
    if (with_ci) {
      row.push_back("+/- " +
                    util::format_double(cell.tail_latency_ci_halfwidth(), 3));
    }
    row.push_back(util::format_double(cell.decision_seconds, 2));
    table.add_row(std::move(row));
  }
  return table;
}

util::Json SweepResult::to_json() const {
  const bool audited = audit_mode != AuditMode::kOff;
  util::Json doc = util::Json::object();
  doc["schema"] = "eotora-sweep-v1";
  // Provenance stamps (additive, backward-compatible with v1 readers):
  // which build produced this artifact. "unknown" outside a git checkout.
  doc["commit"] = util::build_info().commit;
  doc["build_type"] = util::build_info().build_type;
  doc["name"] = name;
  if (!scenario.empty()) doc["scenario"] = scenario;
  doc["horizon"] = horizon;
  doc["window"] = window;
  doc["seeds"] = seeds;
  if (audited) {
    doc["audit_mode"] =
        audit_mode == AuditMode::kEverySlot ? "every-slot" : "sampled";
  }
  util::Json axes_json = util::Json::array();
  for (const auto& axis : axes) {
    util::Json axis_json = util::Json::object();
    axis_json["name"] = axis.name;
    util::Json values = util::Json::array();
    for (const double value : axis.values) values.push_back(value);
    axis_json["values"] = std::move(values);
    axes_json.push_back(std::move(axis_json));
  }
  doc["axes"] = std::move(axes_json);
  util::Json policies_json = util::Json::array();
  for (const auto& policy : policies) policies_json.push_back(policy);
  doc["policies"] = std::move(policies_json);

  util::Json records = util::Json::array();
  for (const auto& cell : cells) {
    util::Json record = util::Json::object();
    for (const auto& [axis, value] : cell.axis_values) record[axis] = value;
    record["policy"] = cell.policy;
    record["policy_label"] = cell.policy_label;
    record["tail_latency"] = cell.tail.latency;
    record["tail_cost"] = cell.tail.energy_cost;
    record["tail_backlog"] = cell.tail.queue;
    record["avg_latency"] = cell.avg_latency;
    record["avg_cost"] = cell.avg_cost;
    record["avg_backlog"] = cell.avg_backlog;
    record["tail_latency_ci"] = cell.tail_latency_ci_halfwidth();
    record["tail_latency_min"] = cell.tail_latency_stats.min();
    record["tail_latency_max"] = cell.tail_latency_stats.max();
    if (audited) {
      record["audited_slots"] = cell.audited_slots;
      record["audit_violations"] = cell.audit_violations;
    }
    // Solver effort totals: deterministic, summed over the cell's seeds.
    record["counters"] = cell.counters.to_json();
    // Per-stage breakdown (pipeline policies): "name", "runs", and
    // "counters" are deterministic; "seconds" is wall-clock (strip it with
    // the other timing fields before diffing).
    util::Json stages_json = util::Json::array();
    for (const auto& stage : cell.stages) {
      util::Json stage_json = util::Json::object();
      stage_json["name"] = stage.name;
      stage_json["runs"] = stage.runs;
      stage_json["counters"] = stage.counters.to_json();
      // Sharded P2-A stages: one counters object per connected component,
      // in component order. Deterministic; the in-shard fields sum to this
      // stage's "counters" totals (CI's validator checks exactly that).
      if (!stage.shards.empty()) {
        util::Json shards_json = util::Json::array();
        for (const auto& shard : stage.shards) {
          shards_json.push_back(shard.to_json());
        }
        stage_json["shards"] = std::move(shards_json);
      }
      stage_json["seconds"] = stage.seconds;
      stages_json.push_back(std::move(stage_json));
    }
    record["stages"] = std::move(stages_json);
    // Wall-clock fields: NOT deterministic; strip before diffing records.
    record["decision_seconds"] = cell.decision_seconds;
    record["state_seconds"] = cell.state_seconds;
    record["audit_seconds"] = cell.audit_seconds;
    record["wall_seconds"] = cell.wall_seconds;
    records.push_back(std::move(record));
  }
  doc["records"] = std::move(records);
  doc["wall_seconds"] = wall_seconds;
  return doc;
}

void SweepResult::write_json(const std::string& path) const {
  util::write_json_file(path, to_json());
}

}  // namespace eotora::sim
