#include "support/golden.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/policy.h"
#include "sim/scenario_registry.h"
#include "sim/simulator.h"
#include "sim/state_source.h"
#include "util/json.h"

namespace eotora::sim {
namespace {

constexpr const char* kGoldenSchema = "eotora-golden-v1";

// Strict typed field extraction for from_json.
const util::Json& require_field(const util::Json& doc, const std::string& key) {
  if (!doc.is_object() || !doc.contains(key)) {
    throw std::invalid_argument("golden trace: missing field \"" + key + "\"");
  }
  return doc.at(key);
}

std::string require_string(const util::Json& doc, const std::string& key) {
  const util::Json& value = require_field(doc, key);
  if (!value.is_string()) {
    throw std::invalid_argument("golden trace: field \"" + key +
                                "\" must be a string");
  }
  return value.as_string();
}

double require_number(const util::Json& doc, const std::string& key) {
  const util::Json& value = require_field(doc, key);
  if (!value.is_number()) {
    throw std::invalid_argument("golden trace: field \"" + key +
                                "\" must be a number");
  }
  return value.as_number();
}

std::size_t require_size(const util::Json& doc, const std::string& key) {
  double raw = require_number(doc, key);
  if (raw < 0.0) {
    throw std::invalid_argument("golden trace: field \"" + key +
                                "\" must be non-negative");
  }
  return static_cast<std::size_t>(raw);
}

const util::Json& require_array(const util::Json& doc, const std::string& key) {
  const util::Json& value = require_field(doc, key);
  if (!value.is_array()) {
    throw std::invalid_argument("golden trace: field \"" + key +
                                "\" must be an array");
  }
  return value;
}

std::string render(double value) { return util::format_json_number(value); }
std::string render(std::size_t value) { return std::to_string(value); }

}  // namespace

const std::vector<GoldenScenario>& golden_scenarios() {
  static const std::vector<GoldenScenario> scenarios = [] {
    std::vector<GoldenScenario> list;

    // tiny-a: smallest default-shaped world — random-waypoint mobility,
    // unit budget.
    {
      GoldenScenario gs;
      gs.name = "tiny-a";
      gs.config.devices = 8;
      gs.config.mid_band_stations = 2;
      gs.config.low_band_stations = 1;
      gs.config.clusters = 1;
      gs.config.servers_per_cluster = 2;
      gs.config.seed = 11;
      gs.horizon = 16;
      list.push_back(gs);
    }

    // tiny-b: two clusters, Gauss-Markov mobility, tight budget — stresses
    // the queue ledger (theta is frequently positive).
    {
      GoldenScenario gs;
      gs.name = "tiny-b";
      gs.config.devices = 12;
      gs.config.mid_band_stations = 3;
      gs.config.low_band_stations = 2;
      gs.config.clusters = 2;
      gs.config.servers_per_cluster = 2;
      gs.config.budget_per_slot = 0.5;
      gs.config.mobility = ScenarioConfig::Mobility::kGaussMarkov;
      gs.config.seed = 22;
      gs.horizon = 16;
      list.push_back(gs);
    }

    // tiny-c: strongly trended workloads and a loose budget — the queue
    // mostly drains, exercising the max{., 0} clamp in Eq. (21).
    {
      GoldenScenario gs;
      gs.name = "tiny-c";
      gs.config.devices = 6;
      gs.config.mid_band_stations = 3;
      gs.config.low_band_stations = 1;
      gs.config.clusters = 1;
      gs.config.servers_per_cluster = 3;
      gs.config.budget_per_slot = 2.0;
      gs.config.workload_trend_weight = 0.8;
      gs.config.seed = 33;
      gs.horizon = 12;
      list.push_back(gs);
    }

    return list;
  }();
  return scenarios;
}

const std::vector<std::string>& golden_policies() {
  static const std::vector<std::string> policies = {
      "dpp-bdma",      "dpp-mcba",  "dpp-ropt",  "beta-only",
      "greedy-budget", "fixed-max", "fixed-min", "mpc"};
  return policies;
}

const std::vector<GoldenScenario>& golden_preset_scenarios() {
  static const std::vector<GoldenScenario> scenarios = [] {
    std::vector<GoldenScenario> list;
    // One tiny-a-shaped world per non-paper preset, each with its own seed
    // so the fixtures exercise genuinely different draws. The fixture name
    // IS the preset name.
    std::uint64_t seed = 44;
    for (const std::string& preset : registered_scenarios()) {
      if (preset == "paper") continue;  // identical to the tiny-* fixtures
      GoldenScenario gs;
      gs.name = preset;
      gs.config.devices = 8;
      gs.config.mid_band_stations = 2;
      gs.config.low_band_stations = 1;
      gs.config.clusters = 1;
      gs.config.servers_per_cluster = 2;
      gs.config.seed = seed;
      seed += 11;
      gs.horizon = 16;
      apply_scenario_preset(preset, gs.config);
      list.push_back(gs);
    }
    return list;
  }();
  return scenarios;
}

const GoldenScenario& golden_metro_scenario() {
  static const GoldenScenario scenario = [] {
    GoldenScenario gs;
    gs.name = "metro-4";
    gs.config.metro_districts = 4;
    gs.config.devices = 24;
    // Two servers a district keep F^L at $0.36/slot, inside the default $1
    // budget (eight would cost $1.49 and make the world infeasible).
    gs.config.servers_per_cluster = 2;
    gs.config.seed = 77;
    gs.horizon = 16;
    return gs;
  }();
  return scenario;
}

const std::vector<std::string>& golden_metro_policies() {
  static const std::vector<std::string> policies = {
      "dpp-bdma", "dpp-mcba", "dpp-ropt", "greedy-budget"};
  return policies;
}

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = [] {
    std::vector<GoldenCase> list;
    for (const GoldenScenario& gs : golden_scenarios()) {
      for (const std::string& policy : golden_policies()) {
        list.push_back(GoldenCase{&gs, policy});
      }
    }
    for (const GoldenScenario& gs : golden_preset_scenarios()) {
      list.push_back(GoldenCase{&gs, "dpp-bdma"});
    }
    for (const std::string& policy : golden_metro_policies()) {
      list.push_back(GoldenCase{&golden_metro_scenario(), policy});
    }
    return list;
  }();
  return cases;
}

const PolicyParams& golden_policy_params() {
  static const PolicyParams params = [] {
    PolicyParams p;
    // A 4-slot period lets mpc leave its greedy bootstrap inside the
    // 12-16-slot tiny worlds (only mpc reads params.mpc).
    p.mpc.period = 4;
    p.mpc.window = 4;
    return p;
  }();
  return params;
}

double round_sig(double value, int digits) {
  if (value == 0.0) {
    return 0.0;  // normalizes -0.0 too
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return std::strtod(buffer, nullptr);
}

util::Json GoldenTrace::to_json() const {
  util::Json doc = util::Json::object();
  doc["schema"] = kGoldenSchema;
  doc["scenario"] = scenario;
  doc["policy"] = policy;
  doc["devices"] = devices;
  doc["horizon"] = horizon;
  doc["seed"] = static_cast<unsigned long long>(seed);
  util::Json slot_array = util::Json::array();
  for (const GoldenSlot& slot : slots) {
    util::Json record = util::Json::object();
    record["slot"] = slot.slot;
    util::Json bs = util::Json::array();
    for (std::size_t b : slot.bs_of) bs.push_back(b);
    record["bs"] = std::move(bs);
    util::Json server = util::Json::array();
    for (std::size_t s : slot.server_of) server.push_back(s);
    record["server"] = std::move(server);
    util::Json freq = util::Json::array();
    for (double f : slot.frequencies) freq.push_back(f);
    record["freq"] = std::move(freq);
    record["latency"] = slot.latency;
    record["energy_cost"] = slot.energy_cost;
    record["theta"] = slot.theta;
    record["queue_after"] = slot.queue_after;
    slot_array.push_back(std::move(record));
  }
  doc["slots"] = std::move(slot_array);
  return doc;
}

GoldenTrace GoldenTrace::from_json(const util::Json& doc) {
  const std::string schema = require_string(doc, "schema");
  if (schema != kGoldenSchema) {
    throw std::invalid_argument("golden trace: unsupported schema \"" +
                                schema + "\" (expected " + kGoldenSchema +
                                ")");
  }
  GoldenTrace trace;
  trace.scenario = require_string(doc, "scenario");
  trace.policy = require_string(doc, "policy");
  trace.devices = require_size(doc, "devices");
  trace.horizon = require_size(doc, "horizon");
  trace.seed = static_cast<std::uint64_t>(require_number(doc, "seed"));
  const util::Json& slot_array = require_array(doc, "slots");
  trace.slots.reserve(slot_array.size());
  for (std::size_t i = 0; i < slot_array.size(); ++i) {
    const util::Json& record = slot_array.at(i);
    GoldenSlot slot;
    slot.slot = require_size(record, "slot");
    const util::Json& bs = require_array(record, "bs");
    const util::Json& server = require_array(record, "server");
    const util::Json& freq = require_array(record, "freq");
    for (std::size_t k = 0; k < bs.size(); ++k) {
      slot.bs_of.push_back(static_cast<std::size_t>(bs.at(k).as_number()));
    }
    for (std::size_t k = 0; k < server.size(); ++k) {
      slot.server_of.push_back(
          static_cast<std::size_t>(server.at(k).as_number()));
    }
    for (std::size_t k = 0; k < freq.size(); ++k) {
      slot.frequencies.push_back(freq.at(k).as_number());
    }
    slot.latency = require_number(record, "latency");
    slot.energy_cost = require_number(record, "energy_cost");
    slot.theta = require_number(record, "theta");
    slot.queue_after = require_number(record, "queue_after");
    trace.slots.push_back(std::move(slot));
  }
  return trace;
}

std::string GoldenDivergence::describe() const {
  if (identical) {
    return "traces identical";
  }
  std::ostringstream out;
  if (slot == kNoSlot) {
    out << "header field \"" << field << "\"";
  } else {
    out << "slot " << slot << ", field \"" << field << "\"";
  }
  out << ": expected " << expected << ", got " << actual;
  return out.str();
}

namespace {

// Records the first divergence; further set() calls are no-ops.
struct DivergenceBuilder {
  GoldenDivergence div;

  template <typename T>
  bool set(std::size_t slot, const std::string& field, const T& expected,
           const T& actual) {
    if (expected == actual || !div.identical) {
      return !div.identical;
    }
    div.identical = false;
    div.slot = slot;
    div.field = field;
    div.expected = render(expected);
    div.actual = render(actual);
    return true;
  }

  bool set_header(const std::string& field, const std::string& expected,
                  const std::string& actual) {
    if (expected == actual || !div.identical) {
      return !div.identical;
    }
    div.identical = false;
    div.slot = GoldenDivergence::kNoSlot;
    div.field = field;
    div.expected = expected;
    div.actual = actual;
    return true;
  }
};

}  // namespace

GoldenDivergence diff_golden(const GoldenTrace& expected,
                             const GoldenTrace& actual) {
  DivergenceBuilder b;
  if (b.set_header("scenario", expected.scenario, actual.scenario) ||
      b.set_header("policy", expected.policy, actual.policy) ||
      b.set_header("devices", render(expected.devices),
                   render(actual.devices)) ||
      b.set_header("horizon", render(expected.horizon),
                   render(actual.horizon)) ||
      b.set_header("seed", std::to_string(expected.seed),
                   std::to_string(actual.seed)) ||
      b.set_header("slots.size", render(expected.slots.size()),
                   render(actual.slots.size()))) {
    return b.div;
  }
  for (std::size_t t = 0; t < expected.slots.size(); ++t) {
    const GoldenSlot& e = expected.slots[t];
    const GoldenSlot& a = actual.slots[t];
    if (b.set(t, "slot", e.slot, a.slot)) return b.div;
    if (b.set(t, "bs.size", e.bs_of.size(), a.bs_of.size())) return b.div;
    if (b.set(t, "server.size", e.server_of.size(), a.server_of.size())) {
      return b.div;
    }
    if (b.set(t, "freq.size", e.frequencies.size(), a.frequencies.size())) {
      return b.div;
    }
    for (std::size_t i = 0; i < e.bs_of.size(); ++i) {
      if (b.set(t, "bs[" + std::to_string(i) + "]", e.bs_of[i], a.bs_of[i])) {
        return b.div;
      }
    }
    for (std::size_t i = 0; i < e.server_of.size(); ++i) {
      if (b.set(t, "server[" + std::to_string(i) + "]", e.server_of[i],
                a.server_of[i])) {
        return b.div;
      }
    }
    for (std::size_t i = 0; i < e.frequencies.size(); ++i) {
      if (b.set(t, "freq[" + std::to_string(i) + "]", e.frequencies[i],
                a.frequencies[i])) {
        return b.div;
      }
    }
    if (b.set(t, "latency", e.latency, a.latency)) return b.div;
    if (b.set(t, "energy_cost", e.energy_cost, a.energy_cost)) return b.div;
    if (b.set(t, "theta", e.theta, a.theta)) return b.div;
    if (b.set(t, "queue_after", e.queue_after, a.queue_after)) return b.div;
  }
  return b.div;
}

GoldenTrace record_golden_trace(const GoldenScenario& scenario,
                                const std::string& policy_name) {
  // Stream states slot by slot (same RNG draws as generate_states, so
  // recorded fixtures are byte-identical to the materialized era).
  ScenarioSource source(scenario.config, scenario.horizon);

  std::unique_ptr<Policy> policy =
      make_policy(policy_name, source.instance(), golden_policy_params());

  AuditConfig audit_config;
  audit_config.mode = AuditMode::kEverySlot;
  audit_config.check_queue = policy_tracks_queue(policy_name);

  GoldenTrace trace;
  trace.scenario = scenario.name;
  trace.policy = policy_name;
  trace.devices = scenario.config.devices;
  trace.horizon = scenario.horizon;
  trace.seed = scenario.config.seed;

  // run_policy's default seed, so a golden trace matches a plain
  // run_policy run on the same states.
  const SimulationResult run = run_policy(
      *policy, source.instance(), source, audit_config, 1,
      /*keep_series=*/false,
      [&trace](const core::SlotState&, const core::DppSlotResult& result,
               double) {
        GoldenSlot slot;
        slot.slot = trace.slots.size();
        slot.bs_of = result.decision.assignment.bs_of;
        slot.server_of = result.decision.assignment.server_of;
        slot.frequencies.reserve(result.decision.frequencies.size());
        for (double f : result.decision.frequencies) {
          slot.frequencies.push_back(round_sig(f));
        }
        slot.latency = round_sig(result.latency);
        slot.energy_cost = round_sig(result.energy_cost);
        slot.theta = round_sig(result.theta);
        slot.queue_after = round_sig(result.queue_after);
        trace.slots.push_back(std::move(slot));
      });

  if (!run.audit.clean()) {
    throw std::runtime_error("golden trace " + scenario.name + "." +
                             policy_name + " is not audit-clean: " +
                             run.audit.summary());
  }
  return trace;
}

std::string golden_fixture_filename(const std::string& scenario,
                                    const std::string& policy) {
  return scenario + "." + policy + ".json";
}

GoldenTrace load_golden_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open golden fixture: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return GoldenTrace::from_json(util::Json::parse(buffer.str()));
}

void write_golden_file(const std::string& path, const GoldenTrace& trace) {
  util::write_json_file(path, trace.to_json(), 1);
}

}  // namespace eotora::sim
