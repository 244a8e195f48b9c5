// Golden-trace differential regression layer.
//
// A golden trace is a canonical per-slot digest of one policy driven over
// one small scenario: the discrete decisions (x, y) verbatim, plus the
// frequency vector and headline metrics rounded to 9 significant digits so
// the fixture pins algorithmic behavior (which solver moves were made, how
// the queue evolved) without being brittle to last-ulp arithmetic noise.
// Fixtures are committed under tests/golden/ as "eotora-golden-v1" JSON
// (util::json, insertion-ordered keys → byte-deterministic dumps); a perf
// PR that changes any fixture must say why in CHANGES.md (docs/TESTING.md).
//
// record_golden_trace() re-runs the scenario with an every-slot
// sim::SlotAuditor and throws if the run is not audit-clean — a golden
// fixture must never encode infeasible physics. diff_golden() reports the
// FIRST divergent slot and field, which is what the ctest target and the
// golden_tool CLI print on drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/audit.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "util/json.h"

namespace eotora::sim {

// One committed scenario: a name, the scenario knobs, and the horizon.
struct GoldenScenario {
  std::string name;
  ScenarioConfig config;
  std::size_t horizon = 16;
};

// The committed fixture matrix: 3 small scenarios x 8 registry policies
// (dpp-bdma — the paper's EOTORA controller —, dpp-mcba, dpp-ropt,
// beta-only, greedy-budget, fixed-max, fixed-min, mpc). fixed-frequency at
// its default fraction 1.0 is fixed-max, so every registry name is pinned.
[[nodiscard]] const std::vector<GoldenScenario>& golden_scenarios();
[[nodiscard]] const std::vector<std::string>& golden_policies();
// The scenario-diversity fixtures: one tiny world per registered non-paper
// scenario preset (sim/scenario_registry.h), each paired with dpp-bdma
// only — the presets drift-gate the GENERATORS, the 3x8 matrix above
// drift-gates the policies.
[[nodiscard]] const std::vector<GoldenScenario>& golden_preset_scenarios();
// The multi-component fixture: a 4-district metro world whose WCG splits
// into one component per district at every slot, paired with the four
// P2-A entry points (golden_metro_policies(): dpp-bdma, dpp-mcba, dpp-ropt,
// greedy-budget) — the one world that pins per-component solving against
// a recording of the whole-problem solve.
[[nodiscard]] const GoldenScenario& golden_metro_scenario();
[[nodiscard]] const std::vector<std::string>& golden_metro_policies();

// One committed fixture: a scenario plus the policy recorded over it.
struct GoldenCase {
  const GoldenScenario* scenario = nullptr;  // into one of the lists above
  std::string policy;
};
// Every committed fixture, in fixture-file order: the full
// golden_scenarios() x golden_policies() product (24), then
// golden_preset_scenarios() x dpp-bdma (4), then golden_metro_scenario() x
// golden_metro_policies() (4). golden_tool and the drift
// gates iterate THIS list — new fixtures only need a new entry here.
[[nodiscard]] const std::vector<GoldenCase>& golden_cases();
// The fixed PolicyParams every golden trace is recorded with.
[[nodiscard]] const PolicyParams& golden_policy_params();

// Rounds to `digits` significant decimal digits (shortest round-trip form
// of the rounded value re-parses to the same double).
[[nodiscard]] double round_sig(double value, int digits = 9);

struct GoldenSlot {
  std::size_t slot = 0;
  std::vector<std::size_t> bs_of;
  std::vector<std::size_t> server_of;
  std::vector<double> frequencies;  // rounded
  double latency = 0.0;             // rounded
  double energy_cost = 0.0;         // rounded
  double theta = 0.0;               // rounded
  double queue_after = 0.0;         // rounded
};

struct GoldenTrace {
  std::string scenario;  // GoldenScenario::name
  std::string policy;    // registry name
  std::size_t devices = 0;
  std::size_t horizon = 0;
  std::uint64_t seed = 0;  // the scenario seed
  std::vector<GoldenSlot> slots;

  [[nodiscard]] util::Json to_json() const;
  // Strict: throws std::invalid_argument on schema/type mismatches.
  [[nodiscard]] static GoldenTrace from_json(const util::Json& doc);
};

// First point of divergence between two traces.
struct GoldenDivergence {
  bool identical = true;
  // slot index within the trace; npos for header-level divergence.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t slot = kNoSlot;
  std::string field;     // e.g. "server_of[3]", "latency", "horizon"
  std::string expected;  // rendered expected value
  std::string actual;    // rendered actual value

  [[nodiscard]] std::string describe() const;
};

// Compares slot by slot, field by field, and reports the FIRST divergence.
[[nodiscard]] GoldenDivergence diff_golden(const GoldenTrace& expected,
                                           const GoldenTrace& actual);

// Runs `policy` (a registry name) over the scenario with an every-slot
// audit and digests each slot. Throws std::runtime_error naming the first
// violation if the run is not audit-clean.
[[nodiscard]] GoldenTrace record_golden_trace(const GoldenScenario& scenario,
                                              const std::string& policy);

// "<scenario>.<policy>.json"
[[nodiscard]] std::string golden_fixture_filename(const std::string& scenario,
                                                  const std::string& policy);

// Fixture file IO. load throws std::runtime_error (unreadable path) or
// std::invalid_argument (malformed document).
[[nodiscard]] GoldenTrace load_golden_file(const std::string& path);
void write_golden_file(const std::string& path, const GoldenTrace& trace);

}  // namespace eotora::sim
