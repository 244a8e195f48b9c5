// Golden-trace fixture tool: record, check, and diff the committed
// regression fixtures under tests/golden/.
//
//   golden_tool check  [dir]          re-derive every trace, diff vs disk
//   golden_tool record [dir]          (re)write every fixture
//   golden_tool diff   <a.json> <b.json>
//
// `dir` defaults to EOTORA_GOLDEN_DIR (stamped at build time to the
// source-tree tests/golden/). `check` prints the FIRST divergent slot and
// field for every drifted fixture and exits non-zero — this is the CI
// drift gate; scripts/regen_golden.sh wraps record+check.
#include <iostream>
#include <string>
#include <vector>

#include "support/golden.h"

#ifndef EOTORA_GOLDEN_DIR
#define EOTORA_GOLDEN_DIR "tests/golden"
#endif

namespace {

using eotora::sim::GoldenCase;
using eotora::sim::GoldenDivergence;
using eotora::sim::GoldenScenario;
using eotora::sim::GoldenTrace;

int usage() {
  std::cerr << "usage: golden_tool check [dir]\n"
               "       golden_tool record [dir]\n"
               "       golden_tool diff <expected.json> <actual.json>\n"
               "default dir: " EOTORA_GOLDEN_DIR "\n";
  return 2;
}

std::string fixture_path(const std::string& dir, const GoldenScenario& gs,
                         const std::string& policy) {
  return dir + "/" + eotora::sim::golden_fixture_filename(gs.name, policy);
}

int run_record(const std::string& dir) {
  for (const GoldenCase& gc : eotora::sim::golden_cases()) {
    const GoldenTrace trace =
        eotora::sim::record_golden_trace(*gc.scenario, gc.policy);
    const std::string path = fixture_path(dir, *gc.scenario, gc.policy);
    eotora::sim::write_golden_file(path, trace);
    std::cout << "wrote " << path << " (" << trace.slots.size()
              << " slots)\n";
  }
  return 0;
}

int run_check(const std::string& dir) {
  std::size_t checked = 0;
  std::size_t drifted = 0;
  for (const GoldenCase& gc : eotora::sim::golden_cases()) {
    const std::string path = fixture_path(dir, *gc.scenario, gc.policy);
    ++checked;
    GoldenTrace expected;
    try {
      expected = eotora::sim::load_golden_file(path);
    } catch (const std::exception& error) {
      std::cerr << "FAIL " << path << ": " << error.what() << "\n";
      ++drifted;
      continue;
    }
    const GoldenTrace actual =
        eotora::sim::record_golden_trace(*gc.scenario, gc.policy);
    const GoldenDivergence div = eotora::sim::diff_golden(expected, actual);
    if (div.identical) {
      std::cout << "ok   " << path << "\n";
    } else {
      std::cerr << "FAIL " << path << ": " << div.describe() << "\n";
      ++drifted;
    }
  }
  if (drifted > 0) {
    std::cerr << drifted << "/" << checked
              << " fixtures drifted. If the change is intended, regenerate "
                 "with scripts/regen_golden.sh and explain it in "
                 "CHANGES.md.\n";
    return 1;
  }
  std::cout << "all " << checked << " golden fixtures match\n";
  return 0;
}

int run_diff(const std::string& left, const std::string& right) {
  const GoldenTrace expected = eotora::sim::load_golden_file(left);
  const GoldenTrace actual = eotora::sim::load_golden_file(right);
  const GoldenDivergence div = eotora::sim::diff_golden(expected, actual);
  std::cout << div.describe() << "\n";
  return div.identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) return usage();
    const std::string& command = args[0];
    if (command == "record" && args.size() <= 2) {
      return run_record(args.size() == 2 ? args[1] : EOTORA_GOLDEN_DIR);
    }
    if (command == "check" && args.size() <= 2) {
      return run_check(args.size() == 2 ? args[1] : EOTORA_GOLDEN_DIR);
    }
    if (command == "diff" && args.size() == 3) {
      return run_diff(args[1], args[2]);
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
