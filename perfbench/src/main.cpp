// perfbench: runs one workload of the repository benchmark and prints its
// metrics, ending with a one-line JSON result.
//
//   perfbench --workload=<name> [--seed=N] [--seconds=S] [--trace=0|1]
//
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones.
// Exit code 0 when every correctness gate passed, 1 when one failed (the
// result line is still printed), 2 on bad arguments, an infeasible workload
// or an error (no result line).
#include <exception>
#include <iomanip>
#include <iostream>

#include "harness.h"
#include "util/args.h"
#include "workloads.h"

int main(int argc, char** argv) {
  try {
    const eotora::util::Args args(argc, argv,
                                  {"workload", "seed", "seconds", "trace"});
    perfbench::Options options;
    options.workload = args.get("workload", "");
    const long seed = args.get_int("seed", 1);
    options.seconds = args.get_double("seconds", 10.0);
    const long trace = args.get_int("trace", 0);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be > 0");
    }
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    options.seed = static_cast<std::uint64_t>(seed);
    options.trace = trace == 1;

    const perfbench::RunResult result =
        perfbench::run_workload(options, std::cout);
    for (const perfbench::Metric& metric : result.metrics) {
      std::cout << "  " << std::left << std::setw(30) << metric.name << ' '
                << std::setprecision(6) << metric.value << ' ' << metric.unit
                << '\n';
    }
    for (const std::string& failure : result.failures) {
      std::cout << "FAILED: " << failure << '\n';
    }
    std::cout << perfbench::result_line(result) << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
