#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload paper-100 --seed 1 --seconds 10 --trace 0

Configures perfbench/ (the library sources of this checkout plus the
benchmark binary) as a Release build in .bench_build/ at the checkout root,
builds it, and runs the binary. Build output goes to stderr; the benchmark's
report goes to stdout and ends with the one-line JSON result. The exit code
is the binary's: 0 when every correctness gate passed. A failed build exits
1 without a result. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build() -> Path:
    def run(cmd):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)

    if not (BUILD / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    return BUILD / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.call([
        str(binary),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ])


if __name__ == "__main__":
    sys.exit(main())
