#!/usr/bin/env python3
"""Builds and runs the V-ETL benchmark.

    python3 perfbench/run.py --workload ingest-covid --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary under .bench_build/ (later calls only
re-check the build). The binary runs its statistics self-test, then the
named workload, and prints one JSON object as the last line of stdout.
Build output goes to stderr. Trace files land in .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "vetl_bench")
WORKLOADS = ("ingest-covid", "fleet-mixed", "serve-churn")
# Every run must end within 180 s; the benchmark binary gets what is left
# after the (normally no-op) incremental build.
RUN_LIMIT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # CMake writes the Makefile only when configuring succeeded.
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=OUT_DIR)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {args.workload} exceeded {RUN_LIMIT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
