#!/usr/bin/env python3
"""Builds the st4ml benchmark program from source and runs one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fig7-batch, serve-mix, ingest-mix, shuffle-mp. BENCHMARK.json
lists all but ingest-mix, whose merged selects fail on a known race in the
program (see perfbench/NOTES.md); it runs by hand. The build lives in
.bench_build/perfbench; build output goes to stderr so the last stdout line is
the benchmark's result object. Exits non-zero if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "st4ml_perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "st4ml_perfbench"],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig7-batch", "serve-mix", "ingest-mix",
                                 "shuffle-mp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
