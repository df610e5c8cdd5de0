#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload boot-tmult --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (a CMake package compiling ../src) into
.bench_build/perfbench on first use, rebuilds incrementally after that,
then runs the benchmark binary. Build output goes to stderr, so the
binary's last stdout line -- one JSON object -- is this script's last
stdout line too. Exits non-zero, without a result, if the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("boot-tmult", "serve-mix", "sim-paper")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
