#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seconds 3]

For every workload, gated or not, a short timed run and a short
traced run must each end with a JSON line that is correct, has no
failed job, and carries exactly the metrics BENCHMARK.json lists for the
mode, with their units; every end-to-end metric must be nonzero, and
the traced run must report zero dropped events. Seeded inputs must be a
pure function of the seed: the same seed twice gives the same input
digest, and for the seeded workloads another seed gives another one.
Exit status 0 when every check passes.
"""
import argparse
import json
import os
import re
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNSEEDED = {"sim-paper"}  # builds fixed paper-scale graphs; no seeded inputs


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    digest = re.search(r"input_digest\s+([0-9a-f]+)", p.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        print(w, flush=True)
        digests = {}
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, digests[trace] = run(w, 7, args.seconds, trace)
            mode = "traced" if trace else "timed"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{mode}: exactly the four result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{mode}: correct, {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            got = result["metrics"]
            check(set(got) == {m["name"] for m in listed},
                  f"{mode}: every listed metric and no other")
            check(all(got.get(m["name"], {}).get("unit") == m["unit"]
                      for m in listed), f"{mode}: units as listed")
            if trace == 0:
                check(all(got[m["name"]]["value"] > 0 for m in listed),
                      "timed: every end-to-end metric nonzero")
            else:
                check(got["trace.dropped_events"]["value"] == 0,
                      "traced: no dropped events")
        _, again = run(w, 7, args.seconds, 0)
        check(digests[0] is not None and digests[0] == again == digests[1],
              "same seed, same input digest")
        if w not in UNSEEDED:
            _, other = run(w, 8, args.seconds, 0)
            check(other != digests[0], "another seed, another input digest")

    print("selftest: " + ("all checks pass" if not failures
                          else f"{len(failures)} checks FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
