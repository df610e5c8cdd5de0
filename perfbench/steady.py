#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads A,B]
                                [--seconds S] [--seed-base 1000]

Makes --sets sets of --runs timed runs per workload (trace 0), one seed
per run, alternating workloads inside each set so slow phases of the
host hit every workload alike. For every end-to-end metric it prints
each set's median and quartiles, the spread (Q3 - Q1) / median, and the
drift of each later set's median against the first set's (signed: > 0
is worse), each judged against the metric's bound from BENCHMARK.json,
the same rule for every metric and workload: spread within the bound
and |drift| within the bound. Results and the host (nproc, CPU model,
build type) go to stdout and to .bench_build/steady-<time>.json.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    return {"nproc": os.cpu_count(), "cpu": model, "build_type": build_type}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    info = host()
    print(f"host: nproc {info['nproc']}, cpu {info['cpu']}, "
          f"build {info['build_type']}; {args.sets} sets x {args.runs} "
          f"runs x {args.seconds} s", flush=True)
    values = {w: [[] for _ in range(args.sets)] for w in workloads}
    started = time.time()
    for s in range(args.sets):
        for r in range(args.runs):
            seed = args.seed_base + s * args.runs + r
            for w in workloads:
                values[w][s].append(run_once(w, seed, args.seconds))
                print(f"  set {s} run {r} {w} seed {seed} done "
                      f"({time.time() - started:.0f} s)", flush=True)

    ok = True
    report = {"host": info, "args": vars(args), "results": {}}
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':14} {'set':>3} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'spread':>7} {'drift':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            base = None
            for s in range(args.sets):
                series = [run[name] for run in values[w][s]]
                q1, med, q3 = quartiles(series)
                spread = (q3 - q1) / med
                if base is None:
                    base, drift = med, 0.0
                else:
                    drift = (med - base) / base * (1 if lower else -1)
                good = abs(drift) <= bound and spread <= bound
                steady = spread <= bound / 3
                ok &= good
                verdict = "ok" if good and steady else (
                    "ok (spread above bound/3)" if good else "FAIL")
                print(f"  {name:14} {s:>3} {q1:11.4f} {med:11.4f} "
                      f"{q3:11.4f} {spread:7.3f} {drift:7.3f} {bound:6.2f}"
                      f"  {verdict}")
                report["results"].setdefault(w, {}).setdefault(name, []).append(
                    {"values": series, "q1": q1, "median": med, "q3": q3,
                     "spread": spread, "drift": drift, "ok": good})
    out = os.path.join(ROOT, ".bench_build",
                       time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\n{'all metrics within bounds' if ok else 'SOME METRICS FAIL'}; "
          f"wrote {os.path.relpath(out, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
