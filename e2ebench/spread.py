#!/usr/bin/env python3
"""Repeat-and-spread tool: runs each workload N times with distinct seeds and
prints, for every metric, the median, the quartiles and the spread (the
interquartile distance as a share of the median).

Run from the repository root:

    python3 e2ebench/spread.py --runs 10 --seconds 20 [--first-seed 1]
        [--workloads pipeline_local,serve_mixed] [--trace 0] [--json out.json]

With --json the per-run values are written out too, so two sets of runs can
be compared: `spread.py --compare a.json b.json` prints, per workload and
metric, how far the second median moved from the first as a share of it,
next to the bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d incorrect" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(runs, bounds):
    for workload, per_run in runs.items():
        print("\n== %s (%d runs)" % (workload, len(per_run)))
        print("  %-32s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in per_run[0]:
            vals = [r[name] for r in per_run]
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <- above a third of the bound"
            print("  %-32s %14.6g %14.6g %14.6g %8.4f %6s%s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, flag))


def compare(path_a, path_b, bounds, better):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    worst_ok = True
    for workload in a:
        if workload not in b:
            continue
        print("\n== %s" % workload)
        for name in a[workload][0]:
            ma = statistics.median(r[name] for r in a[workload])
            mb = statistics.median(r[name] for r in b[workload])
            change = (mb - ma) / ma if ma else 0.0
            worse = change if better.get(name) == "lower" else -change
            bound = bounds.get(name)
            ok = bound is None or worse <= bound
            worst_ok = worst_ok and ok
            print("  %-32s %14.6g -> %14.6g  worse by %+.4f  bound %s %s" %
                  (name, ma, mb, worse, bound, "" if ok else "<- OUT"))
    return 0 if worst_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.compare:
        return compare(args.compare[0], args.compare[1], bounds, better)

    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics = run_once(workload, seed, seconds, args.trace)
            runs[workload].append(metrics)
            print("%s seed %d: %s" % (workload, seed, json.dumps(metrics)),
                  file=sys.stderr, flush=True)
    report(runs, bounds if args.trace == 0 else {})
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
