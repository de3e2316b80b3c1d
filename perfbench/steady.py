#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--workloads browse,edit]
                                [--first-seed 1] [--save set1.json]
                                [--compare set1.json] [--traced]

Each run uses the next seed. For every pair of workload and end-to-end
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and that
spread as a share of the metric's bound in BENCHMARK.json, plus each
workload's share of failed operations. A spread above a third of the bound
is flagged; setup_s is only flagged on drift, because its bound applies to
its median. --save writes the raw results, --compare prints each median's
drift against a saved set. --traced adds one traced run per workload and
prints its per-layer metrics beside the untraced medians of the
end-to-end ones, so the tracing overhead shows.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s" % (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", default="")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)

    results = {}
    for w in names:
        results[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, _ = run(w, seed, bench["run_seconds"], 0)
            results[w].append(res)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                w, seed, res["correct"], res["attempted"], res["failed"]), file=sys.stderr)

    print("%-8s %-20s %12s %12s %12s %8s %7s %8s %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "/bound", "drift"))
    for w in names:
        runs = results[w]
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3 = summary(vals)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bound / 3:
                flag = " UNSTEADY"
            drift = ""
            if w in base:
                bmed = statistics.median([r["metrics"][name]["value"] for r in base[w]])
                d = med / bmed - 1
                drift = "%+.1f%%" % (100 * d)
                if d > bound:
                    flag += " REGRESSED"
            print("%-8s %-20s %12.4f %12.4f %12.4f %7.1f%% %7.2f %7.0f%% %s%s" % (
                w, name, med, q1, q3, 100 * spread, bound, 100 * spread / bound, drift, flag))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        shares = sorted(set("%d/%d" % (r["failed"], r["attempted"]) for r in runs))
        print("%-8s failed share %d/%d (%s), all correct: %s" % (
            w, failed, attempted, ", ".join(shares[:3]), all(r["correct"] for r in runs)))

    if args.traced:
        for w in names:
            res, lines = run(w, args.first_seed, bench["run_seconds"], 1)
            print("\n%s traced run (seed %d):" % (w, args.first_seed))
            traced = {}
            for line in lines:
                parts = line.split()
                if len(parts) >= 3 and parts[0] in bounds:
                    traced[parts[0]] = float(parts[1])
            print("  %-22s %12s %12s %8s" % ("end-to-end", "untraced", "traced", "overhead"))
            for name in bounds:
                med = statistics.median([r["metrics"][name]["value"] for r in results[w]])
                t = traced.get(name, float("nan"))
                print("  %-22s %12.4f %12.4f %+7.1f%%" % (name, med, t, 100 * (t / med - 1)))
            print("  %-36s %14s %-6s" % ("per-layer", "value", "unit"))
            for name, m in res["metrics"].items():
                print("  %-36s %14.4f %-6s" % (name, m["value"], m["unit"]))

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
