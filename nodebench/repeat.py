#!/usr/bin/env python3
"""Runs the benchmark in sets and prints each metric's median and quartiles.

    python3 nodebench/repeat.py --sets 2 --runs 10 [--seconds 15]

Each set runs every workload --runs times, one seed per run (seeds
1..runs in the first set, runs+1..2*runs in the second, and so on), through
nodebench/run.sh from the current directory (the repository root). For each
workload and end-to-end metric it prints, per set, the median, the first and
third quartiles (statistics.quantiles, n=4) and the spread (Q3-Q1)/median,
then how far the last set's median moved from the first's. Every run's
result line is appended to .bench_build/repeat-results.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["a2i-ingest", "i2a-churn", "recovery"]


def run_once(workload, seed, seconds):
    cmd = ["bash", "nodebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), p.stderr[-2000:]))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]
    os.makedirs(".bench_build", exist_ok=True)
    log = open(".bench_build/repeat-results.jsonl", "a")
    results = {}  # (set, workload) -> [result]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for wl in WORKLOADS:
                res = run_once(wl, seed, seconds)
                log.write(json.dumps({"set": s, "workload": wl, "seed": seed, "result": res}) + "\n")
                log.flush()
                results.setdefault((s, wl), []).append(res)
                print("set %d seed %d %s: failed %d of %d, correct %s" % (
                    s, seed, wl, res["failed"], res["attempted"], res["correct"]), file=sys.stderr)
    for wl in WORKLOADS:
        print("== %s" % wl)
        names = sorted(results[(0, wl)][0]["metrics"])
        for name in names:
            unit = results[(0, wl)][0]["metrics"][name]["unit"]
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[(s, wl)]]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                print("  %-30s set %d  median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  %s" % (
                    name, s, med, q1, q3, spread, unit))
            if len(meds) > 1:
                print("  %-30s shift %+.3f (last set vs first)" % (name, (meds[-1] - meds[0]) / meds[0]))
        for s in range(args.sets):
            fails = [(r["failed"], r["attempted"]) for r in results[(s, wl)]]
            print("  failed/attempted set %d: %s" % (s, sorted(set(f / a for f, a in fails))))


if __name__ == "__main__":
    main()
