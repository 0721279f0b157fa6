#!/usr/bin/env python3
"""Steadiness report: run each workload N times and compare spreads to bounds.

    python3 perfbench/steady.py --runs 10 [--sets 2]
                                [--workloads multiturn,pretrain]
                                [--seconds 30] [--first-seed 1] [--trace 0]

Run from the repository root. Run i of a workload uses seed first-seed + i.
For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json, and flags a spread above the bound
(OVER) or above a third of it (warn). With --sets K it runs K such sets one
after another (every workload in set 1, then every workload in set 2, ...)
and flags a later set's median that is worse than set 1's by more than the
bound (DRIFT). It also prints each run's CPU steal share, so a noisy host
shows, and how long each run took. Exits 1 if a run fails or any metric is
flagged OVER or DRIFT.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    stamp = {}
    for line in lines:
        if line.startswith("stamp: "):
            stamp = json.loads(line[len("stamp: "):])
    return result, stamp, wall


def run_set(workload, args, seconds, metrics):
    """Run one set of a workload; returns {metric: median} and prints it."""
    values = {m: [] for m in metrics}
    steal = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, stamp, wall = run_once(workload, seed, seconds, args.trace)
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
        for m in metrics:
            values[m].append(result["metrics"][m]["value"])
        steal.append(stamp.get("steal_frac", 0.0))
        print(f"  {workload} seed {seed}: attempted={result['attempted']} "
              f"steal={100 * steal[-1]:.1f}% wall={wall:.1f}s", flush=True)
    print(f"\n{workload}: {args.runs} runs of {seconds:g} s, "
          f"median steal {100 * statistics.median(steal):.1f}%")
    print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    medians, over = {}, False
    for m, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = metrics[m]["bound"]
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, over = "OVER", True
            elif spread > bound / 3:
                flag = "warn"
        medians[m] = med
        print(f"  {m:28} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6} {flag}",
              flush=True)
    print()
    return medians, over


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"bound": m.get("bound"), "better": m["better"]}
               for m in listed}

    failed = False
    first = {}
    for k in range(args.sets):
        if args.sets > 1:
            print(f"=== set {k + 1} of {args.sets}\n", flush=True)
        for w in names:
            medians, over = run_set(w, args, seconds, metrics)
            failed = failed or over
            if k == 0:
                first[w] = medians
                continue
            print(f"  {w}: set {k + 1} median against set 1")
            for m, med in medians.items():
                base, bound = first[w][m], metrics[m]["bound"]
                change = (med - base) / base if base else 0.0
                worse = change if metrics[m]["better"] == "lower" else -change
                flag = ""
                if bound is not None and worse > bound:
                    flag, failed = "DRIFT", True
                print(f"  {m:28} {base:12.5g} -> {med:12.5g} "
                      f"{100 * change:+7.1f}% {flag}", flush=True)
            print()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
