#!/usr/bin/env python3
"""Steadiness check for the zbench benchmark.

Runs every workload in two alternating sets (A, B, A, B, ...), each run
with its own seed, and prints for every end-to-end metric of every
workload: each set's median and quartiles, the spread of all runs (the
distance between the first and third quartile over the median), and how
far set B's median moved from set A's in the metric's worse direction.
Both are judged against the bound BENCHMARK.json declares: a spread must
stay below a third of the bound (setup_s is exempt), and a move must stay
within the bound.

Run from the root of a checkout:

    python3 zbench/steady.py --runs 5          # 10 runs per workload
    python3 zbench/steady.py --workloads serve-burst --runs 3

It exits 1 if a run fails or a figure is outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        return None
    res = json.loads(lines[-1])
    if not res["correct"]:
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--base-seed", type=int, default=1000)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2 to give quartiles")
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    sets = {w: ([], []) for w in workloads}
    failed = 0
    start = time.time()
    for i in range(args.runs):
        for s in (0, 1):
            for w in workloads:
                seed = args.base_seed + 2 * i + s
                m = run_once(w, seed, args.seconds)
                if m is None:
                    print(f"run failed: {w} seed {seed}")
                    failed += 1
                    continue
                sets[w][s].append(m)
    print(f"{args.runs} runs per set, {args.seconds}s each, "
          f"{time.time() - start:.0f}s in all, base seed {args.base_seed}")

    bad = failed
    for w in workloads:
        a, b = sets[w]
        if len(a) < 2 or len(b) < 2:
            continue
        print(f"\n{w}")
        print(f"  {'metric':22s} {'set A median [q1, q3]':34s} {'set B median [q1, q3]':34s}"
              f" {'spread':>7s} {'B vs A':>7s} {'bound':>6s}")
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            va = [r[name] for r in a]
            vb = [r[name] for r in b]
            cols = []
            for v in (va, vb):
                q1, med, q3 = statistics.quantiles(v, n=4)
                cols.append(f"{statistics.median(v):.6g} [{q1:.6g}, {q3:.6g}]")
            sp = spread(va + vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            move = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            flags = []
            if name != "setup_s" and sp >= bound / 3:
                flags.append("SPREAD")
            if move > bound:
                flags.append("MOVED")
            bad += len(flags)
            print(f"  {name:22s} {cols[0]:34s} {cols[1]:34s} {sp:7.4f} {move:+7.4f} {bound:6.3f}"
                  f" {' '.join(flags)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
