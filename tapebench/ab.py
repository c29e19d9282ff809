#!/usr/bin/env python3
"""Steadiness and A/B runs of the tapesim benchmark.

Runs the benchmark command from BENCHMARK.json in two checkouts, A and B,
alternating which side goes first in each pair, with seeds seed, seed+1,
... For every end-to-end metric of every workload it prints each side's
median and quartiles, the spread (interquartile range over the median),
and B's change against A, and checks both against the metric's bound:

  * spread: each side's spread must stay within the bound (and below a
    third of it to count as steady); setup_s is exempt from this check;
  * change: B's median must not be worse than A's by more than the bound.

With A and B the same checkout (the default) this measures the
benchmark's own steadiness. To compare a change with its parent, pass
the parent's checkout as A and the change's as B; each side builds into
its own .bench_build directory.

    python3 tapebench/ab.py [--a DIR] [--b DIR] [--runs 10] [--seed 1]
                            [--workloads w1,w2] [--trace 0|1] [--out FILE]

The header records nproc and the seeds; --out also writes every run's
result line as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {workload} seed {seed} failed its checks:\n{proc.stderr[-2000:]}")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--a", default=".", help="checkout A (default: this one)")
    p.add_argument("--b", default=None, help="checkout B (default: same as A)")
    p.add_argument("--runs", type=int, default=10, help="runs per side and workload")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--out", default=None, help="write every result line here as JSON")
    args = p.parse_args()

    a = os.path.abspath(args.a)
    b = os.path.abspath(args.b or args.a)
    with open(os.path.join(a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(args.seed, args.seed + args.runs))
    print(f"nproc {os.cpu_count()}  seeds {seeds[0]}..{seeds[-1]}  "
          f"run_seconds {spec['run_seconds']}  trace {args.trace}")
    print(f"A {a}\nB {b}")

    record = {"nproc": os.cpu_count(), "seeds": seeds, "a": a, "b": b, "runs": []}
    failures = 0
    for w in workloads:
        sides = {"A": [], "B": []}
        for i, seed in enumerate(seeds):
            order = [("A", a), ("B", b)] if i % 2 == 0 else [("B", b), ("A", a)]
            for label, checkout in order:
                res = run_once(checkout, spec, w, seed, args.trace)
                sides[label].append(res)
                record["runs"].append({"workload": w, "side": label, "seed": seed,
                                       "result": res})
        print(f"\n{w}")
        print(f"  {'metric':30} {'A median':>14} {'A spread':>9} {'B median':>14} "
              f"{'B spread':>9} {'B vs A':>8}  verdict")
        for m in metrics:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in sides["A"]]
            vb = [r["metrics"][name]["value"] for r in sides["B"]]
            ma, _, _, sa = summary(va)
            mb, _, _, sb = summary(vb)
            worse = (mb - ma) / ma if ma else 0.0
            if m["better"] == "higher":
                worse = -worse
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                spread_ok = name == "setup_s" or max(sa, sb) <= bound
                change_ok = worse <= bound
                steady = max(sa, sb) < bound / 3
                verdict = ("ok" if spread_ok and change_ok else "OUT OF BOUND")
                verdict += "" if steady or name == "setup_s" else " (spread above bound/3)"
                failures += not (spread_ok and change_ok)
            print(f"  {name:30} {ma:14.6g} {sa:9.4f} {mb:14.6g} {sb:9.4f} "
                  f"{worse:+8.4f}  {verdict}")
            qa, qb = statistics.quantiles(va, n=4), statistics.quantiles(vb, n=4)
            print(f"  {'':30} q1/q3 A {qa[0]:.6g}/{qa[2]:.6g}  B {qb[0]:.6g}/{qb[2]:.6g}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
