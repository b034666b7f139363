#!/usr/bin/env python3
"""Steadiness check for the benchmark: how far its figures spread.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--workload churn-pl ...] [--sets 2]

Runs each workload --runs times untraced, with seeds 1, 2, ..., --runs,
one process at a time.  For every
end-to-end metric it prints the median, the first and third quartiles
(Python's statistics.quantiles, n=4) and the spread -- the distance
between the quartiles as a share of the median -- against the metric's
bound in BENCHMARK.json, flagging a spread above a third of the bound.
It also prints the share
of failed operations in each run, which must be the same in every run.
With --sets 2 it repeats the runs and compares the second set's
medians with the first's against the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if r.returncode != 0:
        sys.exit("%s seed %d exited with %d" % (workload, seed, r.returncode))
    return json.loads(r.stdout.splitlines()[-1])


def worse(metric, first, second):
    """Share by which `second` is worse than `first`."""
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = ap.parse_args()
    ok = True
    for w in args.workload or names:
        medians = []
        for s in range(args.sets):
            results = []
            for seed in range(1, args.runs + 1):
                res = run(w, seed, args.seconds)
                results.append(res)
                print("%s seed %d: %s" % (w, seed, json.dumps(res)), flush=True)
            shares = sorted({(r["failed"], r["attempted"]) for r in results})
            same = len({r["failed"] / r["attempted"] for r in results}) == 1
            ok = ok and same
            print("== %s set %d: failed/attempted per run %s -> %s" % (
                w, s + 1, shares, "same share" if same else "SHARE DIFFERS"))
            med = {}
            for m in bench["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in results]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                med[m["name"]] = statistics.median(vals)
                spread = (q3 - q1) / med[m["name"]]
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  above a third of the bound"
                print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f"
                      " (bound %.2f)%s" % (m["name"], med[m["name"]], q1, q3,
                                           spread, m["bound"], flag))
            medians.append(med)
        if len(medians) == 2:
            for m in bench["end_to_end"]:
                d = worse(m, medians[0][m["name"]], medians[1][m["name"]])
                flag = ""
                if d > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                print("  %-14s second set worse by %6.3f (bound %.2f)%s" % (
                    m["name"], d, m["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
