#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload churn-pl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in its own process (one OCaml domain).  The last
line of standard output is the result: one JSON object with the keys
correct, attempted, failed and metrics -- the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
`--workload all` runs every workload untraced, then traced, each in
its own process, prints one table per workload and, as its last line,
every result keyed by workload.

The program prints its metrics by name and unit; BENCHMARK.json is the
one list of them.  run.py orders them as it lists them, and gives 0 to
a per-layer metric that the workload does not exercise.  Exits 2
without a result when the program cannot be built, 3 when the
program's metrics do not match BENCHMARK.json, and 4 when a workload
exits with an error or runs past its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# Generous: a workload ends within about twice --seconds plus its check.
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail(2, "no dune-project next to perfbench/: nothing to build")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(2, "build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail(2, "build failed (dune exit %d)" % r.returncode)


def run_one(workload, seed, seconds, trace, bench):
    """Run one workload in its own process; return the lines it printed
    before its result, and the result."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(4, "%s did not end within %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(4, "%s exited with %d" % (workload, r.returncode))
    return lines[:-1], ordered(json.loads(lines[-1]), trace, bench, workload)


def ordered(result, trace, bench, workload):
    """The program's result with its metrics checked against
    BENCHMARK.json and put in its order.  A per-layer metric the
    workload does not exercise is not printed by the program; it reads
    0.  Every end-to-end metric must be printed."""
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in want}
    for name, v in got.items():
        if units.get(name) != v["unit"]:
            fail(3, "%s: metric %s (%s) is not in BENCHMARK.json"
                 % (workload, name, v["unit"]))
    metrics = {}
    for m in want:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail(3, "%s: metric %s was not measured" % (workload, m["name"]))
    return dict(result, metrics=metrics)


def main():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.workload != "all":
        lines, res = run_one(args.workload, args.seed, args.seconds,
                             args.trace, bench)
        print("\n".join(lines + [json.dumps(res)]), flush=True)
        return
    everything = {}
    for w in names:
        everything[w] = {}
        for trace in (0, 1):
            lines, res = run_one(w, args.seed, args.seconds, trace, bench)
            print("\n".join(lines))
            print("== %s (%s): correct=%s attempted=%d failed=%d" % (
                w, "per-layer" if trace else "end-to-end", res["correct"],
                res["attempted"], res["failed"]))
            for k, v in res["metrics"].items():
                print("  %-26s %16.6g %s" % (k, v["value"], v["unit"]))
            everything[w]["trace%d" % trace] = res
    print(json.dumps(everything), flush=True)


if __name__ == "__main__":
    main()
