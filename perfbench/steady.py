#!/usr/bin/env python3
"""Runs one workload repeatedly and reports how steady its end-to-end metrics are.

Usage (from the repository root):

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Each run is the command in BENCHMARK.json with --workload NAME --seed S
--seconds <run_seconds> --trace 0, seeds S = first-seed, first-seed+1, ...
For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the relative spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json, and
flags spreads above a third of the bound.  The machine fingerprint of the
runs (nproc, compiler, build type, revision) heads the report.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    fingerprint = "?"
    for i in range(opts.runs):
        seed = opts.first_seed + i
        cmd = bench["command"] + ["--workload", opts.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            print("run with seed %d failed (exit %d)" % (seed, run.returncode))
            return 1
        for line in lines:
            if line.startswith("fingerprint "):
                fingerprint = line[len("fingerprint "):]
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in values)), flush=True)

    print("workload %s, %d runs; machine: %s" % (opts.workload, opts.runs, fingerprint))
    print("%-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        flag = "" if spread <= bounds[name] / 3 else (
            "  > bound/3" if spread <= bounds[name] else "  > BOUND")
        if name == "setup_s":
            flag = ""  # set-up is held to its median, not its spread
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.2f%s" % (
            name, q2, q1, q3, spread, bounds[name], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
