#!/usr/bin/env python3
"""Steadiness mode: runs one workload k times, each with another seed, and
prints for every end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload sim-table1 --runs 10

Run from the repository root. Spreads above a third of the bound are marked
'wide'; above the bound, 'OVER'. setup_s is judged by its median only, so its
spread is shown for information.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit code %d" % (seed, out.returncode))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]), flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("failed share per run: %s" % shares)
    print("%-26s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, spec in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s":
            flag = "OVER" if spread > spec["bound"] else ("wide" if spread > spec["bound"] / 3 else "ok")
        print("%-26s %12.4f %12.4f %12.4f %8.4f %6.2f %s" %
              (name, med, q1, q3, spread, spec["bound"], flag))
        print("    " + " ".join("%.4g" % v for v in vals))


if __name__ == "__main__":
    main()
