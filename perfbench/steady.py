#!/usr/bin/env python3
"""Steadiness check: run each workload N times, one seed per run, and
print every end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) against the
bound BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]

Run from the root of a checkout. A metric is steady when its spread is
below a third of its bound (setup_s is reported but never judged: its
bound covers a shift of the median, not the spread). Exits 1 if any run
fails or any judged metric is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(w, seed, args.seconds)
            if res is None or not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: run failed")
                ok = False
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "not judged"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {m['name']:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g}"
                  f" {spread:>8.4f} {m['bound']:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
