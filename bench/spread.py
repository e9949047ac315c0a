"""Repeat one workload over several seeds and print each metric's spread.

    python3 bench/spread.py --workload family [--runs 10] [--seconds 20] [--first-seed 1]

Each run is ``run.py --trace 0``. For each end-to-end metric: the median,
the first and third quartiles (as ``statistics.quantiles(values, n=4)``
gives them), the quartile distance as a share of the median, and min/max
relative to the median. Bounds in ``BENCHMARK.json`` are set from these
figures. Also prints the failed share
of each run, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None, help="defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = os.path.dirname(HERE)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        line = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={shares[-1]} {line}", flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'min/med':>8s} {'max/med':>8s}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
        rel = (lambda x: x / med) if med else (lambda x: float("nan"))
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:46s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {rel(min(vs)):8.4f} {rel(max(vs)):8.4f}")
    print("failed shares:", " ".join(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
