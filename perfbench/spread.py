#!/usr/bin/env python3
"""Run perfbench on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload campaign --seeds 10 --seconds 15

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median -- the figure a
metric's bound in BENCHMARK.json has to cover. Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    for workload in args.workload:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} "
                      f"of {result['attempted']} failed)")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.seeds} seeds x {args.seconds} s")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else float("inf")
            print(f"  {name:36s} median {median:12.6g}  spread {spread:7.2%}"
                  f"  [{min(series):.6g} .. {max(series):.6g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
