#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark's metrics.

Runs `bench/e2e/run.sh --workload W --seed S --seconds T` once for each
workload and each of --seeds consecutive seeds, then prints, per
workload and metric, the median over the seeds and the spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.  Compare
the spread with the metric's bound in BENCHMARK.json.

    python3 bench/e2e/spread.py [--seeds 10] [--first-seed 1]
                                [--seconds 10] [--workloads a,b]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = {}
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True)
            last = run.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0])
            if run.returncode != 0 or not result.get("correct"):
                sys.exit(f"{workload} seed {seed} failed:\n{run.stderr}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{workload:16s} {name:16s} median {med:12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds.get(name, 0):.2f}  "
                  f"values {' '.join(f'{v:.4g}' for v in vals)}",
                  flush=True)
    print("worst spread per metric (a third of the bound or less is "
          "the target):")
    for name, spread in worst.items():
        print(f"  {name:16s} {spread:6.3f}  bound {bounds.get(name, 0):.2f}")


if __name__ == "__main__":
    main()
