#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload model_tune --seeds 1-10

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    command = bench["command"] + ["--workload", args.workload,
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
    values = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(command + ["--seed", str(seed)], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:32s} median {med:12.6g}  spread {spread:7.4f}  bound {bounds.get(name)}  "
              f"values {[round(v, 6) for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
