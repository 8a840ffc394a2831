#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --runs 5 [--first-seed 1]
        [--trace 0|1]

Run from the root of a source tree. For every metric it prints the
median over the runs and the quartile spread, (q3 - q1) / median, with
the quartiles of Python's statistics.quantiles(values, n=4); beside it
the metric's bound from BENCHMARK.json and whether the spread is under
a third of that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:26s} median {med:14.6g}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-'} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
