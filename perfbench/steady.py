"""Steadiness check: run workloads on several seeds and compare spreads with bounds.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads long-prefix --seeds 5

For each end-to-end metric the spread is (Q3 - Q1) / median over the runs,
with quartiles from statistics.quantiles(values, n=4).  A metric is steady
when its spread stays below a third of its bound in BENCHMARK.json.  With
--trace 1, every count (unit `count` or `flop`) must read exactly the same
in every run.  The share of failed operations must be identical in every
run.  Runs are sequential, from the root of the checkout, with the command
and run length of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = ("count", "flop")  # per-layer metrics that must repeat exactly


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..SEEDS")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: correct {correct}  failed shares {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for m in metric_defs:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                steady &= ok
                verdict = f"bound {bound:<5} {'ok' if ok else 'TOO WIDE'}"
            elif m["unit"] in COUNT_UNITS:
                ok = len(set(values)) == 1
                steady &= ok
                verdict = "repeats" if ok else f"DIFFERS: {sorted(set(values))}"
            print(f"  {m['name']:26s} median {med:12.6g}  spread {spread:8.4f}  {verdict}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
