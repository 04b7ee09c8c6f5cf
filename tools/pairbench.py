"""Paired benchmark runs of two checkouts, summarised into one BENCH_<n>.json.

    python3 tools/pairbench.py --base ../parent --change . --workload dense-gap \
        --out BENCH_27.json

Pair i (1-based) runs BENCHMARK.json's command with `--workload W --seed i
--seconds <run_seconds>` once in each checkout, with that checkout's own
harness and source; the two checkouts' BENCHMARK.json must agree on command
and run length.  The base runs first in odd pairs and the change first in
even ones, so a slow phase of the host falls on both sides alike.  Each
workload named by --workload (repeatable) gets its own pairs, at least ten.

For every end-to-end metric of BENCHMARK.json the summary gives each side's
median and quartiles (statistics.quantiles' default method, as
perfbench/steady.py takes them), the change's median gain over the base, the
base's interquartile range, and the pairs the change won (ties count for
neither side).  A gain is claimable when there are at least ten pairs, every
run of both sides was correct, the change failed no larger share of its
operations than the base, the change won at least nine tenths of the pairs,
and the medians differ by more than the base's interquartile range.  `env`
records the interpreter, numpy and its BLAS, the CPUs this process may run
on and PYTHONDONTWRITEBYTECODE, which all move the times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_run(stdout: str) -> dict:
    """The JSON record on the last line of a perfbench run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    record = json.loads(lines[-1])
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: m["value"] for name, m in record["metrics"].items()}}


MIN_PAIRS = 10


def run_once(tree: str, bench: dict, workload: str, seed: int) -> dict:
    """One benchmark run in ``tree``; a run that fails is an error, not a sample."""
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr[-500:]}")
    return parse_run(proc.stdout)


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the median gain, the base's IQR, the wins and
    whether the gain is claimable; and each side's share of failed operations.

    ``pairs`` hold a ``base`` and a ``change`` run as :func:`parse_run` returns
    them; ``better`` maps each metric to "higher" or "lower".
    """
    failed = {side: sum(p[side]["failed"] for p in pairs)
              / max(1, sum(p[side]["attempted"] for p in pairs))
              for side in ("base", "change")}
    sound = (len(pairs) >= MIN_PAIRS and failed["change"] <= failed["base"]
             and all(p[side]["correct"] for p in pairs for side in ("base", "change")))
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        b, c = _spread(base), _spread(change)
        iqr = b["q3"] - b["q1"]
        wins = sum(sign * (y - x) > 0 for x, y in zip(base, change))
        out[name] = {
            "better": direction, "base": b, "change": c,
            "gain": c["median"] / b["median"] - 1.0 if b["median"] else None,
            "base_iqr": iqr, "change_wins": wins, "pairs": len(pairs),
            "claimable": (sound and wins >= 0.9 * len(pairs)
                          and sign * (c["median"] - b["median"]) > iqr),
        }
    out["failed_share"] = failed
    return out


def _commit(tree: str) -> str | None:
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def env() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "sched_getaffinity": sorted(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def _benchmark(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    bench, base_bench = _benchmark(args.change), _benchmark(args.base)
    for key in ("command", "run_seconds"):
        if bench[key] != base_bench[key]:
            parser.error(f"the checkouts' BENCHMARK.json differ in {key!r}")

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {"env": env(), "command": bench["command"], "run_seconds": bench["run_seconds"],
              "base": {"commit": _commit(args.base)}, "change": {"commit": _commit(args.change)},
              "workloads": {}}
    for workload in args.workload:
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), bench, workload, seed)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {pair[side]['metrics'].get('questions_per_s', float('nan')):.4g}"
                for side in ("base", "change")), flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summarise(pairs, better)}
        with open(args.out, "w", encoding="utf-8") as fh:  # kept whole after each workload
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
