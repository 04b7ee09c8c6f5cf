"""minatt benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload long-prefix --seed 1 --seconds 20 --trace 0

A single client asks the workload's questions one at a time (a closed
loop), in whole rounds, until --seconds have passed, and checks every
answer against `oracle`.  The last line of stdout is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.

Nothing but the standard library is imported before `import minatt`, so
that the set-up children time the import a user pays, numpy included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 9   # fresh-process set-ups per run, spread over the timed loop
MIN_ROUNDS = 2   # with --trace 1: one untraced and one traced round at least


def _import_minatt():
    sys.path.insert(0, SRC)
    import minatt
    if not os.path.abspath(minatt.__file__).startswith(SRC + os.sep):
        raise ImportError(f"minatt imported from {minatt.__file__}, not from {SRC}")
    return minatt


def setup_child(args) -> int:
    """One fresh-process set-up: import, build the inputs, warm up."""
    t0 = time.perf_counter()
    minatt = _import_minatt()
    t1 = time.perf_counter()
    from workloads import WORKLOADS, Context
    t2 = time.perf_counter()
    workload = WORKLOADS[args.workload](minatt, args.seed, Context(ROOT, args.workdir))
    workload.warmup()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


def measure_setup(args, workdir: str, i: int) -> dict:
    """Run set-up number i in a fresh process and return its timings."""
    from workloads import run_child
    sub = os.path.join(workdir, f"setup-{i}")
    os.makedirs(sub)
    code, out, err, _ = run_child(
        [sys.executable, os.path.abspath(__file__), "--setup-child", "--workdir", sub,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0"], dict(os.environ))
    if code != 0:
        raise RuntimeError(f"set-up child failed ({code}): {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def record(self, op, answer, error):
        """Count one operation; a check that raises anything but Wrong is never a known fault."""
        from workloads import Wrong
        self.attempted += 1
        known = op.known_fault
        if error is None:
            try:
                op.check(answer)
                return
            except Wrong as exc:
                error = exc
            except Exception as exc:  # the answer could not even be read
                error, known = exc, False
        self.failed += 1
        if not known:
            self.correct = False
        note = f"{'known fault' if known else 'WRONG'}: {op.question}: " \
               f"{type(error).__name__}: {error}"
        if note not in self.notes:
            self.notes.append(note)


def run_rounds(workload, seconds: float, trace: bool, workdir: str, setup):
    """Closed loop over whole rounds; with trace, odd rounds run traced.

    Between two questions, when set-up number i is due (at i / SETUP_REPS of
    the run), `setup(i)` runs it in a fresh process, so the set-ups sample
    the whole run rather than one moment of it.  Their time does not count
    towards `seconds`.
    """
    from spans import Tracer
    tally = Tally()
    setups: list[dict] = []
    setup_s = 0.0
    times: dict[str, list[int]] = {}
    plain = {"ops": 0, "ns": 0}
    traced = {"ops": 0, "ns": 0, "rounds": 0}
    tracer = Tracer()
    snapshots = []
    in_process = workload.in_process
    start = time.perf_counter()

    def timed_s() -> float:
        return time.perf_counter() - start - setup_s

    def setups_due():
        nonlocal setup_s
        while len(setups) < SETUP_REPS and timed_s() >= len(setups) * seconds / SETUP_REPS:
            t0 = time.perf_counter()
            setups.append(setup(len(setups)))
            setup_s += time.perf_counter() - t0

    r = 0
    while r < MIN_ROUNDS or timed_s() < seconds:
        traced_round = trace and r % 2 == 1
        trace_dir = None
        if traced_round and not in_process:
            trace_dir = os.path.join(workdir, "spans")
            os.makedirs(trace_dir, exist_ok=True)
        ops = workload.round(r, trace_dir=trace_dir)
        if traced_round and in_process:
            tracer.install()
        try:
            for op in ops:
                setups_due()
                error = answer = None
                tracer.active = traced_round and in_process
                t0 = time.perf_counter_ns()
                try:
                    answer = op.ask()
                except Exception as exc:  # recorded as a failed operation
                    error = exc
                elapsed = time.perf_counter_ns() - t0
                tracer.active = False
                side = traced if traced_round else plain
                side["ops"] += 1
                side["ns"] += elapsed
                if not traced_round:
                    times.setdefault(op.question, []).append(elapsed)
                tally.record(op, answer, error)
        finally:
            tracer.active = False
            if traced_round and in_process:
                tracer.uninstall()
        if traced_round:
            traced["rounds"] += 1
            if trace_dir is not None:
                for name in sorted(os.listdir(trace_dir)):
                    with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                        snapshots.append(json.load(fh))
                shutil.rmtree(trace_dir)
        r += 1
    while len(setups) < SETUP_REPS:
        setups.append(setup(len(setups)))
    if trace and in_process:
        snapshots.append(tracer.snapshot())
    return tally, times, plain, traced, snapshots, setups, r


def end_to_end(workload, times, plain, setups) -> dict:
    medians = [statistics.median(v) / 1e6 for v in times.values()]
    gmean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    return {
        "questions_per_s": (plain["ops"] / (plain["ns"] / 1e9), "questions/s"),
        "question_gmean_ms": (gmean, "ms"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def per_layer(plain, traced, snapshots, setups) -> dict:
    from spans import layer_totals
    totals = layer_totals(snapshots)
    rounds = traced["rounds"]
    layers, counts = totals["layers"], totals["counts"]
    out = {}
    for layer in ("operators", "linalg", "spectral", "gap", "perturbation"):
        out[f"{layer}.self_ms"] = (layers[layer]["self_ns"] / 1e6 / rounds, "ms")
        out[f"{layer}.calls"] = (layers[layer]["calls"] / rounds, "count")
    out["operators.values_calls"] = (counts["values_calls"] / rounds, "count")
    out["operators.values_entries"] = (counts["values_entries"] / rounds, "count")
    out["operators.values_ms"] = (counts["values_ns"] / 1e6 / rounds, "ms")
    out["operators.block_max_k"] = (counts["block_max_k"], "count")
    out["linalg.max_dim"] = (counts["linalg_max_dim"], "count")
    out["linalg.flops_computed"] = (counts["linalg_flops"] / rounds, "flop")
    out["scenario.self_ms"] = (layers["scenario"]["self_ns"] / 1e6 / rounds, "ms")
    out["scenario.emit_ms"] = (totals["emit_ns"] / 1e6 / rounds, "ms")
    out["cli.import_ms"] = (statistics.median(s["import_s"] for s in setups) * 1e3, "ms")
    plain_rate = plain["ops"] / (plain["ns"] / 1e9)
    traced_rate = traced["ops"] / (traced["ns"] / 1e9)
    out["trace.overhead_pct"] = ((plain_rate / traced_rate - 1.0) * 100.0, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        return setup_child(args)
    try:
        minatt = _import_minatt()
    except ImportError as exc:
        print(f"perfbench: cannot import minatt from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](minatt, args.seed, Context(ROOT, workdir))
        workload.warmup()
        tally, times, plain, traced, snapshots, setups, rounds = run_rounds(
            workload, args.seconds, bool(args.trace), workdir,
            lambda i: measure_setup(args, workdir, i))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(plain, traced, snapshots, setups)
        record = {"spans": snapshots}
    else:
        metrics = end_to_end(workload, times, plain, setups)
        record = {"question_ns": times, "setups": setups}
    with open(os.path.join(OUT, f"{'spans' if args.trace else 'samples'}-{args.workload}"
                                f"-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for note in tally.notes:
        print(note)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"attempted {tally.attempted}  failed {tally.failed}  correct {tally.correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for question, ns in times.items():
        print(f"  question {question:30s} median {statistics.median(ns) / 1e6:10.3f} ms"
              f"  over {len(ns)}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
