"""Span tracing of minatt's layers, installed from outside the package.

`Tracer.install` replaces minatt's public functions with timing wrappers in
every minatt module namespace that holds them, so a call from one module to
another (``spectral`` calling ``operators.block_tail``, say) is seen the
same way as a call from the benchmark.  Module-private helpers that another
module imports (``_dense``, ``_positivity`` ...) are wrapped too, because
they cross a layer boundary.  ``DiagSeq.values`` and the ``numpy.linalg``
entry points minatt calls are wrapped as well.

Each span records its parent; a layer's self time is the time of its spans
minus the time of their child spans.  Spans are aggregated in memory by
(parent, name) and written out with `Tracer.dump`.  Wrappers only record
while `Tracer.active` is true, so the benchmark's own checks, which also use
numpy.linalg, are never counted.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("operators", "spectral", "gap", "perturbation", "scenario")
LINALG = ("svd", "eigh", "eigvalsh", "solve", "qr", "norm")
EMIT = ("report_to_json", "report_to_csv")


def _flops(name: str, args, kwargs) -> tuple[int, int]:
    """(largest dimension, m*n*min(m, n)) of one numpy.linalg call.

    Only decompositions are counted: the 2-norm of a matrix is an SVD, a
    vector norm or a Frobenius norm is not.
    """
    arr = args[0] if args else None
    shape = getattr(arr, "shape", ())
    if len(shape) < 2:
        return (max(shape) if shape else 0), 0
    m, n = shape[-2], shape[-1]
    if name == "norm":
        order = args[1] if len(args) > 1 else kwargs.get("ord")
        if order != 2:
            return max(m, n), 0
    return max(m, n), m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[list] = []  # [name, child_ns]
        self.edges: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counts = {"values_calls": 0, "values_entries": 0, "values_ns": 0,
                       "block_max_k": 0, "linalg_max_dim": 0, "linalg_flops": 0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else "<question>"
            frame = [name, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter_ns() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += total
                edge = self.edges.setdefault((parent, name), [0, 0, 0])
                edge[0] += 1
                edge[1] += total
                edge[2] += total - frame[1]
            if after is not None:
                after(args, kwargs, result, total)
            return result
        return wrapper

    def _after_values(self, args, kwargs, result, total):
        self.counts["values_calls"] += 1
        self.counts["values_entries"] += int(args[1] if len(args) > 1 else kwargs["n"])
        self.counts["values_ns"] += total

    def _after_block_tail(self, args, kwargs, result, total):
        self.counts["block_max_k"] = max(self.counts["block_max_k"], result.k)

    def _linalg_after(self, name):
        def after(args, kwargs, result, total):
            dim, flops = _flops(name, args, kwargs)
            self.counts["linalg_max_dim"] = max(self.counts["linalg_max_dim"], dim)
            self.counts["linalg_flops"] += flops
        return after

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap minatt's layer functions and numpy.linalg; minatt must be imported."""
        import numpy

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "minatt" or name.startswith("minatt."))]
        layer_mods = {sys.modules[f"minatt.{layer}"]: layer for layer in LAYERS
                      if f"minatt.{layer}" in sys.modules}
        imported_elsewhere = {id(obj) for ns in namespaces for obj in vars(ns).values()
                              if inspect.isfunction(obj)
                              and obj.__module__ != ns.__name__}
        wrappers = {}
        for mod, layer in layer_mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and id(obj) not in imported_elsewhere:
                    continue
                after = self._after_block_tail if attr == "block_tail" else None
                wrappers[id(obj)] = self._span(f"{layer}.{attr}", obj, after)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(ns, attr, wrappers[id(obj)])

        diag_seq = sys.modules["minatt.operators"].DiagSeq
        self._set(diag_seq, "values",
                  self._span("operators.DiagSeq.values", diag_seq.values, self._after_values))
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            self._set(numpy.linalg, name,
                      self._span(f"linalg.{name}", fn, self._linalg_after(name)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"edges": [[p, n, *v] for (p, n), v in sorted(self.edges.items())],
                "counts": dict(self.counts)}

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def layer_totals(snapshots: list[dict]) -> dict:
    """Sum snapshots into per-layer calls and self time, plus the counters."""
    layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS + ("linalg",)}
    emit_ns = 0
    counts = {"values_calls": 0, "values_entries": 0, "values_ns": 0,
              "block_max_k": 0, "linalg_max_dim": 0, "linalg_flops": 0}
    for snap in snapshots:
        for parent, name, calls, total_ns, self_ns in snap["edges"]:
            layer = name.split(".", 1)[0]
            layers[layer]["calls"] += calls
            layers[layer]["self_ns"] += self_ns
            if name.split(".", 1)[1] in EMIT:
                emit_ns += total_ns
        for key, value in snap["counts"].items():
            if key in ("block_max_k", "linalg_max_dim"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return {"layers": layers, "emit_ns": emit_ns, "counts": counts}
