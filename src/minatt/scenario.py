"""Declarative experiment batches with deterministic reports.

A scenario config is a JSON document naming operators and listing
experiments over them:

* ``perturb``: construct a minimum-attaining perturbation and verify it,
* ``gap``: gap between two named operators, or a randomised soak comparing
  the graph and closed-form routes on sampled matrix pairs,
* ``spectrum``: minimum modulus plus the spectral report,
* ``weyl``: essential spectrum before and after a finite-rank bump.

Reports are reproducible: the same config with the same seed serialises to
identical bytes apart from the ``timing`` section.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .gap import _gap, operator_gap_closed_form, operator_gap_graph
from .operators import (
    DEFAULT_PREFIX,
    MatrixOp,
    OperatorRep,
    RankOneTerm,
    Vec,
    _known_keys,
    operator_from_json,
    scalar_from_json,
    vec_from_json,
)
from .perturbation import (
    attainment_perturbation,
    attainment_perturbation_positive,
    bounded_below_perturbation,
    verify_perturbation,
)
from .spectral import essential_spectrum, minimum_modulus, weyl_check

__all__ = ["ConfigError", "ScenarioConfig", "ExperimentRecord", "Report",
           "load_config", "run_scenario", "report_to_json", "report_to_csv"]


class ConfigError(ValueError):
    """The config document is structurally unusable (exit code 2 territory)."""


DEFAULT_TOLERANCE = 1e-8

_VARIANTS = ("auto", "positive", "general", "bounded_below")
_ROUTES = ("auto", "graph", "closed_form", "diagonal")

# the keys each level of a config may hold: a misspelt key is refused, since it
# would otherwise leave its default in force without a word
_TOP_KEYS = ("operators", "defaults", "experiments")
_DEFAULT_KEYS = ("truncationN", "tolerance")
_EXPERIMENT_KEYS = ("kind", "name", "truncationN", "tolerance", "seed", "expect")
_KIND_KEYS = {"perturb": ("target", "epsilon", "variant"),
              "gap": ("left", "right", "route", "randomPairs", "dims"),
              "spectrum": ("target",),
              "weyl": ("target", "terms")}
_KINDS = tuple(_KIND_KEYS)


@dataclass(frozen=True)
class ScenarioConfig:
    operators: dict[str, OperatorRep]
    experiments: tuple[dict, ...]
    default_truncation: int
    default_tolerance: float


@dataclass(frozen=True)
class ExperimentRecord:
    name: str
    kind: str
    value: float
    passed: bool
    detail: dict
    seconds: float

    def to_json_dict(self) -> dict:
        value = self.value if math.isfinite(self.value) else None
        return {"name": self.name, "kind": self.kind, "value": value,
                "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class Report:
    records: tuple[ExperimentRecord, ...]
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self, *, include_timing: bool = True) -> dict:
        out = {
            "experiments": [r.to_json_dict() for r in self.records],
            "seed": self.seed,
            "summary": {
                "total": len(self.records),
                "passed": sum(r.passed for r in self.records),
                "failed": sum(not r.passed for r in self.records),
            },
        }
        if include_timing:
            out["timing"] = {
                "perExperiment": {r.name: r.seconds for r in self.records},
                "totalSeconds": sum(r.seconds for r in self.records),
            }
        return out


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, ctx: str):
    if key not in obj:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return obj[key]


def _number(value, kind, what: str):
    """``kind(value)`` of a number; a string, a bool or a value that does not convert is a
    ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _integer(value, what: str) -> int:
    """``value`` as an int; integral floats such as JSON 1e4 pass, fractions do not."""
    x = _number(value, int, what)
    if x != value:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return x


def _positive(value, what: str) -> float:
    x = _number(value, float, what)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"{what} must be positive and finite")
    return x


def load_config(doc: dict) -> ScenarioConfig:
    """Validate a parsed JSON document into a scenario config.

    All structural problems (unknown keys and kinds, unresolvable operator
    names, bad generators, values that are not numbers or not in range)
    surface here as :class:`ConfigError`, before anything runs.  The keys
    of the top level, of ``defaults`` and of each experiment kind are
    closed sets; operator documents are read by :func:`operator_from_json`,
    which closes theirs.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _known_keys(doc, _TOP_KEYS, "config", ConfigError)
    raw_ops = doc.get("operators", {})
    if not isinstance(raw_ops, dict):
        raise ConfigError("'operators' must map names to operator documents")
    operators = {}
    for name, obj in raw_ops.items():
        try:
            operators[name] = operator_from_json(obj)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"operator {name!r}: {exc}") from exc
    raw_exps = doc.get("experiments")
    if not isinstance(raw_exps, list) or not raw_exps:
        raise ConfigError("'experiments' must be a nonempty list")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError("'defaults' must be an object")
    _known_keys(defaults, _DEFAULT_KEYS, "defaults", ConfigError)
    truncation = _integer(defaults.get("truncationN", DEFAULT_PREFIX), "defaults.truncationN")
    tolerance = _positive(defaults.get("tolerance", DEFAULT_TOLERANCE), "defaults.tolerance")
    if truncation < 1:
        raise ConfigError("defaults.truncationN must be >= 1")

    seen = set()
    for i, exp in enumerate(raw_exps):
        ctx = f"experiments[{i}]"
        if not isinstance(exp, dict):
            raise ConfigError(f"{ctx}: must be an object")
        kind = _require(exp, "kind", ctx)
        if kind not in _KINDS:
            raise ConfigError(f"{ctx}: unknown kind {kind!r}; expected one of {_KINDS}")
        _known_keys(exp, _EXPERIMENT_KEYS + _KIND_KEYS[kind], ctx, ConfigError)
        name = exp.get("name", f"{kind}-{i}")
        if not isinstance(name, str) or name in seen:
            raise ConfigError(f"{ctx}: experiment name {name!r} is a duplicate or not a string")
        seen.add(name)
        _validate_experiment(exp, kind, ctx, operators)
    return ScenarioConfig(operators, tuple(raw_exps), truncation, tolerance)


def _check_ref(exp: dict, key: str, ctx: str, operators: dict):
    ref = _require(exp, key, ctx)
    if not isinstance(ref, str) or ref not in operators:
        raise ConfigError(f"{ctx}: unknown operator {ref!r}")


def _validate_experiment(exp: dict, kind: str, ctx: str, operators: dict):
    if "truncationN" in exp and _integer(exp["truncationN"], f"{ctx}: truncationN") < 1:
        raise ConfigError(f"{ctx}: truncationN must be >= 1")
    if "tolerance" in exp:
        _positive(exp["tolerance"], f"{ctx}: tolerance")
    if "seed" in exp and _integer(exp["seed"], f"{ctx}: seed") < 0:
        raise ConfigError(f"{ctx}: seed must be >= 0")
    expect = exp.get("expect")
    if expect is not None:
        if not isinstance(expect, dict) or "value" not in expect:
            raise ConfigError(f"{ctx}: 'expect' must be an object with a value")
        _number(expect["value"], float, f"{ctx}: expect.value")
        if "tolerance" in expect:
            _positive(expect["tolerance"], f"{ctx}: expect.tolerance")
    if kind == "perturb":
        _check_ref(exp, "target", ctx, operators)
        _positive(_require(exp, "epsilon", ctx), f"{ctx}: epsilon")
        if exp.get("variant", "auto") not in _VARIANTS:
            raise ConfigError(f"{ctx}: unknown variant {exp.get('variant')!r}")
    elif kind == "gap":
        if "randomPairs" in exp:
            if _integer(exp["randomPairs"], f"{ctx}: randomPairs") < 1:
                raise ConfigError(f"{ctx}: randomPairs must be >= 1")
            dims = exp.get("dims", [1, 8])
            if not (isinstance(dims, list) and len(dims) == 2
                    and 1 <= _integer(dims[0], f"{ctx}: dims")
                    <= _integer(dims[1], f"{ctx}: dims")):
                raise ConfigError(f"{ctx}: dims must be [lo, hi] with 1 <= lo <= hi")
        else:
            _check_ref(exp, "left", ctx, operators)
            _check_ref(exp, "right", ctx, operators)
            if exp.get("route", "auto") not in _ROUTES:
                raise ConfigError(f"{ctx}: unknown route {exp.get('route')!r}")
    elif kind == "spectrum":
        _check_ref(exp, "target", ctx, operators)
    elif kind == "weyl":
        _check_ref(exp, "target", ctx, operators)
        terms = _require(exp, "terms", ctx)
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{ctx}: terms must be a nonempty list")
        for t in terms:
            if not isinstance(t, dict) or "coeff" not in t:
                raise ConfigError(f"{ctx}: each term needs a coeff")
            if "index" not in t and not ("left" in t and "right" in t):
                raise ConfigError(f"{ctx}: each term needs an index or left/right vectors")
        try:
            _parse_terms(terms)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{ctx}: terms: {exc}") from exc


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _parse_terms(terms: list) -> list[RankOneTerm]:
    out = []
    for t in terms:
        coeff = scalar_from_json(t["coeff"])
        if "index" in t:
            v = Vec.basis(t["index"])
            out.append(RankOneTerm(coeff, v, v))
        else:
            out.append(RankOneTerm(coeff, vec_from_json(t["left"]),
                                   vec_from_json(t["right"])))
    return out


def _run_perturb(exp: dict, config: ScenarioConfig, prefix: int) -> tuple[float, bool, dict]:
    target = config.operators[exp["target"]]
    eps = float(exp["epsilon"])
    variant = exp.get("variant", "auto")
    build = {"auto": attainment_perturbation,
             "general": attainment_perturbation,
             "positive": attainment_perturbation_positive,
             "bounded_below": bounded_below_perturbation}[variant]
    result = build(target, eps, prefix=prefix)
    verification = verify_perturbation(target, result, prefix=prefix)
    detail = {"result": result.to_json_dict(),
              "verification": verification.to_json_dict()}
    return verification.attainment.value, verification.passed, detail


def _run_gap_pair(exp: dict, config: ScenarioConfig, prefix: int,
                  tolerance: float) -> tuple[float, bool, dict]:
    left = config.operators[exp["left"]]
    right = config.operators[exp["right"]]
    route = exp.get("route", "auto")
    if route == "auto" and not (left.is_l2 or right.is_l2):
        graph = operator_gap_graph(left, right)
        closed = operator_gap_closed_form(left, right)
        deviation = abs(graph.value - closed.value)
        detail = {"graph": graph.to_json_dict(), "closedForm": closed.to_json_dict(),
                  "routeDeviation": deviation}
        return graph.value, deviation <= tolerance, detail
    res = _gap(left, right, route, prefix)
    return res.value, True, {res.route: res.to_json_dict()}


def _run_gap_soak(exp: dict, seed: int, tolerance: float) -> tuple[float, bool, dict]:
    pairs = int(exp["randomPairs"])
    lo, hi = (int(d) for d in exp.get("dims", [1, 8]))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        m = int(rng.integers(lo, hi + 1))
        n = int(rng.integers(lo, hi + 1))
        a = MatrixOp((rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
                     / np.sqrt(2.0))
        b = MatrixOp((rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
                     / np.sqrt(2.0))
        dev = abs(operator_gap_graph(a, b).value - operator_gap_closed_form(a, b).value)
        worst = max(worst, dev)
    detail = {"pairs": pairs, "dims": [lo, hi], "worstDeviation": worst,
              "tolerance": tolerance, "seed": seed}
    return worst, worst <= tolerance, detail


def _run_spectrum(exp: dict, config: ScenarioConfig, prefix: int) -> tuple[float, bool, dict]:
    target = config.operators[exp["target"]]
    cert = minimum_modulus(target, prefix=prefix)
    detail = {"minimumModulus": cert.to_json_dict()}
    passed = (not cert.attained) or (cert.residual is not None and cert.residual <= 1e-8)
    try:
        spec = essential_spectrum(target, prefix=prefix)
        detail["spectrum"] = spec.to_json_dict()
    except ValueError as exc:
        detail["spectrum"] = {"skipped": str(exc)}
    return cert.value, passed, detail


def _run_weyl(exp: dict, config: ScenarioConfig, prefix: int) -> tuple[float, bool, dict]:
    target = config.operators[exp["target"]]
    report = weyl_check(target, _parse_terms(exp["terms"]), prefix=prefix)
    passed = report.agree and report.detected_match
    return float(passed), passed, {"weyl": report.to_json_dict()}


def run_scenario(config: ScenarioConfig, *, truncation: int | None = None,
                 seed: int | None = None) -> Report:
    """Run every experiment; failures are recorded, not raised.

    ``truncation`` overrides the config default for experiments without
    their own ``truncationN``; ``seed`` feeds randomised gap soaks.
    """
    base_prefix = truncation if truncation is not None else config.default_truncation
    base_seed = seed if seed is not None else 0
    records = []
    for i, exp in enumerate(config.experiments):
        kind = exp["kind"]
        name = exp.get("name", f"{kind}-{i}")
        prefix = int(exp.get("truncationN", base_prefix))
        tolerance = float(exp.get("tolerance", config.default_tolerance))
        start = time.perf_counter()
        try:
            if kind == "perturb":
                value, passed, detail = _run_perturb(exp, config, prefix)
            elif kind == "gap" and "randomPairs" in exp:
                value, passed, detail = _run_gap_soak(
                    exp, int(exp.get("seed", base_seed)), tolerance)
            elif kind == "gap":
                value, passed, detail = _run_gap_pair(exp, config, prefix, tolerance)
            elif kind == "spectrum":
                value, passed, detail = _run_spectrum(exp, config, prefix)
            else:
                value, passed, detail = _run_weyl(exp, config, prefix)
            # an expectation applies to whatever value the kind reports
            expect = exp.get("expect")
            if expect is not None:
                want = float(expect["value"])
                tol = float(expect.get("tolerance", tolerance))
                detail["expected"] = want
                passed = passed and abs(value - want) <= tol
        except Exception as exc:  # a failing experiment must not kill the batch
            value, passed, detail = float("nan"), False, {"error": f"{type(exc).__name__}: {exc}"}
        records.append(ExperimentRecord(name, kind, value, passed, detail,
                                        time.perf_counter() - start))
    return Report(tuple(records), base_seed)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def report_to_json(report: Report, *, include_timing: bool = True) -> str:
    return json.dumps(report.to_json_dict(include_timing=include_timing),
                      sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_to_csv(report: Report) -> str:
    # the value column carries full repr precision so it agrees with the
    # JSON emission digit for digit; seconds is the only nondeterministic column
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "kind", "value", "pass", "seconds"])
    for r in report.records:
        writer.writerow([r.name, r.kind, repr(r.value), str(r.passed).lower(),
                         f"{r.seconds:.6f}"])
    return out.getvalue()
