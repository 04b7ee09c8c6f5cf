"""The four workloads: their inputs, their questions and the checks of each answer.

An operation is one question answered with its certificate.  A workload
builds its inputs from the seed once; `round` returns the same questions in
the same order every time, so every run attempts whole rounds of identical
work.  Seeds move values, never sizes: witness indices, prefix lengths and
matrix dimensions are fixed, so the traced counts repeat exactly.

Each check compares an answer with `oracle`, which is computed from the
generators' formulas and numpy alone, and raises `Wrong` when they differ.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from oracle import Diag

TOL = 1e-9          # values computed two ways in double precision
ROUTE_TOL = 1e-8    # gap routes and principal-angle oracle
CLI_TIMEOUT = 120.0


class Wrong(Exception):
    """An answer that disagrees with the reference computation."""


def expect(cond, message: str):
    if not cond:
        raise Wrong(message)


def close(a, b, tol=TOL, what="value"):
    expect(abs(a - b) <= tol * max(1.0, abs(b)), f"{what} {a!r} != {b!r}")


@dataclass
class Op:
    question: str
    ask: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False  # fails today because of a named fault in minatt


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Context:
    root: str      # checkout root, holding src/ and perfbench/
    workdir: str   # scratch directory of this run, inside the checkout


class LibraryWorkload:
    """A workload that calls minatt in this process."""

    in_process = True

    def __init__(self, M, seed: int, ctx: Context, small: bool = False):
        self.M, self.seed, self.ctx = M, seed, ctx

    def warmup(self):
        """Ask every question once on a small instance: first calls into numpy's
        LAPACK and BLAS, and minatt's generator registry, happen here."""
        for op in type(self)(self.M, self.seed, self.ctx, small=True).round(0):
            op.ask()

    def peak_rss_mb(self) -> float:
        return _rss_mb()


def _check_gap(res, expected: float, what: str):
    """A certified diagonal gap against the oracle's supremum, which is exact here.

    The tolerance is fixed: minatt's own tail bound grows with an error in
    the limit pair, so it cannot serve to catch one.
    """
    expect(math.isfinite(res.tail_bound), f"{what}: tail bound not certified")
    close(res.value, expected, what=f"{what}: gap")


def _check_perturbation(t: Diag, n: int, answer, case: str, j: int, value: float,
                        eps: float, rank_one: bool = False):
    result, verification = answer
    expect(result.case.value == case, f"case {result.case.value} != {case}")
    w = result.witness
    expect(w.attained and w.witness_index == j,
           f"witness index {w.witness_index} != {j} (attained {w.attained})")
    close(w.value, value, what="m(T+S)")
    facts = oracle.l2_perturbation_facts(t, result.perturbation, n)
    expect(facts["norm"] <= eps + 1e-12, f"||S|| = {facts['norm']!r} > eps = {eps!r}")
    expect(facts["gap"] <= eps + 1e-12, f"gap(T+S, T) = {facts['gap']!r} > eps = {eps!r}")
    expect(facts["gap"] <= result.gap_bound + 1e-12,
           f"certified gap bound {result.gap_bound!r} below gap {facts['gap']!r}")
    expect(facts["attained"], "T+S does not attain its minimum")
    close(facts["m"], value, what="independent m(T+S)")
    if rank_one:
        expect(facts["rank"] == 1, f"S has rank {facts['rank']}, not one")
    expect(verification.passed, f"verify_perturbation failed: {verification}")


# ---------------------------------------------------------------------------
# eps-sweep: construct + verify while the witness index grows like 1/eps
# ---------------------------------------------------------------------------


class EpsSweep(LibraryWorkload):
    """Case 1 at eps ~ 1e-2 .. 3e-3, Case 3 at eps ~ 2e-2, bounded below at eps ~ 5e-3.

    eps is drawn in the window that keeps the witness index j fixed, so the
    dense canonical block has the same size on every seed.
    """

    N = 10_000
    CASE1 = (201, 286, 401, 667)   # eps = 2 alpha / (j - u)
    CASE3 = (401,)                 # eps = 8 alpha / (j - u)
    BOUNDED_BELOW = (401,)         # eps = 2 alpha / (j - u)

    def __init__(self, M, seed: int, ctx: Context, small: bool = False):
        super().__init__(M, seed, ctx)
        rng = np.random.default_rng(seed)
        if small:
            self.N, self.CASE1, self.CASE3, self.BOUNDED_BELOW = 1000, (21,), (41,), (21,)
        self.ops = []
        t = M.named_diagonal("one_plus_inv_n")
        v = M.named_diagonal("inv_n")
        for j in self.CASE1:
            alpha, beta, u = rng.uniform(0.8, 1.25), rng.uniform(0.0, 0.5), rng.uniform(0.2, 0.8)
            eps = 2 * alpha / (j - u)
            ref = Diag("one_plus_inv_n", alpha, beta)
            value = alpha * (1 + 1 / j) + beta - eps
            self._add(f"case1-j{j}", M.scale_shift(t, alpha, beta), eps,
                      M.attainment_perturbation, ref, "Case1", j, value)
        for j in self.CASE3:
            alpha, u = rng.uniform(0.8, 1.25), rng.uniform(0.2, 0.8)
            eps = 8 * alpha / (j - u)
            ref = Diag("inv_n", alpha, 0.0)
            self._add(f"case3-j{j}", M.scale_shift(v, alpha, 0.0), eps,
                      M.attainment_perturbation, ref, "Case3", j, alpha / j + eps / 4)
        for j in self.BOUNDED_BELOW:
            alpha, beta, u = rng.uniform(0.8, 1.25), rng.uniform(0.0, 0.5), rng.uniform(0.2, 0.8)
            phase = np.exp(1j * rng.uniform(0.25 * np.pi, 1.75 * np.pi))
            eps = 2 * alpha / (j - u)
            ref = Diag("one_plus_inv_n", phase * alpha, phase * beta)
            value = alpha * (1 + 1 / j) + beta - eps
            self._add(f"bounded-below-j{j}", M.scale_shift(t, phase * alpha, phase * beta), eps,
                      M.bounded_below_perturbation, ref, "BoundedBelowRankOne", j, value,
                      rank_one=True)

    def _add(self, question, op, eps, build, ref, case, j, value, rank_one=False):
        M, n = self.M, self.N

        def ask():
            result = build(op, eps, prefix=n)
            return result, M.verify_perturbation(op, result, prefix=n)

        def check(answer):
            _check_perturbation(ref, n, answer, case, j, value, eps, rank_one)

        self.ops.append(Op(question, ask, check))

    def round(self, r: int, trace_dir: str | None = None) -> list[Op]:
        return self.ops


# ---------------------------------------------------------------------------
# long-prefix: l2 questions at N = 1e6 with small dense blocks
# ---------------------------------------------------------------------------


class LongPrefix(LibraryWorkload):
    """Registry operators reused every round, and operators derived afresh each round.

    The derived half includes the sum of two sequences of one generator,
    which minatt evaluates entry by entry.  Bumps sit on e_5 (registry) and
    e_10 (derived), so the dense blocks have size 5 and 10 on every seed.
    """

    N = 1_000_000
    BUMP = 5
    DERIVED_BUMP = 10
    WITNESS = 21  # Case 1 witness at eps = 0.1 on diag(1 + 1/n)

    def __init__(self, M, seed: int, ctx: Context, small: bool = False):
        super().__init__(M, seed, ctx)
        if small:
            self.N = 10_000
        self.rng = np.random.default_rng(seed)
        self.t = M.named_diagonal("one_plus_inv_n")
        self.v = M.named_diagonal("inv_n")
        self.lin = M.named_diagonal("linear_n")
        self.c = -self.rng.uniform(0.3, 0.9)        # registry bump on e_5
        self.c_lin = self.rng.uniform(0.5, 2.0)     # bump on the unbounded diagonal
        self.registry_ops = self._registry()

    def _bumped(self, op, index, c):
        M = self.M
        return M.add_rank_one(op, M.RankOneTerm(c, M.Vec.basis(index), M.Vec.basis(index)))

    def _registry(self) -> list[Op]:
        M, n, b, c = self.M, self.N, self.BUMP, self.c
        ref = Diag("one_plus_inv_n")
        bumped_value = 1 + 1 / b + c
        tb = self._bumped(self.t, b, c)
        lb = self._bumped(self.lin, b, self.c_lin)
        ops = []

        def check_mm(cert):
            m, where, attained = oracle.minimum_modulus_diag(ref, n, {b: bumped_value})
            close(cert.value, m, what="m(T)")
            expect(cert.attained == attained and cert.witness_index == where,
                   f"attainment {cert.attained}/{cert.witness_index} != {attained}/{where}")
        ops.append(Op("mm-bump", lambda: M.minimum_modulus(tb, prefix=n), check_mm))
        ops.append(Op("ess-bump", lambda: M.essential_spectrum(tb, prefix=n),
                      lambda rep: _check_spectrum(rep, ref, n, {b: bumped_value})))
        ops.append(Op("weyl-bump", lambda: M.weyl_check(self.t, [tb.terms[0]], prefix=n),
                      lambda rep: _check_weyl(rep, ref.limit, n)))
        ops.append(Op("gap-diag-bounded",
                      lambda: M.operator_gap_diagonal(self.t, self.v, prefix=n),
                      lambda res: _check_gap(res, oracle.diagonal_gap(ref, Diag("inv_n"), n),
                                             "diag(1+1/n) vs diag(1/n)")))
        lin = Diag("linear_n")
        lin_gap = functools.cache(lambda: oracle.diagonal_gap(lin, lin, n, {b: b + self.c_lin}))
        ops.append(Op("gap-diag-unbounded",
                      lambda: M.operator_gap_diagonal(lb, self.lin, prefix=n),
                      lambda res: _check_gap(res, lin_gap(), "bumped diag(n) vs diag(n)")))
        bump_gap = functools.cache(lambda: oracle.diagonal_gap(ref, ref, n, {b: bumped_value}))
        ops.append(Op("gap-closed-form",
                      lambda: M.operator_gap_closed_form(tb, self.t, prefix=n),
                      lambda res: _check_gap(res, bump_gap(), "closed form")))
        ops.append(Op("gap-upper-bound",
                      lambda: M.gap_upper_bound_check(tb, self.t, prefix=n),
                      lambda rep: _check_upper_bound(rep, abs(c), bump_gap())))
        eps, j = 0.1, self.WITNESS

        def perturb():
            result = M.attainment_perturbation(self.t, eps, prefix=n)
            return result, M.verify_perturbation(self.t, result, prefix=n)
        ops.append(Op("perturb-eps0.1", perturb,
                      lambda ans: _check_perturbation(ref, n, ans, "Case1", j,
                                                      1 + 1 / j - eps, eps)))
        ops.append(self._misdeclared())
        return ops

    def _misdeclared(self) -> Op:
        """one_plus_inv_n declared to converge to 0.5; its entries tend to 1.

        Correct when the declaration is rejected, or when every certified
        number agrees with the generator: m = 1 not attained, and a gap of 0
        to the correctly declared operator.  Inputs do not depend on the seed.
        """
        M, n = self.M, self.N
        doc = {"variant": "diagonal", "generator": "one_plus_inv_n",
               "tail": {"kind": "converges_to", "limit": 0.5}}

        def ask():
            try:
                op = M.operator_from_json(doc)
            except Exception:  # any refusal at load time is the right answer
                return None
            if not M.operators.check_tail_consistency(op.seq, n):
                return None
            return (M.minimum_modulus(op, prefix=n),
                    M.operator_gap_diagonal(op, self.t, prefix=n))

        def check(answer):
            if answer is None:
                return
            cert, gap = answer
            close(cert.value, 1.0, what="m of diag(1+1/n) declared to tend to 0.5")
            expect(not cert.attained, "m of diag(1+1/n) reported attained")
            if math.isfinite(gap.tail_bound):
                _check_gap(gap, 0.0, "pointwise identical operators")

        return Op("misdeclared-limit", ask, check, known_fault=True)

    def _derived(self) -> list[Op]:
        M, n, rng, b = self.M, self.N, self.rng, self.DERIVED_BUMP
        # alpha = 1 for d: the spacing of its entries decides how many clusters
        # essential_spectrum walks, so a seeded scale would change the work
        alpha, beta = 1.0, rng.uniform(0.0, 1.0)
        a, bb = rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0)
        alpha_lin, beta_lin = rng.uniform(1.1, 2.0), rng.uniform(0.0, 1.0)
        c_sum = -rng.uniform(0.15, 0.5) * (1 + a)
        c_d = -rng.uniform(0.15, 0.5)
        u = rng.uniform(0.2, 0.8)
        j = self.WITNESS
        eps = 2 * alpha / (j - u)

        d = M.scale_shift(self.t, alpha, beta)
        s = M.add_operators(self.t, M.scale_shift(self.t, a, bb))  # (1 + a) t + bb
        dl = M.scale_shift(self.lin, alpha_lin, beta_lin)
        sb, db = self._bumped(s, b, c_sum), self._bumped(d, b, c_d)
        ref_d = Diag("one_plus_inv_n", alpha, beta)
        ref_s = Diag("one_plus_inv_n", 1 + a, bb)
        d_bumped = alpha * (1 + 1 / b) + beta + c_d
        s_bumped = (1 + a) * (1 + 1 / b) + bb + c_sum
        ops = []

        def check_mm(cert):
            m, where, attained = oracle.minimum_modulus_diag(ref_s, n, {b: s_bumped})
            close(cert.value, m, what="m(T)")
            expect(cert.attained == attained and cert.witness_index == where,
                   f"attainment {cert.attained}/{cert.witness_index} != {attained}/{where}")
        ops.append(Op("derived-mm-sum", lambda: M.minimum_modulus(sb, prefix=n), check_mm))
        ops.append(Op("derived-ess", lambda: M.essential_spectrum(db, prefix=n),
                      lambda rep: _check_spectrum(rep, ref_d, n, {b: d_bumped})))
        ops.append(Op("derived-gap-diag-sum", lambda: M.operator_gap_diagonal(d, s, prefix=n),
                      lambda res: _check_gap(res, oracle.diagonal_gap(ref_d, ref_s, n),
                                             "derived vs sum")))
        lin_gap = oracle.diagonal_gap(Diag("linear_n", alpha_lin, beta_lin), Diag("linear_n"), n)
        ops.append(Op("derived-gap-diag-unbounded",
                      lambda: M.operator_gap_diagonal(dl, self.lin, prefix=n),
                      lambda res: _check_gap(res, lin_gap, "alpha n + beta vs n")))
        bump_gap = oracle.diagonal_gap(ref_d, ref_d, n, {b: d_bumped})
        ops.append(Op("derived-gap-closed-form",
                      lambda: M.operator_gap_closed_form(db, d, prefix=n),
                      lambda res: _check_gap(res, bump_gap, "derived closed form")))

        def perturb():
            result = M.attainment_perturbation(d, eps, prefix=n)
            return result, M.verify_perturbation(d, result, prefix=n)
        ops.append(Op("derived-perturb", perturb,
                      lambda ans: _check_perturbation(ref_d, n, ans, "Case1", j,
                                                      alpha * (1 + 1 / j) + beta - eps, eps)))
        return ops

    def round(self, r: int, trace_dir: str | None = None) -> list[Op]:
        return self.registry_ops + self._derived()


def _check_spectrum(rep, ref: Diag, n: int, changes: dict):
    expect(len(rep.essential) == 1 and abs(rep.essential[0] - ref.limit) <= TOL,
           f"essential spectrum {rep.essential} != ({ref.limit},)")
    expect(not rep.essential_unbounded and rep.truncation == n, "bad spectrum header")
    want = oracle.discrete_eigenvalues(ref, n, changes)
    got = np.array([v for v, _ in rep.discrete])
    expect(all(m == 1 for _, m in rep.discrete), "unexpected multiplicity")
    expect(got.size == want.size and np.allclose(np.sort(got), want, rtol=0, atol=TOL),
           f"{got.size} discrete eigenvalues, expected {want.size}")


def _check_weyl(rep, limit: float, n: int):
    expect(rep.agree and rep.detected_match, f"weyl check failed: {rep}")
    for ess in (rep.essential_before, rep.essential_after):
        expect(len(ess) == 1 and abs(ess[0] - limit) <= TOL, f"essential {ess} != ({limit},)")
    for det in (rep.detected_before, rep.detected_after):
        expect(any(abs(p - limit) <= 1e-3 for p in det), f"detected {det} misses {limit}")
    expect(rep.truncation == n, "bad truncation")


def _check_upper_bound(rep, diff_norm: float, gap: float):
    close(rep.diff_norm.value, diff_norm, what="||S - T||")
    _check_gap(rep.gap, gap, "gap in bound check")
    expect(rep.holds and rep.margin >= -1e-12, f"theta <= ||S - T|| fails: {rep.margin!r}")


# ---------------------------------------------------------------------------
# dense-gap: seeded complex matrices at n = 8, 64, 256
# ---------------------------------------------------------------------------


class DenseGap(LibraryWorkload):
    DIMS = (8, 64, 256)
    EPS = 0.05

    def __init__(self, M, seed: int, ctx: Context, small: bool = False):
        super().__init__(M, seed, ctx)
        rng = np.random.default_rng(seed)
        dims = (8,) if small else self.DIMS
        self.ops = []
        for n in dims:
            self.ops += self._questions(rng, n)

    def _questions(self, rng, n: int) -> list[Op]:
        M, eps = self.M, self.EPS

        def gauss(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

        a = gauss(n, n)
        b = a + 0.3 * gauss(n, n)
        p = max(1, n // 4)
        q1 = np.linalg.qr(gauss(n, p))[0]
        q2 = np.linalg.qr(q1 + 0.5 * gauss(n, p) / np.sqrt(n))[0]
        ta, tb = M.MatrixOp(a), M.MatrixOp(b)
        gap = functools.cache(lambda: oracle.matrix_gap(a, b))
        sub = functools.cache(lambda: oracle.subspace_sine(q1, q2))
        last = {}

        def check_graph(res):
            close(res.value, gap(), ROUTE_TOL, "graph route")
            last["graph"] = res.value

        def check_closed(res):
            close(res.value, gap(), ROUTE_TOL, "closed form")
            if "graph" in last:
                expect(abs(res.value - last["graph"]) <= ROUTE_TOL,
                       f"routes differ: {res.value!r} vs {last['graph']!r}")

        def check_mm(cert):
            close(cert.value, oracle.smallest_singular(a), what="smallest singular value")
            w = oracle.dense_vec(cert.witness, n)
            close(float(np.linalg.norm(w)), 1.0, what="|w|")
            close(float(np.linalg.norm(a @ w)), cert.value, what="|Tw|")

        def check_polar(parts):
            v, mod = parts.isometry.array, parts.modulus.array
            scale = float(np.linalg.norm(a, 2))
            expect(np.linalg.norm(v @ mod - a, 2) <= 1e-9 * scale, "V|T| != T")
            expect(np.linalg.norm(mod - mod.conj().T, 2) <= 1e-9 * scale, "|T| not Hermitian")
            expect(np.linalg.norm(mod @ mod - a.conj().T @ a, 2) <= 1e-9 * scale ** 2,
                   "|T|^2 != T*T")

        def perturb():
            result = M.attainment_perturbation(ta, eps)
            return result, M.verify_perturbation(ta, result)

        def check_perturb(answer):
            result, verification = answer
            s = _dense_matrix(result.perturbation, n)
            expect(np.linalg.norm(s, 2) <= eps + 1e-12, "||S|| > eps")
            theta = oracle.matrix_gap(a + s, a)
            expect(theta <= eps + 1e-12, f"gap(T+S, T) = {theta!r} > eps")
            expect(theta <= result.gap_bound + ROUTE_TOL, "certified gap below the gap")
            close(result.witness.value, oracle.smallest_singular(a + s), what="m(T+S)")
            expect(verification.passed, f"verify_perturbation failed: {verification}")

        return [
            Op(f"gap-graph-n{n}", lambda: M.operator_gap_graph(ta, tb), check_graph),
            Op(f"gap-closed-form-n{n}", lambda: M.operator_gap_closed_form(ta, tb), check_closed),
            Op(f"subspace-gap-n{n}", lambda: M.subspace_gap(q1, q2),
               lambda res: close(res.value, sub(), ROUTE_TOL, "subspace gap")),
            Op(f"minimum-modulus-n{n}", lambda: M.minimum_modulus(ta), check_mm),
            Op(f"polar-n{n}", lambda: M.polar(ta), check_polar),
            Op(f"perturb-n{n}", perturb, check_perturb),
        ]

    def round(self, r: int, trace_dir: str | None = None) -> list[Op]:
        return self.ops


def _dense_matrix(op, n: int) -> np.ndarray:
    """A matrix perturbation (plain, or matrix base + shift + rank-one terms) as an array."""
    if hasattr(op, "array"):
        return np.array(op.array)
    return (np.array(op.base.array) + op.shift * np.eye(n)
            + oracle.terms_matrix(op.terms, list(range(1, n + 1))))


# ---------------------------------------------------------------------------
# scenario-cli: `minatt run` in a child process, one at a time
# ---------------------------------------------------------------------------


def run_child(argv: list[str], env: dict, timeout: float = CLI_TIMEOUT) -> tuple[int, str, str, float]:
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        err_chunks = []
        reader = threading.Thread(target=lambda: err_chunks.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return proc.returncode, out.decode(), b"".join(err_chunks).decode(), usage.ru_maxrss / 1024.0


class ScenarioCli:
    """One benchmark-owned config run as JSON and as CSV, plus the comma-name fault."""

    in_process = False

    TRUNCATION = 10_000

    def __init__(self, M, seed: int, ctx: Context, small: bool = False):
        self.M, self.seed, self.root = M, seed, ctx.root
        workdir = ctx.workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
        self.peak = 0.0
        self.reference: dict[str, str] = {}
        rng = np.random.default_rng(seed)
        self.eps_drop = 2 / (5 - rng.uniform(0.2, 0.8))      # Case 1 witness e_5
        self.eps_vanish = 8 / (17 - rng.uniform(0.2, 0.8))   # Case 3 witness e_17
        self.shift = rng.uniform(0.15, 0.35)
        self.corner = rng.uniform(0.5, 1.5)
        self.bump = -rng.uniform(0.2, 0.6)
        self.config = os.path.join(workdir, "scenario.json")
        self.comma_config = os.path.join(workdir, "comma.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self._config(), fh, indent=1)
        with open(self.comma_config, "w", encoding="utf-8") as fh:
            json.dump({"operators": {"drop": {"variant": "diagonal", "generator": "one_plus_inv_n"}},
                       "defaults": {"truncationN": 1000},
                       "experiments": [{"kind": "spectrum", "name": "a,b", "target": "drop"}]}, fh)

    def _config(self) -> dict:
        return {
            "operators": {
                "drop": {"variant": "diagonal", "generator": "one_plus_inv_n"},
                "vanish": {"variant": "diagonal", "generator": "inv_n"},
                "corner": {"variant": "matrix", "data": [[1.0, self.corner], [0.0, 1.0]]},
                "zero2": {"variant": "matrix", "data": [[0.0, 0.0], [0.0, 0.0]]},
                "capped": {"variant": "sum",
                           "base": {"variant": "diagonal", "generator": "inv_n"},
                           "shift": self.shift,
                           "terms": [{"coeff": -self.shift / 2, "left": {"basis": 17},
                                      "right": {"basis": 17}}]},
            },
            "defaults": {"truncationN": self.TRUNCATION, "tolerance": 1e-8},
            "experiments": [
                {"kind": "perturb", "name": "bounded-below", "target": "drop",
                 "epsilon": self.eps_drop},
                {"kind": "perturb", "name": "vanishing", "target": "vanish",
                 "epsilon": self.eps_vanish},
                {"kind": "perturb", "name": "rank-one-kept", "target": "drop",
                 "epsilon": self.eps_drop, "variant": "bounded_below"},
                {"kind": "gap", "name": "shifted-cap-distance", "left": "capped",
                 "right": "vanish", "route": "diagonal"},
                {"kind": "gap", "name": "matrix-pair", "left": "zero2", "right": "corner"},
                {"kind": "gap", "name": "route-soak", "randomPairs": 100, "dims": [6, 6]},
                {"kind": "spectrum", "name": "drop-spectrum", "target": "drop"},
                {"kind": "weyl", "name": "bump-invariance", "target": "drop",
                 "terms": [{"coeff": self.bump, "index": 5}]},
            ],
        }

    @functools.cached_property
    def expected(self) -> dict:
        """Each experiment's value from the formulas, with its tolerance."""
        n, s = self.TRUNCATION, self.shift
        vanish = Diag("inv_n")
        capped = Diag("inv_n", 1.0, s)
        return {
            "bounded-below": (1 + 1 / 5 - self.eps_drop, TOL),
            "vanishing": (1 / 17 + self.eps_vanish / 4, TOL),
            "rank-one-kept": (1 + 1 / 5 - self.eps_drop, TOL),
            "shifted-cap-distance": (oracle.diagonal_gap(capped, vanish, n,
                                                         {17: 1 / 17 + s / 2}), TOL),
            "matrix-pair": (oracle.matrix_gap(np.zeros((2, 2)),
                                              np.array([[1.0, self.corner], [0.0, 1.0]])),
                            ROUTE_TOL),
            "route-soak": (0.0, 1e-8),
            "drop-spectrum": (1.0, TOL),
            "bump-invariance": (1.0, 0.0),
        }

    def _argv(self, config: str, fmt: str, traced: bool, trace_out: str | None) -> list[str]:
        tail = ["run", config, "--format", fmt, "--seed", str(self.seed)]
        if traced:
            return [sys.executable, os.path.join(self.root, "perfbench", "traced_cli.py"),
                    trace_out] + tail
        return [sys.executable, "-m", "minatt.cli"] + tail

    def invoke(self, config: str, fmt: str, traced: bool = False, trace_out: str | None = None):
        code, out, err, rss = run_child(self._argv(config, fmt, traced, trace_out), self.env)
        self.peak = max(self.peak, rss)
        return code, out, err

    def warmup(self):
        run_child([sys.executable, "-m", "minatt.cli", "list-generators"], self.env)

    def _same_as_first(self, key: str, stable: str):
        first = self.reference.setdefault(key, stable)
        expect(stable == first, f"{key} report differs between invocations")

    def _check_json(self, answer):
        code, out, err = answer
        expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        doc = json.loads(out)
        expect(doc["summary"]["failed"] == 0, f"failed experiments: {doc['summary']}")
        for rec in doc["experiments"]:
            expect(rec["passed"], f"experiment {rec['name']} did not pass")
            want, tol = self.expected[rec["name"]]
            close(rec["value"], want, tol, rec["name"])
        cap = {r["name"]: r for r in doc["experiments"]}["shifted-cap-distance"]
        expect(cap["detail"]["diagonal"]["tailBound"] is not None,
               "shifted-cap-distance: tail bound not certified")
        del doc["timing"]
        self._same_as_first("json", json.dumps(doc, sort_keys=True))

    def _check_csv(self, answer):
        code, out, err = answer
        expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows[0] == ["name", "kind", "value", "pass", "seconds"], f"header {rows[0]}")
        for row in rows[1:]:
            expect(len(row) == 5, f"row has {len(row)} fields, not 5: {row}")
            want, tol = self.expected.get(row[0], (None, None))
            expect(row[3] == "true", f"experiment {row[0]} did not pass")
            if want is not None:
                close(float(row[2]), want, tol, row[0])
        expect([r[0] for r in rows[1:]] == list(self.expected), "experiment names differ")
        stable = "\n".join(line.rsplit(",", 1)[0] for line in out.splitlines())
        self._same_as_first("csv", stable)

    def _check_comma(self, answer):
        code, out, err = answer
        expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        rows = list(csv.reader(io.StringIO(out)))
        expect(len(rows) == 2 and all(len(r) == 5 for r in rows),
               f"CSV rows with {[len(r) for r in rows]} fields, not 5")
        expect(rows[1][0] == "a,b" and rows[1][3] == "true", f"bad row {rows[1]}")

    def round(self, r: int, trace_dir: str | None = None) -> list[Op]:
        """trace_dir set: run the traced CLI, which writes its spans there."""
        traced = trace_dir is not None

        def out(name):
            return os.path.join(trace_dir, f"{name}-{r}.json") if traced else None
        return [
            Op("run-json", lambda: self.invoke(self.config, "json", traced, out("json")),
               self._check_json),
            Op("run-csv", lambda: self.invoke(self.config, "csv", traced, out("csv")),
               self._check_csv),
            Op("comma-name-csv",
               lambda: self.invoke(self.comma_config, "csv", traced, out("comma")),
               self._check_comma, known_fault=True),
        ]

    def peak_rss_mb(self) -> float:
        return self.peak


WORKLOADS = {
    "eps-sweep": EpsSweep,
    "long-prefix": LongPrefix,
    "dense-gap": DenseGap,
    "scenario-cli": ScenarioCli,
}
