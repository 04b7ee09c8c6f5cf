"""End-to-end acceptance checks: pinned values, pinned tolerances, time budgets.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to see
them on success) and covers one externally agreed behaviour of the package:
the perturbation constructions on the two canonical diagonals, the
equivalence of the gap routes, the gap-versus-norm bound, the polar and
minimum-modulus identities, stability of the essential spectrum under
finite-rank bumps, and the negative controls.
"""

import math
import time

import numpy as np

from minatt.operators import (
    DeclaredAccumulation,
    DiagonalOp,
    MatrixOp,
    RankOneTerm,
    SumOp,
    Vec,
    add_operators,
    diagonal_seq,
    named_diagonal,
)
from minatt.gap import (
    gap_upper_bound_check,
    operator_gap_closed_form,
    operator_gap_diagonal,
    operator_gap_graph,
)
from minatt.perturbation import (
    attainment_perturbation_positive,
    verify_perturbation,
)
from minatt.spectral import minimum_modulus, modulus, polar, weyl_check

import dataclasses


def _expect(failures, cond, msg):
    if not cond:
        failures.append(msg)


def _finish(num, label, failures, t0, limit):
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({elapsed:.2f}s)")
    assert not failures, f"criterion {num}: " + "; ".join(failures)
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def _rand(rng, n, m=None, cplx=True):
    m = n if m is None else m
    a = rng.standard_normal((n, m))
    if cplx:
        a = (a + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    return a


def test_criterion_1_bounded_below_rank_one_drop():
    t0 = time.perf_counter()
    failures = []
    op = named_diagonal("one_plus_inv_n")
    for eps in (0.5, 0.1, 0.01, 1e-4):  # 1e-4 caps e_20001, past the default prefix
        res = attainment_perturbation_positive(op, eps)
        s = res.perturbation
        _expect(failures, isinstance(s, SumOp) and len(s.terms) == 1
                and s.shift == 0 and s.base.seq.const_value == 0,
                f"eps={eps}: perturbation is not a bare rank-one term")
        _expect(failures, abs(res.norm_s.value - eps) <= 1e-12
                and res.norm_s.tail_slack == 0.0,
                f"eps={eps}: ||S|| = {res.norm_s.value} not exactly {eps}")
        n0 = next(n for n in range(1, 10 ** 6) if 1.0 / n < eps / 2.0)
        _expect(failures, res.witness.attained and res.witness.witness_index == n0,
                f"eps={eps}: witness {res.witness.witness_index} != e_{n0}")
        want = 1.0 + 1.0 / n0 - eps
        _expect(failures, abs(res.witness.value - want) <= 1e-12,
                f"eps={eps}: m(T+S) = {res.witness.value} != {want}")
        _expect(failures, res.witness.value < 1.0 - eps / 2.0,
                f"eps={eps}: m(T+S) not strictly below m(T) - eps/2")
    _finish(1, "rank-one drop on diag(1+1/n), budget spent exactly",
            failures, t0, 1.0)


def test_criterion_2_vanishing_injective_shifted_cap():
    t0 = time.perf_counter()
    failures = []
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    s = res.perturbation
    _expect(failures, isinstance(s, SumOp) and s.base.seq.const_value == 0.25
            and s.shift == 0 and len(s.terms) == 1,
            "perturbation is not (1/4) I plus one rank-one term")
    term = s.terms[0]
    _expect(failures, term.coeff == -0.125
            and term.left.entries == ((17, 1 + 0j),)
            and term.right.entries == ((17, 1 + 0j),),
            f"cap term is {term.coeff} at {term.left.entries}, wanted -1/8 at e_17")
    _expect(failures, abs(res.norm_s.value - 0.25) <= 1e-12
            and res.norm_s.value <= 0.5,
            f"||S|| = {res.norm_s.value}, wanted 1/4 within the 1/2 budget")
    _expect(failures, res.witness.attained and res.witness.witness_index == 17,
            f"witness {res.witness.witness_index} != e_17")
    want = 1.0 / 17.0 + 0.125
    _expect(failures, abs(res.witness.value - want) <= 1e-12,
            f"m(T+S) = {res.witness.value} != {want}")
    gap = operator_gap_diagonal(add_operators(op, s), op, prefix=100_000)
    _expect(failures, gap.route == "diagonal" and gap.truncation == 100_000,
            "gap not measured on the diagonal route at N = 100000")
    _expect(failures, math.isfinite(gap.tail_bound),
            "diagonal route returned no certified tail bound")
    _expect(failures, gap.value + gap.tail_bound <= 0.5,
            f"certified gap {gap.value} + {gap.tail_bound} exceeds eps = 0.5")
    _finish(2, "shifted cap on diag(1/n), certified gap within budget",
            failures, t0, 5.0)


def test_criterion_3_gap_routes_agree():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 9))
        cplx = bool(i % 2)
        a, b = MatrixOp(_rand(rng, n, cplx=cplx)), MatrixOp(_rand(rng, n, cplx=cplx))
        dev = abs(operator_gap_graph(a, b).value - operator_gap_closed_form(a, b).value)
        worst = max(worst, dev)
        _expect(failures, dev < 1e-8, f"pair {i} (dim {n}): routes differ by {dev}")
    for lam in (0.0, 1.0, 10.0):
        want = lam / math.sqrt(1.0 + lam * lam)
        z, t = MatrixOp(np.zeros((3, 3))), MatrixOp(lam * np.eye(3))
        for res in (operator_gap_graph(z, t), operator_gap_closed_form(z, t)):
            _expect(failures, abs(res.value - want) <= 1e-10,
                    f"theta(0, {lam} I) = {res.value} != {want}")
    _finish(3, f"graph vs closed form on 200 random pairs (worst {worst:.2e})",
            failures, t0, 10.0)


def test_criterion_4_gap_never_exceeds_norm_distance():
    t0 = time.perf_counter()
    failures = []
    for eps in (0.5, 0.1, 0.01):
        op = named_diagonal("one_plus_inv_n")
        res = attainment_perturbation_positive(op, eps)
        rep = gap_upper_bound_check(add_operators(op, res.perturbation), op)
        _expect(failures, rep.holds and rep.margin >= -1e-10,
                f"constructed eps={eps}: slack {rep.margin}")
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    rep = gap_upper_bound_check(add_operators(op, res.perturbation), op)
    _expect(failures, rep.holds and rep.margin >= -1e-10,
            f"constructed shifted cap: slack {rep.margin}")
    rng = np.random.default_rng(404)
    for i in range(100):
        n = int(rng.integers(1, 9))
        a = MatrixOp(_rand(rng, n, cplx=bool(i % 2)))
        b = MatrixOp(_rand(rng, n, cplx=bool(i % 2)))
        rep = gap_upper_bound_check(a, b)
        _expect(failures, rep.holds and rep.margin >= -1e-10,
                f"random pair {i}: slack {rep.margin}")
    _finish(4, "theta(T+S, T) <= ||S|| on constructed and random pairs",
            failures, t0, 5.0)


def test_criterion_5_polar_and_minimum_identities():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(505)
    for i in range(100):
        n = int(rng.integers(1, 9))
        arr = _rand(rng, n, cplx=bool(i % 2))
        op = MatrixOp(arr)
        parts = polar(op)
        recon = float(np.linalg.norm(parts.isometry.array @ parts.modulus.array - arr, 2))
        _expect(failures, recon < 1e-10, f"matrix {i}: ||V|T| - T|| = {recon}")
        vv = parts.isometry.array.conj().T @ parts.isometry.array
        herm = float(np.max(np.abs(vv - vv.conj().T)))
        idem = float(np.max(np.abs(vv @ vv - vv)))
        _expect(failures, herm < 1e-10 and idem < 1e-10,
                f"matrix {i}: V*V defects (herm {herm}, idem {idem})")
        sigma_min = float(np.linalg.svd(arr, compute_uv=False)[-1])
        cert = minimum_modulus(op)
        _expect(failures, abs(cert.value - sigma_min) < 1e-10,
                f"matrix {i}: m(T) = {cert.value} vs smallest singular {sigma_min}")
        mod_min = minimum_modulus(modulus(op)).value
        _expect(failures, abs(cert.value - mod_min) < 1e-10,
                f"matrix {i}: m(T) = {cert.value} vs m(|T|) = {mod_min}")
    _finish(5, "polar reconstruction and minimum-modulus identities, 100 matrices",
            failures, t0, 5.0)


def test_criterion_6_essential_spectrum_survives_rank_bumps():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)
    grid = np.arange(-6, 7) * 0.75
    for i in range(20):
        k = int(rng.integers(1, 4))
        pts = np.sort(rng.choice(grid, size=k, replace=False))
        amp = float(rng.uniform(0.3, 1.0))
        pts_t = tuple(float(p) for p in pts)

        def fn(n, pts=pts_t, amp=amp, k=k):
            return pts[(n - 1) % k] + amp / n

        def vec_fn(a, pts=pts, amp=amp, k=k):
            return pts[((a - 1) % k).astype(int)] + amp / a

        op = DiagonalOp(diagonal_seq(fn, DeclaredAccumulation(pts_t), vec_fn=vec_fn))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            support = np.sort(rng.choice(np.arange(1, 13),
                                         size=int(rng.integers(1, 4)), replace=False))
            coords = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
            raw = Vec(tuple((int(ix), complex(c)) for ix, c in zip(support, coords)))
            unit = raw.scale(1.0 / raw.norm())
            terms.append(RankOneTerm(float(rng.uniform(-1.0, 1.0)), unit, unit))
        rep = weyl_check(op, terms, prefix=10_000)
        _expect(failures, rep.essential_before == rep.essential_after,
                f"operator {i}: essential sets differ {rep.essential_before} "
                f"vs {rep.essential_after}")
        _expect(failures, rep.agree, f"operator {i}: descriptors disagree")
        for side in (rep.detected_before, rep.detected_after):
            for p in pts_t:
                dist = min((abs(d - p) for d in side), default=math.inf)
                _expect(failures, dist <= 1e-3,
                        f"operator {i}: point {p} detected only to {dist}")
        _expect(failures, rep.detected_match, f"operator {i}: detection mismatch")
    _finish(6, "20 declared accumulation sets, rank bumps, detection at N = 10000",
            failures, t0, 10.0)


def test_criterion_7_negative_controls():
    t0 = time.perf_counter()
    failures = []
    cert = minimum_modulus(named_diagonal("one_plus_inv_n"))
    _expect(failures, not cert.attained and cert.witness is None,
            "diag(1+1/n) wrongly reported as attaining before perturbation")
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    term = res.perturbation.terms[0]
    bad = SumOp(res.perturbation.base, 0.0,
                (RankOneTerm(2.0 * term.coeff, term.left, term.right),))
    v = verify_perturbation(op, dataclasses.replace(res, perturbation=bad))
    _expect(failures, not v.norm_ok, "doubled coefficient slipped past the norm check")
    _expect(failures, not v.passed, "corrupted result wrongly verified")
    _finish(7, "non-attainment before, corrupted coefficient rejected",
            failures, t0, 1.0)
