"""Minimum modulus, square roots, polar parts and spectral reports."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minatt.operators import (
    DiagSeq,
    DiagonalOp,
    MatrixOp,
    RankOneTerm,
    SumOp,
    Vec,
    block_tail,
    named_diagonal,
    scale_shift,
)
from minatt.operators import _MAP_BLOCK
from minatt.spectral import (
    DETECT_WINDOW,
    MIN_CLUSTER,
    MULTIPLICITY_TOL,
    SAMPLE,
    _cluster,
    _detect_accumulation,
    essential_spectrum,
    is_minimum_attaining,
    minimum_modulus,
    modulus,
    polar,
    square_root,
    weyl_check,
)

GOLDEN_SIGMA = 0.6180339887498948  # smallest singular value of [[1,1],[0,1]]


def _dense_of(op, n):
    return np.column_stack([op.apply(Vec.basis(j)).dense(n) for j in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Minimum modulus
# ---------------------------------------------------------------------------


def test_matrix_minimum_is_smallest_singular_value():
    cert = minimum_modulus(MatrixOp(np.array([[1.0, 1.0], [0.0, 1.0]])))
    assert abs(cert.value - GOLDEN_SIGMA) < 1e-12
    assert cert.attained
    assert cert.residual < 1e-12


def test_matrix_minimum_witness_actually_achieves_it():
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cert = minimum_modulus(MatrixOp(arr))
    w = cert.witness.dense(4)
    assert abs(np.linalg.norm(arr @ w) - cert.value) < 1e-10


def test_wide_matrix_minimum_is_zero_at_a_kernel_vector():
    arr = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
    cert = minimum_modulus(MatrixOp(arr))
    assert cert.value == 0.0 and cert.attained
    w = cert.witness.dense(3)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert np.linalg.norm(arr @ w) < 1e-12
    assert cert.residual < 1e-12


def test_strictly_decreasing_diagonal_never_attains():
    cert = minimum_modulus(named_diagonal("one_plus_inv_n"))
    assert cert.value == 1.0
    assert not cert.attained
    assert cert.witness is None


def test_vanishing_injective_diagonal_never_attains():
    cert = minimum_modulus(named_diagonal("inv_n"))
    assert cert.value == 0.0
    assert not cert.attained


def test_kernel_direction_attains_at_smallest_index():
    cert = minimum_modulus(named_diagonal("alternating01"))
    assert cert.value == 0.0
    assert cert.attained
    assert cert.witness_index == 1


def test_divergent_diagonal_attains_at_first_entry():
    cert = minimum_modulus(named_diagonal("linear_n"))
    assert cert.value == 1.0
    assert cert.attained and cert.witness_index == 1


def test_shifted_capped_diagonal_attains_inside_block():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    cert = minimum_modulus(op)
    assert abs(cert.value - (1.0 / 17.0 + 0.125)) < 1e-12
    assert cert.attained and cert.witness_index == 17
    assert cert.residual < 1e-12


def test_constant_diagonal_attains_immediately():
    cert = minimum_modulus(named_diagonal("const:0.25"))
    assert cert.value == 0.25
    assert cert.attained and cert.witness_index == 1


def test_attainment_crosscheck_agrees_with_truncation_eigenvalues():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    cert = is_minimum_attaining(op)
    assert cert.attained and abs(cert.value - (1.0 / 17.0 + 0.125)) < 1e-12


def test_minimum_equals_minimum_of_modulus():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = MatrixOp(arr)
        assert abs(minimum_modulus(op).value - minimum_modulus(modulus(op)).value) < 1e-10


# ---------------------------------------------------------------------------
# Square root and modulus
# ---------------------------------------------------------------------------


def test_square_root_frozen_matrix():
    got = square_root(MatrixOp(np.array([[2.0, 1.0], [1.0, 2.0]]))).array
    a = (math.sqrt(3) + 1) / 2
    b = (math.sqrt(3) - 1) / 2
    np.testing.assert_allclose(got, np.array([[a, b], [b, a]]), atol=1e-12)


def test_square_root_squares_back():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    arr = b.conj().T @ b
    r = square_root(MatrixOp(arr)).array
    np.testing.assert_allclose(r @ r, arr, atol=1e-10)


def test_square_root_of_diagonal_is_entrywise():
    r = square_root(named_diagonal("one_plus_inv_n"))
    out = r.apply(Vec.basis(4)).dense(4)[3]
    assert abs(out - math.sqrt(1.25)) < 1e-15


def test_square_root_rejects_non_positive():
    with pytest.raises(ValueError):
        square_root(MatrixOp(np.array([[-1.0]])))
    with pytest.raises(ValueError):
        square_root(MatrixOp(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        square_root(scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0))


def test_modulus_of_negated_diagonal():
    op = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
    m = modulus(op)
    np.testing.assert_allclose(_dense_of(m, 5), _dense_of(named_diagonal("one_plus_inv_n"), 5),
                               atol=1e-14)


def test_modulus_matches_dense_formula():
    rng = np.random.default_rng(13)
    arr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = modulus(MatrixOp(arr)).array
    w, u = np.linalg.eigh(arr.conj().T @ arr)
    expect = (u * np.sqrt(np.clip(w, 0, None))) @ u.conj().T
    np.testing.assert_allclose(got, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# Polar decomposition
# ---------------------------------------------------------------------------


def test_polar_reconstructs_matrices():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        parts = polar(MatrixOp(arr))
        np.testing.assert_allclose(parts.isometry.array @ parts.modulus.array, arr,
                                   atol=1e-10)
        vv = parts.isometry.array.conj().T @ parts.isometry.array
        np.testing.assert_allclose(vv @ vv, vv, atol=1e-10)  # V*V is a projection
        np.testing.assert_allclose(vv, vv.conj().T, atol=1e-10)


def test_polar_of_wide_matrix():
    arr = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 1.0]])
    parts = polar(MatrixOp(arr))
    v, m = parts.isometry.array, parts.modulus.array
    assert v.shape == (2, 3) and m.shape == (3, 3)
    np.testing.assert_allclose(v @ m, arr, atol=1e-12)
    np.testing.assert_allclose(m @ m, arr.T @ arr, atol=1e-12)
    np.testing.assert_allclose(modulus(MatrixOp(arr)).array, m, atol=0)


def test_polar_takes_one_svd_of_the_operator(monkeypatch):
    seen = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: seen.append(np.array(a)) or real(a, *args, **kw))
    arr = np.random.default_rng(19).standard_normal((4, 4))
    polar(MatrixOp(arr))
    assert len(seen) == 1 and np.array_equal(seen[0], arr)
    seen.clear()
    op = SumOp(named_diagonal("one_plus_inv_n"), 0.0,
               (RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5)),))
    block = block_tail(op).block
    polar(op)
    # the other calls rebuild the rank-one terms of the two returned parts
    assert sum(a.shape == block.shape and np.array_equal(a, block) for a in seen) == 1


def test_polar_of_negated_diagonal_uses_unimodular_phase():
    op = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
    parts = polar(op)
    n = 6
    np.testing.assert_allclose(_dense_of(parts.isometry, n) @ _dense_of(parts.modulus, n),
                               _dense_of(op, n), atol=1e-13)
    phases = np.diag(_dense_of(parts.isometry, n))
    np.testing.assert_allclose(phases, -np.ones(n), atol=1e-14)


def test_polar_keeps_kernel_directions_in_the_kernel():
    parts = polar(named_diagonal("alternating01"))
    # entry 1 is 0: the phase there must be 0, not 1
    assert parts.isometry.apply(Vec.basis(1)).norm() == 0.0
    n = 8
    np.testing.assert_allclose(_dense_of(parts.isometry, n) @ _dense_of(parts.modulus, n),
                               _dense_of(named_diagonal("alternating01"), n), atol=1e-14)


def test_polar_of_block_plus_tail_operator():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(3), Vec.basis(3)),))
    parts = polar(op)
    n = 9
    np.testing.assert_allclose(_dense_of(parts.isometry, n) @ _dense_of(parts.modulus, n),
                               _dense_of(op, n), atol=1e-12)


def test_polar_of_complex_phase_diagonal():
    base = named_diagonal("one_plus_inv_n")
    op = scale_shift(base, 1j, 0.0)  # entries i(1 + 1/n)
    parts = polar(op)
    n = 5
    np.testing.assert_allclose(_dense_of(parts.isometry, n) @ _dense_of(parts.modulus, n),
                               _dense_of(op, n), atol=1e-13)


# ---------------------------------------------------------------------------
# Essential and discrete spectrum
# ---------------------------------------------------------------------------


def test_spectrum_of_convergent_diagonal():
    rep = essential_spectrum(named_diagonal("one_plus_inv_n"))
    assert rep.essential == (1.0,)
    assert not rep.essential_unbounded
    assert len(rep.discrete) == 999  # isolation fails past 1 + 1/999
    assert rep.discrete[-1] == (2.0, 1)
    assert abs(rep.discrete[0][0] - (1.0 + 1.0 / 999.0)) < 1e-12
    assert all(m == 1 for _, m in rep.discrete)


def test_spectrum_of_periodic_diagonal_has_no_discrete_part():
    rep = essential_spectrum(named_diagonal("alternating01"))
    assert rep.essential == (0.0, 1.0)
    assert rep.discrete == ()


def test_spectrum_of_divergent_diagonal():
    rep = essential_spectrum(named_diagonal("linear_n"), prefix=50)
    assert rep.essential == ()
    assert rep.essential_unbounded
    assert rep.discrete[0] == (1.0, 1) and len(rep.discrete) == 50


def test_matrix_spectrum_reports_multiplicities():
    rep = essential_spectrum(MatrixOp(np.diag([1.0, 1.0, 3.0])))
    assert rep.essential == ()
    assert rep.discrete == ((1.0, 2), (3.0, 1))


def test_spectrum_runs_one_eigvalsh(monkeypatch):
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw))
    a = np.random.default_rng(7).standard_normal((64, 64))
    essential_spectrum(MatrixOp(a + a.T))
    assert shapes == [(64, 64)]
    shapes.clear()
    v = Vec(tuple((i, 1 / math.sqrt(5)) for i in range(1, 6)))
    essential_spectrum(SumOp(named_diagonal("one_plus_inv_n"), 0.0,
                             (RankOneTerm(0.5, v, v),)), prefix=2000)
    assert shapes == [(5, 5)]


def test_spectrum_requires_self_adjointness():
    with pytest.raises(ValueError):
        essential_spectrum(MatrixOp(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        essential_spectrum(scale_shift(named_diagonal("inv_n"), 1j, 0.0))


def test_eigenvalue_bump_moves_only_discrete_spectrum():
    base = named_diagonal("one_plus_inv_n")
    rep = weyl_check(base, [RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5))])
    assert rep.agree
    assert rep.essential_before == rep.essential_after == (1.0,)
    assert rep.detected_match
    assert any(abs(d - 1.0) <= 1e-3 for d in rep.detected_after)


def test_weyl_rejects_non_hermitian_bumps():
    base = named_diagonal("one_plus_inv_n")
    with pytest.raises(ValueError):
        weyl_check(base, [RankOneTerm(1j, Vec.basis(1), Vec.basis(1))])


def test_weyl_handles_offdiagonal_hermitian_pairs():
    base = named_diagonal("alternating01")
    x = Vec.from_dense([1.0, 1.0], dim=None).scale(1 / math.sqrt(2))
    rep = weyl_check(base, [RankOneTerm(0.7, x, x)], prefix=4000)
    assert rep.agree
    assert rep.essential_after == (0.0, 1.0)
    assert rep.detected_match


def test_weyl_check_evaluates_each_prefix_once(monkeypatch):
    # the prefix is streamed in blocks: each index reaches the generator once
    # per side, plus once more per side inside the self-adjointness sample
    n = 150_000
    calls = []
    real = DiagSeq.values_at
    monkeypatch.setattr(DiagSeq, "values_at",
                        lambda self, ix: calls.append(np.array(ix)) or real(self, ix))
    weyl_check(named_diagonal("one_plus_inv_n"), [RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5))],
               prefix=n)
    assert max(ix.size for ix in calls) <= _MAP_BLOCK
    seen = np.bincount(np.concatenate(calls), minlength=n + 1)
    assert seen.size == n + 1
    assert np.all(seen[SAMPLE + 1:] == 2)
    assert np.all(np.delete(seen[1:SAMPLE + 1], 5 - 1) == 4)  # e_5 is the bump's support


# Plain-loop references for the run grouping in spectral.py.


def _cluster_reference(values, gap):
    v = np.sort(values)
    out = []
    start = 0
    for i in range(1, v.size + 1):
        if i == v.size or v[i] - v[i - 1] > gap:
            chunk = v[start:i]
            out.append((float(np.mean(chunk)), int(chunk.size), float(chunk[-1] - chunk[0])))
            start = i
    return out


def _detect_reference(values):
    v = np.sort(values)
    if v.size == 0:
        return ()
    counts = np.searchsorted(v, v + DETECT_WINDOW, side="right") - \
        np.searchsorted(v, v - DETECT_WINDOW, side="left")
    flagged = np.nonzero(counts >= MIN_CLUSTER)[0]
    out = []
    start = 0
    for j in range(1, flagged.size + 1):
        if j == flagged.size or v[flagged[j]] - v[flagged[j - 1]] > DETECT_WINDOW:
            run = flagged[start:j]
            out.append(float(v[run[np.argmax(counts[run])]]))
            start = j
    return tuple(out)


# neighbours 0, w, 2w and 1, 1 + w sit exactly one threshold apart
_W = DETECT_WINDOW
_GRID = [0.0, -0.0, _W, 2 * _W, _W / 2, -_W, 1.0, 1.0 + _W, 1.0 + MULTIPLICITY_TOL, 0.25, 0.5, 3.0]
# each drawn value repeats up to 40 times, so long runs and flagged clusters occur
_values = st.lists(st.tuples(st.one_of(st.sampled_from(_GRID), st.floats(-2.0, 2.0)),
                             st.integers(1, 40)), max_size=12).map(
    lambda pairs: [x for x, times in pairs for _ in range(times)])


@given(_values, st.sampled_from([0.0, _W, MULTIPLICITY_TOL, 0.25, 1.0]))
@example([0.0] * 12 + [0.25] * 9 + [0.5], 0.25)
def test_cluster_matches_plain_loop(values, gap):
    v = np.array(values, dtype=float)
    means, counts, widths = _cluster(np.sort(v), gap)
    got = list(zip(means.tolist(), counts.tolist(), widths.tolist()))
    assert repr(got) == repr(_cluster_reference(v, gap))


@given(_values)
@example([0.0] * 30 + [_W] * 30 + [2 * _W] * 10 + [1.0] * 26)
def test_detect_accumulation_matches_plain_loop(values):
    v = np.array(values, dtype=float)
    assert repr(_detect_accumulation(np.sort(v))) == repr(_detect_reference(v))
