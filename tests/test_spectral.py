"""Minimum modulus, square roots, polar parts and spectral reports."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minatt import spectral
from minatt.operators import (
    ConvergesTo,
    DiagSeq,
    DiagonalOp,
    MatrixOp,
    RankOneTerm,
    SumOp,
    Vec,
    add_operators,
    add_rank_one,
    block_tail,
    compose_operators,
    diagonal_seq,
    list_generators,
    named_diagonal,
    scale_shift,
)
from minatt.operators import _MAP_BLOCK
from minatt.gap import defect_resolvent
from minatt.spectral import (
    DETECT_WINDOW,
    MATCH_TOL,
    MIN_CLUSTER,
    MULTIPLICITY_TOL,
    SAMPLE,
    WeylReport,
    _cluster,
    _detect_accumulation,
    _run,
    _runs,
    _sort,
    _sorted_eigs,
    _window_counts,
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
    # any other call would be a decomposition of some other matrix
    assert sum(a.shape == block.shape and np.array_equal(a, block) for a in seen) == 1


def test_polar_reads_m_of_modulus_off_the_operator():
    # ||Tx|| = || |T|x ||, so m(|T|) read off T has the value and witness of
    # m(|T|) read off |T|; the l2 T is not positive, so it takes the polar path
    l2 = add_rank_one(scale_shift(named_diagonal("inv_n"), 1.0, -2.0),
                      RankOneTerm(0.3, Vec.basis(5), Vec.basis(7)))
    assert not spectral._positivity(l2, 1000)[0]
    rng = np.random.default_rng(23)
    matrix = MatrixOp(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    indices = []
    for op in (l2, matrix):
        base = minimum_modulus(op, prefix=1000)
        expect = minimum_modulus(modulus(op), prefix=1000)
        assert abs(base.value - expect.value) <= 1e-12 * max(1.0, expect.value)
        assert base.attained and base.witness_index == expect.witness_index
        indices.append(base.witness_index)
    assert indices == [1, None]


def test_svd_factors_are_read_only():
    ops = (MatrixOp(np.random.default_rng(3).standard_normal((3, 2))),
           add_rank_one(named_diagonal("inv_n"), RankOneTerm(0.5, Vec.basis(2), Vec.basis(4))))
    for op in ops:
        assert op.svd is op.svd
        for factor in op.svd:
            with pytest.raises(ValueError, match="read-only"):
                factor[...] = 0


def _bits(x):
    """A result as exact bytes and round-trip reprs, so equal means bit for bit."""
    if isinstance(x, spectral.AttainmentCertificate):
        return repr(x)
    if isinstance(x, spectral.PolarParts):
        return _bits(x.isometry), _bits(x.modulus)
    if isinstance(x, MatrixOp):
        return x.array.shape, x.array.tobytes()
    bt = block_tail(x)
    return bt.support, bt.block.tobytes(), bt.tail.values_at(np.arange(1, 40)).tobytes()


_CACHED_READERS = {"minimum_modulus": lambda op: minimum_modulus(op, prefix=200),
                   "polar": polar, "modulus": modulus}


@st.composite
def _operands(draw):
    """A builder of one operator: a square, tall or wide matrix, or an l2 diagonal with up
    to four rank-one terms, so a block of k <= 8 (k = 0 without terms)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return lambda: MatrixOp(data)
    name = draw(st.sampled_from(("one_plus_inv_n", "inv_n", "alternating01")))
    pairs = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=4))
    coeffs = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
    terms = tuple(RankOneTerm(c, Vec.basis(i), Vec.basis(j)) for c, (i, j) in zip(coeffs, pairs))
    return lambda: SumOp(named_diagonal(name), 0.0, terms)


@given(_operands(), st.permutations(sorted(_CACHED_READERS)))
def test_cached_svd_gives_a_fresh_operators_results(build, order):
    # every reader of op.svd, in any order and asked twice, answers as on an operator
    # that has never been factored
    op = build()
    for name in order + order:
        assert _bits(_CACHED_READERS[name](op)) == _bits(_CACHED_READERS[name](build()))


def test_rebuilding_blocks_takes_no_svd(monkeypatch):
    # l2 sums and products stay a diagonal plus terms, the other l2 results
    # are rebuilt by block_tail_op; only the operations that need a
    # decomposition of the block itself take one
    callers = []
    real = np.linalg.svd

    def spy(a, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    r = math.sqrt(0.5)
    x = Vec(((1, r), (2, r)), None)
    op = add_rank_one(scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0),
                      RankOneTerm(0.3, x, Vec.basis(3)))
    positive = add_rank_one(named_diagonal("one_plus_inv_n"), RankOneTerm(0.5, x, x))
    add_operators(op, op)
    compose_operators(op, op)
    square_root(positive)
    modulus(op)
    polar(op)
    defect_resolvent(op)
    assert callers and "block_tail_op" not in callers


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


def _probe(n):
    """1 + 1/n, off the real line by 0.5i at n = 5000, past the positivity sample."""
    return (1 + 1 / n + 0.5j * (n == 5000)).astype(complex)


def test_spectral_reports_refuse_a_non_real_entry_anywhere_in_the_prefix():
    op = DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=_probe))
    assert 5000 > SAMPLE
    not_real = "spectral reports require a self-adjoint operator: diagonal entries not real"
    # the pass that evaluates the prefix, and weyl_check's own entry on the union of supports:
    # there T + S is real, and T is not
    for report in (lambda: essential_spectrum(op, prefix=10_000),
                   lambda: weyl_check(op, [RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5))],
                                      prefix=10_000),
                   lambda: weyl_check(op, [RankOneTerm(-0.5j, Vec.basis(5000), Vec.basis(5000))],
                                      prefix=10_000)):
        with pytest.raises(ValueError, match=not_real):
            report()
    assert essential_spectrum(op, prefix=4999).truncation == 4999


def test_positivity_reads_its_sample_once(monkeypatch):
    read = []
    real = DiagSeq.values_at

    def spy(seq, indices):
        if seq.root is None and seq.const_value is None:
            read.append(len(indices))
        return real(seq, indices)
    monkeypatch.setattr(DiagSeq, "values_at", spy)
    op = scale_shift(named_diagonal("one_plus_inv_n"), 1.1, 0.2)
    # the decision reads the whole prefix once, in the tail summary m(T) reads too
    assert spectral._positivity(op, 10_000) == (True, "")
    assert sum(read) == 10_000
    assert not minimum_modulus(op, prefix=10_000).attained
    assert spectral._positivity(op, 10_000) == (True, "") and sum(read) == 10_000
    # a shorter prefix still covers SAMPLE entries, in a summary of its own
    read.clear()
    assert spectral._positivity(op, 100) == (True, "") and sum(read) == SAMPLE
    # the summary refuses an entry off the real line; a generator's own error is not
    # taken for one
    probe = diagonal_seq(None, ConvergesTo(1.0),
                         vec_fn=lambda n: (1 + 1 / n + 0.5j * (n == 3000)).astype(complex))
    assert spectral._positivity(DiagonalOp(probe), 10_000) == (False, "diagonal entries not real")
    # entries off the real line are named before a declared point off it, which is named
    # when the entries are real
    rotated = scale_shift(named_diagonal("one_plus_inv_n"), 1j, 0.0)
    assert spectral._positivity(rotated, 10_000) == (False, "diagonal entries not real")
    misdeclared = DiagonalOp(DiagSeq(ConvergesTo(1j), gen=named_diagonal("inv_n").seq.gen))
    assert spectral._positivity(misdeclared, 10_000) == (False, "accumulation point 1j not real")

    def broken(n):
        if n.size:  # the form of a diagonal asks for no entry
            raise ValueError("generator failed")
        return n.astype(float)
    with pytest.raises(ValueError, match="generator failed"):
        spectral._positivity(DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=broken)),
                             10_000)


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
    # the prefix is streamed in blocks: the two sides share their tail off the
    # bump's support, and the self-adjointness check reads no tail entry, so
    # each index off e_5 reaches the generator exactly once
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
    assert np.all(np.delete(seen[1:], 5 - 1) == 1)  # e_5 is the bump's support


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


def test_runs_take_gaps_across_slices():
    # a cut on each side of the slice boundaries, and runs that span them
    chunk = spectral._COUNT_CHUNK
    v = np.cumsum(np.where(np.arange(2 * chunk + 3) % (chunk - 1) == 0, 1.0, 1e-3))
    for gap in (1e-3 / 2, 0.5, 2.0):
        cuts = np.flatnonzero(np.diff(v) > gap) + 1
        starts, ends = _runs(v, gap)
        assert np.array_equal(starts, np.concatenate(([0], cuts)))
        assert np.array_equal(ends, np.concatenate((cuts, [v.size])))
        assert starts.dtype == ends.dtype == np.intp


# tails of each shape, over several ordering slices, from integers so that ties and zeros occur
_SHAPES = {
    "ascending": lambda v: np.sort(v),
    "strictly decreasing": lambda v: np.arange(v.size, 0, -1) - v.size / 2.0,
    "decreasing with ties": lambda v: np.sort(v)[::-1],
    "periodic": lambda v: np.resize([1.0, 0.0, 0.5], v.size),
    "random": lambda v: v,
}


@given(st.sampled_from(sorted(_SHAPES)),
       st.sampled_from([0, 1, 2, 7, spectral._COUNT_CHUNK + 1, 2 * spectral._COUNT_CHUNK + 5]),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 1e300, -math.inf, math.nan]),
                max_size=6),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**32 - 1))
def test_sort_matches_np_sort_bit_for_bit(shape, n, head, negative_zeros, seed):
    rng = np.random.default_rng(seed)
    tail = _SHAPES[shape](rng.integers(-3, 4, n).astype(float))
    zeros = tail == 0
    tail[zeros] = np.where(rng.random(int(zeros.sum())) < negative_zeros, -0.0, 0.0)
    v = np.concatenate((head, tail))
    got = v.copy()
    _sort(got, len(head))
    assert np.array_equal(got.view(np.int64), np.sort(v).view(np.int64))
    if shape == "ascending" or (shape == "strictly decreasing" and n > 1):
        assert _run(tail) == (1 if shape == "ascending" else -1)
    elif shape == "periodic" and n > 2:
        assert _run(tail) == 0


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
    assert repr(_detect_accumulation(np.sort(v), [np.zeros(0)])) == repr([_detect_reference(v)])


# the one-pass detector against the plain loop on each side's merged values, with chunk
# boundaries hit and own values that are empty, equal shared values or fall beyond them

@st.composite
def _detect_cases(draw):
    chunk = draw(st.sampled_from([1, 2, 3, 5]))
    m = draw(st.integers(1, 50))
    size = draw(st.sampled_from([0, chunk * m - 1, chunk * m, chunk * m + 1]))
    shared = draw(st.lists(st.one_of(st.sampled_from(_GRID), st.floats(-2.0, 2.0)),
                           min_size=size, max_size=size))
    lo, hi = min(shared, default=0.0), max(shared, default=0.0)
    below, above = st.sampled_from([lo - _W / 2, lo - 1]), st.sampled_from([hi + _W / 2, hi + 1])
    own = st.one_of(st.sampled_from(_GRID), st.floats(-2.0, 2.0), below, above,
                    *([st.sampled_from(shared)] if shared else []))
    owns = draw(st.lists(st.lists(own, max_size=30), min_size=1, max_size=2))
    return chunk, shared, owns


# 0 and w each count both: a tie, and with chunks of 5 the run crosses a boundary between them
_TIED = [0.0] * 15 + [_W] * 15


@given(_detect_cases())
@example((2, [], [[], []]))
@example((3, [], [[1.0] * 30, []]))
@example((5, [0.0] * 29, [[0.0] * 3, []]))
@example((3, [1.0] * 30, [[1.0 + _W] * 5 + [3.0], [0.0] * 25]))
@example((2, [0.5] * 24 + [2.0], [[0.5 - _W / 2], [2.0 + _W / 2] * 30]))
@example((5, _TIED, [[], [_W], [-_W]]))
@example((1, [0.0] * 30 + [1.0] * 30, [[0.5] * 25, []]))
def test_detect_accumulation_merges_own_values_in_one_pass(case):
    chunk, shared, owns = case
    v = np.sort(np.array(shared, dtype=float))
    owns = [np.sort(np.array(own, dtype=float)) for own in owns]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_COUNT_CHUNK", chunk)
        got = _detect_accumulation(v, owns)
    # == rather than repr: either sort may put -0.0 and 0.0 in either order
    assert got == [_detect_reference(np.concatenate((v, own))) for own in owns]
    if shared == _TIED:
        assert got == [(0.0,)] * 3


# _window_counts against the plain search, on keys as the detector passes them:
# slices of v, chunk boundaries hit, and a short sorted array of other values
_WINDOW_GRID = [0.0, -0.0, math.inf, -math.inf, _W, -_W, 2 * _W, 0.5, 1.0, 1.0 + _W]


@given(st.data(), st.sampled_from([1, 2, 3, 5]), st.sampled_from([_W, 0.0, 0.5]))
def test_window_counts_match_plain_search(data, chunk, w):
    m = data.draw(st.integers(1, 4))
    size = data.draw(st.sampled_from([0, 1, chunk * m - 1, chunk * m, chunk * m + 1]))
    grid = st.one_of(st.sampled_from(_WINDOW_GRID), st.floats(-2.0, 2.0))
    values = data.draw(st.lists(grid, min_size=size, max_size=size))
    v = np.sort(np.array(values, dtype=float))
    others = np.sort(np.array(data.draw(st.lists(grid, max_size=8)), dtype=float))
    for keys in [v[lo:lo + chunk] for lo in range(0, v.size, chunk)] + [others]:
        want = np.searchsorted(v, keys + w, side="right") - np.searchsorted(v, keys - w, "left")
        got = _window_counts(v, keys, w)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_window_counts_match_plain_search_across_full_chunks():
    # dense near 1, sparse above it, and long runs of ties, over 2 chunks and one value
    chunk = spectral._COUNT_CHUNK
    v = np.sort(np.concatenate((1.0 + 1.0 / np.arange(1, chunk + 1), np.zeros(chunk // 2),
                                np.full(chunk // 2, 1.0), [-math.inf])))
    assert v.size == 2 * chunk + 1
    want = np.searchsorted(v, v + _W, side="right") - np.searchsorted(v, v - _W, side="left")
    got = [_window_counts(v, v[lo:lo + chunk], _W) for lo in range(0, v.size, chunk)]
    assert np.array_equal(np.concatenate(got), want)


# weyl_check against two passes, one per side, each sorting its own prefix

def _weyl_reference(op, terms, prefix):
    perturbed = op
    for t in terms:
        perturbed = add_rank_one(perturbed, t)
    before = essential_spectrum(op, prefix=prefix)
    after = essential_spectrum(perturbed, prefix=prefix)
    det_before = _detect_reference(_sorted_eigs(op, prefix))
    det_after = _detect_reference(_sorted_eigs(perturbed, prefix))
    agree = (len(before.essential) == len(after.essential)
             and all(abs(a - b) <= 1e-9 for a, b in zip(before.essential, after.essential))
             and before.essential_unbounded == after.essential_unbounded)
    covered = all(any(abs(d - p) <= MATCH_TOL for d in det) for rep, det in
                  ((before, det_before), (after, det_after)) for p in rep.essential)
    return WeylReport(before.essential, after.essential, before.essential_unbounded,
                      after.essential_unbounded, agree, det_before, det_after, covered, prefix)


_GENERATORS = [g for g in list_generators() if not g.startswith("const:")]


@st.composite
def _hermitian_terms(draw, far):
    """1 to 3 terms c v v* with real c and unit v on up to 3 coordinates, some past ``far``."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        indices = draw(st.lists(st.one_of(st.integers(1, 40), st.integers(far, far + 40)),
                                min_size=1, max_size=3, unique=True))
        vals = np.array(draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False),
                                      min_size=len(indices), max_size=len(indices))))
        if np.linalg.norm(vals) < 1e-3:
            vals = np.ones(len(indices))
        v = Vec(tuple(zip(sorted(indices), (vals / np.linalg.norm(vals)).tolist())), None)
        terms.append(RankOneTerm(draw(st.floats(-2.0, 2.0)), v, v))
    return terms


@given(st.sampled_from(_GENERATORS), st.one_of(st.none(), st.floats(-2.0, 2.0),
                                               st.sampled_from([-1.0, 1.0, 0.5])),
       st.booleans(), st.one_of(st.sampled_from([500, 3000]), st.integers(1, 45),
                                st.integers(595, 645)), st.data())
def test_weyl_check_matches_two_pass_reference(name, shift, own_terms, prefix, data):
    # supports sit below, at and past the prefix
    op = named_diagonal(name)
    if shift is not None:
        op = scale_shift(op, 1.0, shift)
    if own_terms:
        for t in data.draw(_hermitian_terms(far=600)):
            op = add_rank_one(op, t)
    terms = data.draw(_hermitian_terms(far=600))
    got = weyl_check(op, terms, prefix=prefix)
    assert repr(got) == repr(_weyl_reference(op, terms, prefix))


def test_weyl_check_matches_two_pass_reference_on_a_matrix():
    # two clusters of 30 eigenvalues, both flagged on each side
    a = np.random.default_rng(3).standard_normal((60, 60))
    op = MatrixOp(np.diag(np.repeat([0.0, 1.0], 30)) + 1e-6 * (a + a.T))
    terms = [RankOneTerm(0.7, Vec.basis(3, dim=60), Vec.basis(3, dim=60))]
    rep = weyl_check(op, terms)
    assert len(rep.detected_before) == len(rep.detected_after) == 2
    assert repr(rep) == repr(_weyl_reference(op, terms, 10_000))


def test_weyl_check_holds_one_eigenvalue_array_at_a_time():
    # one pass for both sides peaked at 3.3 x 8N bytes at N = 2e5 and at 1.46 x 8N at
    # N = 1e6: the sorted eigenvalues and slices of them; a second N-long array would add 8N
    op = named_diagonal("one_plus_inv_n")
    terms = [RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5))]
    weyl_check(op, terms, prefix=1000)
    for n, bound in ((200_000, 3.5), (1_000_000, 1.6)):
        tracemalloc.start()
        try:
            weyl_check(op, terms, prefix=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n


def test_essential_spectrum_holds_one_eigenvalue_array():
    # the eigenvalues, slices of them and the clusters: neighbour gaps taken whole, or a sort
    # with an N-long buffer, would add 8N
    op = add_rank_one(named_diagonal("one_plus_inv_n"),
                      RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5)))
    essential_spectrum(op, prefix=1000)
    n = 1_000_000
    tracemalloc.start()
    try:
        essential_spectrum(op, prefix=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * n
