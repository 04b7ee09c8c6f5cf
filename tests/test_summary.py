"""The tail summary each l2 form keeps per prefix, and the decisions that read it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minatt import spectral
from minatt.operators import (
    ConvergesTo,
    DeclaredAccumulation,
    DiagSeq,
    DiagonalOp,
    RankOneTerm,
    SumOp,
    Vec,
    block_tail,
    diagonal_seq,
    named_diagonal,
    scale_shift,
)
from minatt.operators import _FIRST_BLOCK
from minatt.perturbation import (
    PerturbationCase,
    attainment_perturbation,
    verify_perturbation,
)
from minatt.spectral import HERMITIAN_TOL, SAMPLE, minimum_modulus, square_root


def _root_reads(monkeypatch) -> list:
    """Lengths of the index arrays every root generator is handed from now on."""
    read = []
    real = DiagSeq.values_at

    def spy(seq, indices):
        if seq.root is None and seq.const_value is None:
            read.append(len(indices))
        return real(seq, indices)
    monkeypatch.setattr(DiagSeq, "values_at", spy)
    return read


def _late(vec_fn):
    return DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=vec_fn))


# ---------------------------------------------------------------------------
# The probes: an entry past SAMPLE but inside the prefix
# ---------------------------------------------------------------------------


def test_a_late_negative_entry_takes_the_polar_path():
    # 1 + 1/n - 1.6 at n = 5000: positivity used to sample 4,096 entries, so the
    # positive path ran on T and verification failed
    late = _late(lambda a: 1.0 + 1.0 / a - 1.6 * (a == 5000))
    assert 5000 > SAMPLE
    assert spectral._positivity(late, 10_000) == (False, "negative spectral point "
                                                         f"{1.0 + 1.0 / 5000 - 1.6}")
    for eps in (0.5, 0.1, 1e-3):
        res = attainment_perturbation(late, eps)
        assert res.case is PerturbationCase.POLAR_COMPOSED
        assert res.witness.witness_index == 5000
        assert verify_perturbation(late, res).passed


def test_a_late_entry_off_the_real_line_has_no_square_root():
    # 1 + 1/n + 0.5i at n = 5000: square_root used to return 1.0001 there
    late = _late(lambda a: (1 + 1 / a + 0.5j * (a == 5000)).astype(complex))
    with pytest.raises(ValueError, match="square_root requires a positive operator: "
                                         "diagonal entries not real"):
        square_root(late)
    with pytest.raises(ValueError, match="diagonal entries not real"):
        square_root(late, prefix=5000)
    # a prefix that stops short of the entry does not see it
    root = square_root(late, prefix=4999)
    assert root.apply(Vec.basis(4999)).entries[0][1] == pytest.approx(math.sqrt(1 + 1 / 4999))


# ---------------------------------------------------------------------------
# One pass per (form, prefix)
# ---------------------------------------------------------------------------


def test_case1_construct_reads_the_prefix_once(monkeypatch):
    n = 1_000_000
    op = scale_shift(named_diagonal("one_plus_inv_n"), 1.1, 0.2)
    read = _root_reads(monkeypatch)
    res = attainment_perturbation(op, 1e-2, prefix=n)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    # positivity and m(T) share one pass; the near minimizer reads its first block
    assert n <= sum(read) <= 1_010_000
    # the next eps, and any later question at this prefix, reads T's summary
    read.clear()
    res = attainment_perturbation(op, 5e-3, prefix=n)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert read == [_FIRST_BLOCK]
    read.clear()
    assert not minimum_modulus(op, prefix=n).attained
    assert spectral._positivity(op, n) == (True, "")
    assert read == []
    # T + S is another operator with a form of its own: verification scans its prefix
    v = verify_perturbation(op, res, prefix=n)
    assert v.passed and sum(read) >= n - 1


def test_each_form_keeps_one_summary_per_prefix(monkeypatch):
    op = SumOp(named_diagonal("inv_n"), 0.5, (RankOneTerm(-0.25, Vec.basis(3), Vec.basis(3)),))
    read = _root_reads(monkeypatch)
    form = block_tail(op)
    assert read == [1]  # the block's diagonal entry
    read.clear()
    first = form.summary(5000)
    assert (first.abs_min, first.abs_at) == (1 / 5000 + 0.5, 5000)
    assert sum(read) == 5000 - 1 and form.summary(5000) is first
    # m(T) = 0.5 is the declared limit, not attained, and read off the summary
    cert = minimum_modulus(op, prefix=5000)
    assert (cert.value, cert.attained) == (0.5, False)
    assert sum(read) == 5000 - 1
    # another prefix, and a padded form, are scanned on their own
    read.clear()
    assert form.summary(100) == block_tail(op, (2, 3)).summary(100)
    assert read == [100 - 1, 2, 100 - 2]  # the padding reads the block's diagonal


# ---------------------------------------------------------------------------
# The summary against a direct scan
# ---------------------------------------------------------------------------


def _direct(op, n: int):
    """The tail summary over n, m(T) with its witness index, and the positivity verdict
    over max(n, SAMPLE), from dense arrays of the entries."""
    bt = block_tail(op)
    idx = np.setdiff1d(np.arange(1, n + 1), bt.support)
    vals = np.asarray(bt.tail.values_at(idx))
    mags = np.abs(vals)
    scan_min = float(mags.min(initial=math.inf))
    where = int(idx[np.argmin(mags)]) if idx.size else None  # argmin: the first index
    summary = (scan_min, where, float(vals.real.min(initial=math.inf)),
               float(np.abs(vals.imag).max(initial=0.0)))
    points = bt.tail.tail.points
    tail_inf = min(abs(p) for p in points)
    sv = np.linalg.svd(bt.block, compute_uv=False)
    assert bt.k == 0 or sv[-1] > min(scan_min, tail_inf)  # the scan decides m(T) here
    mm = (scan_min, True, where) if scan_min <= tail_inf else (tail_inf, False, None)

    wide = np.setdiff1d(np.arange(1, max(n, SAMPLE) + 1), bt.support)
    entries = np.asarray(bt.tail.values_at(wide))
    bad = [p for p in points if abs(p.imag) > HERMITIAN_TOL]
    lo = min([float(np.linalg.eigvalsh(bt.block).min(initial=entries.real.min()))]
             + [p.real for p in points])
    if not spectral._hermitian(bt.block):
        positivity = (False, "block not self-adjoint")
    elif np.abs(entries.imag).max() > HERMITIAN_TOL:
        positivity = (False, "diagonal entries not real")
    elif bad:
        positivity = (False, f"accumulation point {bad[0]} not real")
    elif lo < -HERMITIAN_TOL:
        positivity = (False, f"negative spectral point {lo}")
    else:
        positivity = (True, "")
    return summary, mm, positivity


@st.composite
def _patterned(draw):
    """A pure generator pattern[(a * i + b) % p] with ties, real or complex, a prefix
    that crosses scan blocks, and rank-one terms on coordinates in and past it."""
    values = st.integers(-3, 3).map(float)
    if draw(st.booleans()):
        values = st.builds(complex, values, st.sampled_from([0.0, 1e-12, 0.5, -2.0]))
    pattern = np.array(draw(st.lists(values, min_size=1, max_size=6)))
    a, b = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    n = draw(st.integers(0, 3 * _FIRST_BLOCK))
    support = draw(st.sets(st.integers(1, n + 20), max_size=4))

    def gen(i):
        return pattern[(a * i + b) % pattern.size]
    # entries on the support sit 20 away from the tail's, so the block never holds m(T)
    seq = DiagSeq(DeclaredAccumulation(tuple(pattern.tolist())), gen=gen)
    terms = tuple(RankOneTerm(20.0, Vec.basis(i), Vec.basis(i)) for i in sorted(support))
    return (SumOp(DiagonalOp(seq), 0j, terms) if terms else DiagonalOp(seq)), n


@given(_patterned())
def test_summary_decisions_match_a_direct_scan(case):
    op, n = case
    summary, mm, positivity = _direct(op, n)
    got = block_tail(op).summary(n)
    assert (got.abs_min, got.abs_at, got.real_min, got.imag_max) == summary
    cert = minimum_modulus(op, prefix=n)
    assert (cert.value, cert.attained, cert.witness_index) == mm
    assert spectral._positivity(op, n) == positivity
