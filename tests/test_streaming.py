"""Streamed prefix scans against whole-prefix references, at block boundaries.

Every l2 prefix scan walks ``BlockTail.tail_blocks``, which hands the
generator at most ``_MAP_BLOCK`` indices at a time.  The references below
evaluate the whole prefix with ``DiagSeq.values`` and reduce it in one go,
as the scans did before they were streamed; the streamed numbers must match
them exactly, and the scans must stay small in memory at N = 1e6.
"""

import math
import tracemalloc

import numpy as np
import pytest

from minatt.gap import (
    FLOAT_SLACK,
    _closed_form_dense,
    _g_ext,
    _tail_pairs,
    operator_gap_closed_form,
    operator_gap_diagonal,
)
from minatt.operators import (
    ConvergesTo,
    DeclaredAccumulation,
    DiagonalOp,
    InconclusiveError,
    RankOneTerm,
    Vec,
    add_rank_one,
    block_tail,
    diagonal_seq,
    named_diagonal,
    operator_norm,
    scale_shift,
)
from minatt.operators import (_MAP_BLOCK, _chordal, _chordal_window_dev, _common_support,
                              _euclid_window_dev)
from minatt.perturbation import (STRICT_MARGIN, attainment_perturbation, near_minimizer,
                                 verify_perturbation)
from minatt.spectral import _truncation_eigs, minimum_modulus

B = _MAP_BLOCK
PREFIXES = [B - 1, B, B + 1, 3 * B + 1]


def _spikes(a):
    # 1 + 1/n with ties for the minimum (0.5) on both sides of every block
    # boundary and the largest entries (2 + 1/n) at the multiples of B
    out = 1.0 + 1.0 / a
    out[a % B == 1] = 0.5
    out[a % B == 0] = 0.5
    out[(a % B == 0) & (a % (2 * B) == 0)] += 1.5
    return out


SPIKES = DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=_spikes))
TWO = DiagonalOp(diagonal_seq(None, DeclaredAccumulation((0.0, 1.0)),
                              vec_fn=lambda a: (a % 2) + 1.0 / a))


def _cases():
    for prefix in PREFIXES:
        for support in [(), (1,), (B, B + 1), (1, B, B + 1, prefix)]:
            yield pytest.param(prefix, support, id=f"{prefix}-{'-'.join(map(str, support))}")


CASES = list(_cases())


def _bumped(op, support, c=1.0):
    for i in support:
        op = add_rank_one(op, RankOneTerm(c, Vec.basis(i), Vec.basis(i)))
    return op


def _whole_tail(bt, n):
    """Indices 1..n off the support and the tail entries there, from one ``values`` call."""
    vals = bt.tail.values(n)
    keep = np.ones(n, dtype=bool)
    keep[[i - 1 for i in bt.support if i <= n]] = False
    return np.flatnonzero(keep) + 1, vals[keep]


@pytest.mark.parametrize("prefix, support", CASES)
def test_minimum_modulus_matches_whole_prefix(prefix, support):
    op = _bumped(SPIKES, support)
    cert = minimum_modulus(op, prefix=prefix)
    indices, vals = _whole_tail(block_tail(op), prefix)
    scan = np.abs(vals)
    if scan.min() > 1.0:  # every 0.5 in the prefix sits on the support
        assert (cert.value, cert.attained) == (1.0, False)
        return
    assert cert.attained
    assert cert.value == float(np.min(scan))
    assert cert.witness_index == indices[np.argmin(scan)]


@pytest.mark.parametrize("prefix, support", CASES)
def test_operator_norm_matches_whole_prefix(prefix, support):
    op = _bumped(SPIKES, support)
    bound = operator_norm(op, prefix=prefix)
    bt = block_tail(op)
    indices, vals = _whole_tail(bt, prefix)
    block = float(np.linalg.norm(bt.block, 2)) if bt.k else 0.0
    value = max(block, float(np.max(np.abs(vals))), 1.0)
    dev = _euclid_window_dev(vals[indices > prefix // 2], bt.tail.tail)
    assert bound.value == value
    assert bound.tail_slack == max(0.0, 1.0 + dev - value)


@pytest.mark.parametrize("prefix, support", CASES)
def test_truncation_eigs_match_whole_prefix(prefix, support):
    op = _bumped(SPIKES, support, c=-0.25)
    bt = block_tail(op)
    want = np.concatenate([np.linalg.eigvalsh(0.5 * (bt.block + bt.block.conj().T)),
                           _whole_tail(bt, prefix)[1].real])
    assert np.array_equal(_truncation_eigs(op, prefix), want)


def _gap_reference(s, t, prefix, route):
    """Gap value and tail bound from whole-prefix arrays."""
    bs, bt = _common_support(s, t)
    indices, sv = _whole_tail(bs, prefix)
    tv = _whole_tail(bt, prefix)[1]
    sd, td = np.diag(np.diag(bs.block)), np.diag(np.diag(bt.block))
    if route == "diagonal":
        part = float(np.max(_chordal(np.diag(sd), np.diag(td)), initial=0.0))
    else:
        part = _closed_form_dense(sd, td)
    g = _chordal(sv, tv)
    window = indices > prefix // 2
    prefix_part = max(part, float(np.max(g, initial=0.0)))
    pairs, exact = _tail_pairs(bs.tail, bt.tail)
    pair_max = max((_g_ext(a, b) for a, b in pairs), default=0.0)
    value = max(prefix_part, pair_max)
    if exact:
        overshoot = max(0.0, float(np.max(g[window], initial=-math.inf)) - pair_max)
        return value, overshoot + FLOAT_SLACK
    dev = _chordal_window_dev(sv[window], bs.tail.tail) + \
        _chordal_window_dev(tv[window], bt.tail.tail)
    return value, (value - prefix_part) + dev + FLOAT_SLACK


PAIRS = {
    # one root: the limit pairs are exact
    "shared-root": (SPIKES, scale_shift(SPIKES, 1.0, 0.25)),
    # unrelated roots with two accumulation points each: the window deviations count
    "unrelated": (TWO, named_diagonal("alternating01")),
}


@pytest.mark.parametrize("route", ["diagonal", "closed_form"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("prefix, support", CASES)
def test_gap_routes_match_whole_prefix(prefix, support, pair, route):
    s, t = PAIRS[pair]
    s = _bumped(s, support, c=0.75)
    gap = operator_gap_diagonal if route == "diagonal" else operator_gap_closed_form
    res = gap(s, t, prefix=prefix)
    assert (res.value, res.tail_bound) == _gap_reference(s, t, prefix, route)


def _near_minimizer_reference(op, epsilon, prefix, scan_limit):
    """First qualifying index, rescanning 1..n from scratch for doubling n."""
    threshold = minimum_modulus(op, prefix=prefix).value + epsilon / 2.0
    bt = block_tail(op)
    n = prefix
    while True:
        indices, vals = _whole_tail(bt, n)
        hits = np.flatnonzero(vals.real < threshold - STRICT_MARGIN)
        if hits.size:
            return int(indices[hits[0]])
        if n >= scan_limit:
            return threshold
        n = min(scan_limit, 2 * n)


@pytest.mark.parametrize("witness", [B, B + 1, 2 * B + 1, 3 * B + 1])
@pytest.mark.parametrize("prefix, support", CASES)
def test_near_minimizer_matches_whole_prefix(prefix, support, witness):
    # on diag(1 + 1/n) the first index with 1/n < eps/2 is the witness, so
    # the scan crosses block boundaries and, past the prefix, doubling windows
    op = _bumped(named_diagonal("one_plus_inv_n"), support)
    epsilon = 2.0 / (witness - 0.5)
    for scan_limit in (10 ** 7, B + 2):
        want = _near_minimizer_reference(op, epsilon, prefix, scan_limit)
        if isinstance(want, int):
            assert near_minimizer(op, epsilon, prefix=prefix, scan_limit=scan_limit) == \
                Vec.basis(want)
            continue
        with pytest.raises(InconclusiveError) as err:
            near_minimizer(op, epsilon, prefix=prefix, scan_limit=scan_limit)
        assert (err.value.lower, err.value.upper) == (1.0, want)
        assert str(err.value) == \
            f"no entry below m + eps/2 within the first {scan_limit} indices"


def test_tail_blocks_skip_the_support_block_by_block():
    bt = block_tail(_bumped(SPIKES, (1, B, B + 1, 3 * B)))
    blocks = list(bt.tail_blocks(3 * B + 1, start=B))
    assert all(0 < indices.size <= B for indices, _ in blocks)
    indices = np.concatenate([indices for indices, _ in blocks])
    assert np.array_equal(indices, np.setdiff1d(np.arange(B, 3 * B + 2), bt.support))
    assert np.array_equal(np.concatenate([vals for _, vals in blocks]),
                          bt.tail.values_at(indices))
    assert list(bt.tail_blocks(B - 1, start=B)) == []


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_prefix_scans_hold_one_block_at_n_1e6():
    # a whole complex prefix alone is 15.3 MiB at N = 1e6; the scans used to
    # peak at 30 to 61 MiB
    n = 10 ** 6
    t = named_diagonal("one_plus_inv_n")
    bumped = _bumped(t, (5,), c=-0.5)

    def construct_and_verify():
        assert verify_perturbation(t, attainment_perturbation(t, 0.1, prefix=n), prefix=n).passed

    calls = {
        "minimum_modulus": lambda: minimum_modulus(bumped, prefix=n),
        "operator_norm": lambda: operator_norm(bumped, prefix=n),
        "operator_gap_diagonal": lambda: operator_gap_diagonal(bumped, t, prefix=n),
        "operator_gap_closed_form": lambda: operator_gap_closed_form(bumped, t, prefix=n),
        "construct + verify": construct_and_verify,
    }
    peaks = {name: _peak_mib(fn) for name, fn in calls.items()}
    assert max(peaks.values()) < 16, peaks
