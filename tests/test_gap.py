"""Gap metric: graph, closed-form and diagonal routes must tell one story."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minatt.operators import (
    DEFAULT_PREFIX,
    DiagonalOp,
    DiagSeq,
    MatrixOp,
    RankOneTerm,
    SumOp,
    UnboundedOperatorError,
    Vec,
    add_operators,
    add_rank_one,
    compose_operators,
    constant_seq,
    named_diagonal,
    operator_from_json,
    operator_norm,
    scale_shift,
    truncate,
)
from minatt.operators import (_MAP_BLOCK, _adjoint_range, _common_support, _dense, block_tail,
                              block_tail_op)
from minatt import gap, operators
from minatt.perturbation import attainment_perturbation, verify_perturbation
from minatt.spectral import minimum_modulus, polar
from minatt.gap import (
    _KERNELS,
    ROUTE_AGREE_TOL,
    GapResult,
    _certify_tail,
    _closed_form_dense,
    _gap,
    _graph_gap,
    _perturbation_gap,
    defect_resolvent,
    gap_upper_bound_check,
    operator_gap_closed_form,
    operator_gap_diagonal,
    operator_gap_graph,
    subspace_gap,
)
from minatt.scenario import load_config, run_scenario

INV_SQRT2 = math.sqrt(0.5)


def _rand(rng, n, m=None, cplx=True):
    m = n if m is None else m
    a = rng.standard_normal((n, m))
    if cplx:
        a = a + 1j * rng.standard_normal((n, m))
    return a


def _chordal(a, b):
    return abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


# ---------------------------------------------------------------------------
# Subspace gap
# ---------------------------------------------------------------------------


def test_subspace_gap_of_a_line_at_45_degrees():
    a = np.array([[1.0], [0.0]])
    b = np.array([[1.0], [1.0]]) / math.sqrt(2)
    assert abs(subspace_gap(a, b).value - INV_SQRT2) < 1e-12


def test_subspace_gap_extremes():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_gap(e1, e1).value == 0.0
    assert abs(subspace_gap(e1, e2).value - 1.0) < 1e-12


def test_subspace_gap_accepts_vec_bases():
    got = subspace_gap([Vec.basis(1, dim=2)],
                       [Vec.from_dense([1.0, 1.0]).scale(1 / math.sqrt(2))])
    assert abs(got.value - INV_SQRT2) < 1e-12


def test_subspace_gap_requires_orthonormal_columns():
    with pytest.raises(ValueError):
        subspace_gap(np.array([[2.0], [0.0]]), np.array([[1.0], [0.0]]))


def test_subspace_gap_of_unequal_dimensions_is_one():
    # a projection difference between spaces of unequal dimension has norm 1
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        da = int(rng.integers(1, n))
        db = int(rng.integers(da + 1, n + 1))
        qa, _ = np.linalg.qr(_rand(rng, n, da))
        qb, _ = np.linalg.qr(_rand(rng, n, db))
        assert abs(subspace_gap(qa, qb).value - 1.0) < 1e-10


def test_subspace_gap_range_and_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        qa, _ = np.linalg.qr(_rand(rng, n, int(rng.integers(1, n + 1))))
        qb, _ = np.linalg.qr(_rand(rng, n, int(rng.integers(1, n + 1))))
        one = subspace_gap(qa, qb).value
        two = subspace_gap(qb, qa).value
        assert one == two  # bitwise, not just close
        assert -1e-12 <= one <= 1.0 + 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12), st.sampled_from([None, 0.0, 1e-9, 1e-3]),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_subspace_gap_matches_the_projection_difference(n, da, db, near, seed):
    # near is None: unrelated spans of dimensions da and db; otherwise the
    # second span tilts the first by about near, so the gap is that small
    rng = np.random.default_rng(seed)
    da, db = min(da, n), min(db, n)
    qa, _ = np.linalg.qr(_rand(rng, n, da))
    if near is None:
        qb, _ = np.linalg.qr(_rand(rng, n, db))
    else:
        qb, _ = np.linalg.qr(qa + near * _rand(rng, n, da))
    expect = float(np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2))
    value = subspace_gap(qa, qb).value
    assert abs(value - expect) < 1e-12
    assert subspace_gap(qb, qa).value == value


def _decomposition_widths(monkeypatch):
    # the width of every svd, eigh, eigvalsh and qr; numpy.linalg.norm calls
    # them through its own module's globals, so those names are watched as
    # well as the public ones
    widths = []
    watched = inspect.unwrap(np.linalg.norm).__globals__
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            widths.append(np.shape(a)[-1])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
        monkeypatch.setitem(watched, name, spy)
    return widths


def test_graph_gap_forms_no_projection(monkeypatch):
    rng = np.random.default_rng(71)
    n = 64
    a = _rand(rng, n)
    widths = _decomposition_widths(monkeypatch)
    operator_gap_graph(MatrixOp(a), MatrixOp(a + 0.3 * _rand(rng, n)))
    assert widths and max(widths) <= n


def test_subspace_gap_forms_no_projection(monkeypatch):
    rng = np.random.default_rng(73)
    qa, _ = np.linalg.qr(_rand(rng, 256, 64))
    qb, _ = np.linalg.qr(_rand(rng, 256, 64))
    widths = _decomposition_widths(monkeypatch)
    subspace_gap(qa, qb)
    assert widths and max(widths) <= 64


# ---------------------------------------------------------------------------
# Graph route on matrices
# ---------------------------------------------------------------------------


def test_routes_agree_on_a_nearby_pair():
    # a gap of about 1e-13 is taken from residuals, so both routes resolve it
    rng = np.random.default_rng(77)
    a = _rand(rng, 64)
    s, t = MatrixOp(a), MatrixOp(a + 1e-13 * _rand(rng, 64))
    graph, closed = operator_gap_graph(s, t).value, operator_gap_closed_form(s, t).value
    assert 0.0 < graph < 1e-11
    assert abs(graph - closed) <= ROUTE_AGREE_TOL


def test_graph_gap_of_identical_operators_is_zero():
    op = MatrixOp(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert operator_gap_graph(op, op).value == 0.0


def test_graph_gap_of_scaled_identities():
    # theta(0, lam*I) = lam / sqrt(1 + lam^2)
    for lam in (0.0, 1.0, 10.0):
        z = MatrixOp(np.zeros((3, 3)))
        t = MatrixOp(lam * np.eye(3))
        expect = lam / math.sqrt(1.0 + lam * lam)
        assert abs(operator_gap_graph(z, t).value - expect) < 1e-10
        assert abs(operator_gap_closed_form(z, t).value - expect) < 1e-10


def test_graph_gap_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        operator_gap_graph(MatrixOp(np.eye(2)), MatrixOp(np.eye(3)))
    with pytest.raises(ValueError):
        operator_gap_graph(MatrixOp(np.eye(2)), named_diagonal("inv_n"))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_graph_and_closed_form_agree_on_random_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    cplx = bool(rng.integers(0, 2))
    a, b = MatrixOp(_rand(rng, n, cplx=cplx)), MatrixOp(_rand(rng, n, cplx=cplx))
    g = operator_gap_graph(a, b).value
    c = operator_gap_closed_form(a, b).value
    assert abs(g - c) < 1e-8
    assert operator_gap_graph(b, a).value == g
    assert -1e-12 <= g <= 1.0 + 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_closed_form_kernel_matches_graph_kernel(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, rows, cols), _rand(rng, rows, cols)
    assert abs(_closed_form_dense(a, b) - _graph_gap(a, b)) <= 1e-12


def _svd_spy(monkeypatch, shape):
    # the operands of every svd of ``shape``, numpy.linalg.norm's own included
    operands, real = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        if np.shape(a) == shape:
            operands.append(np.array(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", spy)
    return operands


def test_a_dense_gap_round_factors_each_operator_once(monkeypatch):
    # one round of the dense-gap questions at n = 256: the closed form reads ta's and tb's
    # cached SVDs, so only T + S, new in each round's verification, is factored again
    rng = np.random.default_rng(5)
    n = 256
    a = _rand(rng, n) / math.sqrt(2)
    ta, tb = MatrixOp(a), MatrixOp(a + 0.3 * _rand(rng, n) / math.sqrt(2))
    q1 = np.linalg.qr(_rand(rng, n, n // 4))[0]
    q2 = np.linalg.qr(q1 + 0.5 * _rand(rng, n, n // 4) / math.sqrt(n))[0]
    operands = _svd_spy(monkeypatch, (n, n))
    counts = []
    for _ in range(3):
        start = len(operands)
        graph = operator_gap_graph(ta, tb).value
        assert abs(operator_gap_closed_form(ta, tb).value - graph) <= ROUTE_AGREE_TOL
        subspace_gap(q1, q2)
        minimum_modulus(ta)
        polar(ta)
        res = attainment_perturbation(ta, 0.05)
        assert verify_perturbation(ta, res).passed
        counts.append(len(operands) - start)
        assert np.array_equal(operands[-1], _dense(add_operators(ta, res.perturbation)))
    assert counts == [3, 1, 1]
    assert np.array_equal(operands[0], ta.array) and np.array_equal(operands[1], tb.array)
    operands.clear()
    operator_gap_closed_form(ta, tb)
    assert operands == []


@st.composite
def _matrix_pairs(draw):
    """Two square, tall or wide complex matrices of one shape, or one matrix twice."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    a = _rand(rng, rows, cols)
    if draw(st.booleans()):
        return a, a
    return a, a + draw(st.sampled_from((1e-6, 0.3, 3.0))) * _rand(rng, rows, cols)


_CACHE_FILLERS = {"minimum_modulus": minimum_modulus, "polar": polar,
                  "gap": lambda op: operator_gap_closed_form(op, op), "none": lambda op: None}


@given(_matrix_pairs(), st.sampled_from(sorted(_CACHE_FILLERS)), st.booleans())
def test_closed_form_from_the_cached_svd_is_the_dense_kernel(pair, filler, same):
    # op.svd is the SVD the dense kernel takes, so the closed form keeps its bits whichever
    # reader filled the cache first, also with one operator on both sides
    s = MatrixOp(pair[0])
    t = s if same else MatrixOp(pair[1])
    for op in (s, t):
        _CACHE_FILLERS[filler](op)
    expect = _closed_form_dense(_dense(s), _dense(t))
    assert operator_gap_closed_form(s, t).value == expect
    assert operator_gap_closed_form(s, t).value == expect


@pytest.mark.parametrize("top", [1e2, 1e4, 1e6, 1e8])
def test_closed_form_on_graded_matrices(top):
    # S acts where T is smallest; I + T*T squares T's condition number, and
    # solving with it put the closed form 2.6e-4 off the graph route at 1e8
    rng = np.random.default_rng(37)
    n = 32
    u, v = (np.linalg.qr(_rand(rng, n))[0] for _ in range(2))
    t = (u * np.logspace(-2, np.log10(top), n)) @ v.conj().T
    s = 0.05 * np.outer(u[:, 0], v[:, 0].conj())
    closed = operator_gap_closed_form(MatrixOp(t + s), MatrixOp(t)).value
    assert abs(closed - operator_gap_graph(MatrixOp(t + s), MatrixOp(t)).value) <= 1e-8


def test_gap_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        cplx = bool(rng.integers(0, 2))
        a, b, c = (MatrixOp(_rand(rng, n, cplx=cplx)) for _ in range(3))
        ac = operator_gap_graph(a, c).value
        ab = operator_gap_graph(a, b).value
        bc = operator_gap_graph(b, c).value
        assert ac <= ab + bc + 1e-9


# ---------------------------------------------------------------------------
# Finite-rank certificate of gap(T + S, T)
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
def test_finite_rank_gap_matches_the_whole_graph_gap(rows, cols, rank, seed):
    # S = U diag(c) V* of rank k <= 3 next to a T with rows != cols allowed;
    # the gap from range(S*) must be the gap of the two whole graphs
    rng = np.random.default_rng(seed)
    k = min(rank, rows, cols)
    t = _rand(rng, rows, cols)
    u = np.linalg.qr(_rand(rng, rows, max(k, 1)))[0][:, :k]
    v = np.linalg.qr(_rand(rng, cols, max(k, 1)))[0][:, :k]
    s = (u * rng.uniform(0.05, 2.0, k)) @ v.conj().T
    norm, gap = _perturbation_gap(MatrixOp(t), MatrixOp(s), MatrixOp(t + s), DEFAULT_PREFIX)
    assert gap.route == "graph" and gap.tail_bound == 0.0
    assert abs(norm.value - np.linalg.norm(s, 2)) <= 1e-12
    if k == 0:
        assert gap.value == 0.0 and norm.value == 0.0
    else:
        assert abs(gap.value - _graph_gap(t + s, t)) <= 1e-12


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=3), st.booleans(), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_factored_norm_and_range_match_a_dense_svd(rows, cols, k, dependent, zero, seed):
    # S = sum a_i y_i x_i* over a zero base is read off its terms; a repeated
    # x_i and a zero a_i leave range(S*) smaller than the span of the x_i.
    # On l2 only ||S|| is needed, and operator_norm gives it
    rng = np.random.default_rng(seed)
    xs, ys = ([v / np.linalg.norm(v) for v in _rand(rng, n, k).T] for n in (cols, rows))
    coeffs = rng.uniform(0.05, 2.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    if dependent and k > 1:
        xs[1] = 1j * xs[0]
    if zero:
        coeffs[-1] = 0.0
    dense = sum(c * np.outer(y, x.conj()) for c, x, y in zip(coeffs, xs, ys))
    _, sv, vh = np.linalg.svd(dense)
    r = int(np.count_nonzero(sv > 1e-13 * max(1.0, sv[0])))
    projector = vh[:r].conj().T @ vh[:r]
    # the same terms on a matrix, and on l2 coordinates spread over 1..1e6
    # (left on one set of indices, right on another)
    at = np.sort(rng.choice(np.arange(1, 10 ** 6), rows + cols, replace=False))
    left = at[rng.permutation(rows + cols)[:cols]]
    right = np.setdiff1d(at, left)
    for l2 in (False, True):
        def vec(v, where):
            return Vec(tuple(zip(np.sort(where).tolist(), v.tolist())), None) if l2 \
                else Vec.from_dense(v)
        terms = tuple(RankOneTerm(c, vec(x, left), vec(y, right))
                      for c, x, y in zip(coeffs, xs, ys))
        if l2:
            norm = operator_norm(SumOp(DiagonalOp(constant_seq(0.0)), 0.0, terms))
            assert abs(norm.value - sv[0]) <= 1e-12 * max(1.0, sv[0])
            assert norm.tail_slack == 0.0
            continue
        norm, basis = _adjoint_range(SumOp(MatrixOp(np.zeros((rows, cols))), 0.0, terms))
        assert abs(norm.value - sv[0]) <= 1e-12 * max(1.0, sv[0])
        assert basis.shape[1] == r
        np.testing.assert_allclose(basis @ basis.conj().T, projector, atol=1e-9)


@pytest.mark.parametrize("top", [1e2, 1e8])
def test_finite_rank_gap_of_a_graded_matrix(top):
    # S acts where T is smallest; at sigma_max = 1e8 the normal equations
    # I + T*T lose every digit (0.2 off), so the whole graphs are compared
    rng = np.random.default_rng(37)
    n = 32
    u, v = (np.linalg.qr(_rand(rng, n))[0] for _ in range(2))
    t = (u * np.logspace(-2, np.log10(top), n)) @ v.conj().T
    s = 0.05 * np.outer(u[:, 0], v[:, 0].conj())
    _, gap = _perturbation_gap(MatrixOp(t), MatrixOp(s), MatrixOp(t + s), DEFAULT_PREFIX)
    assert abs(gap.value - _graph_gap(t + s, t)) <= 1e-12


# ---------------------------------------------------------------------------
# Diagonal route with certified tails
# ---------------------------------------------------------------------------


def test_diagonal_gap_same_generator_is_zero():
    a = named_diagonal("alternating01")
    b = named_diagonal("alternating01")
    r = operator_gap_diagonal(a, b)
    assert r.value == 0.0
    assert r.tail_bound < 1e-9


def test_diagonal_gap_periodic_vs_zero():
    r = operator_gap_diagonal(named_diagonal("alternating01"), named_diagonal("const:0"))
    assert abs(r.value - INV_SQRT2) < 1e-12
    assert r.tail_bound < 1e-9


def test_diagonal_gap_scaled_identities():
    for lam in (0.0, 1.0, 10.0):
        r = operator_gap_diagonal(named_diagonal("const:0"), named_diagonal(f"const:{lam}"))
        assert abs(r.value - lam / math.sqrt(1 + lam * lam)) < 1e-10
        assert r.tail_bound < 1e-9


def test_diagonal_gap_certifies_rank_one_change():
    t = named_diagonal("inv_n")
    s = SumOp(named_diagonal("inv_n"), 0.25,
              (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    r = operator_gap_diagonal(s, t, prefix=10_000)
    # entries converge to (0.25, 0), so the sup is the limit pair value
    assert abs(r.value - 0.25 / math.sqrt(1.0625)) < 1e-10
    assert r.tail_bound < 1e-9
    assert r.route == "diagonal" and r.truncation == 10_000


def test_closed_form_matches_diagonal_route_on_l2_pairs():
    t = named_diagonal("inv_n")
    s = SumOp(named_diagonal("inv_n"), 0.25,
              (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    d = operator_gap_diagonal(s, t, prefix=2000)
    c = operator_gap_closed_form(s, t, prefix=2000)
    assert abs(d.value - c.value) < 1e-10


def test_divergent_pair_with_bounded_offset():
    t = named_diagonal("linear_n")
    s = scale_shift(t, 1.0, 0.25)
    r = operator_gap_diagonal(s, t)
    # chordal distance of (n + 1/4, n) dies off like 1/n^2: the sup sits
    # at the first entry
    assert abs(r.value - _chordal(1.25, 1.0)) < 1e-12
    assert r.tail_bound < 1e-6


def test_diagonal_route_needs_aligned_entries():
    off = SumOp(named_diagonal("inv_n"), 0.0,
                (RankOneTerm(1.0, Vec.basis(1), Vec.basis(2)),))
    with pytest.raises(ValueError):
        operator_gap_diagonal(off, named_diagonal("inv_n"))
    with pytest.raises(ValueError):
        operator_gap_diagonal(MatrixOp(np.eye(2)), named_diagonal("inv_n"))
    with pytest.raises(ValueError):
        operator_gap_diagonal(MatrixOp(np.eye(2)), MatrixOp(np.eye(2)))


def test_pairs_at_infinity_are_a_full_gap():
    # diag(n) runs to infinity while diag(1/n) runs to 0, whose chordal distance is 1
    linear, vanish = named_diagonal("linear_n"), named_diagonal("inv_n")
    for route in (operator_gap_diagonal, operator_gap_graph):
        for s, t in ((linear, vanish), (vanish, linear)):
            r = route(s, t)
            assert r.value == 1.0
            assert r.tail_bound == 1e-12


def test_auto_gap_takes_the_graph_kernel_on_matrices():
    a, b = MatrixOp(np.eye(2)), MatrixOp(np.zeros((2, 2)))
    r = _gap(a, b, "auto", None)
    assert r.route == "graph" and r.truncation is None
    assert r.value == operator_gap_graph(a, b).value


@pytest.mark.parametrize("route", ["auto", "graph", "closed_form", "diagonal"])
def test_gap_refuses_mixed_pairs(route):
    with pytest.raises(ValueError):
        _gap(MatrixOp(np.eye(2)), named_diagonal("inv_n"), route, DEFAULT_PREFIX)
    with pytest.raises(ValueError):
        _gap(named_diagonal("inv_n"), MatrixOp(np.eye(2)), route, DEFAULT_PREFIX)


def test_graph_truncations_see_exactly_the_scanned_prefix():
    # the graph route splits the pair like the diagonal route does, so on
    # diagonal blocks both take the same scanned prefix and certified tail
    t = named_diagonal("inv_n")
    s = SumOp(named_diagonal("inv_n"), 0.25,
              (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    for n in (100, 400):
        graph_n = operator_gap_graph(s, t, prefix=n)
        diagonal_n = operator_gap_diagonal(s, t, prefix=n)
        assert abs(graph_n.value - diagonal_n.value) < 1e-12
        assert math.isfinite(graph_n.tail_bound)
        assert graph_n.truncation == n


# ---------------------------------------------------------------------------
# Pairs that share one tail
# ---------------------------------------------------------------------------

N_LONG = 1_000_000


def _tail_entries(monkeypatch, support=(5,), roots_only=False):
    """Entries any sequence hands out off ``support``, counted at DiagSeq.values_at;
    with ``roots_only``, only those a root generator computes."""
    seen = [0]
    real = DiagSeq.values_at

    def spy(self, indices):
        if self.gen is not None or not roots_only:
            seen[0] += int(np.count_nonzero(~np.isin(indices, support)))
        return real(self, indices)
    monkeypatch.setattr(DiagSeq, "values_at", spy)
    return seen


def _scanned(s, t, route, prefix):
    """The GapResult the tail scan certifies for an l2 pair, run directly."""
    bs, bt = _common_support(s, t)
    value, bound = _certify_tail(_KERNELS[route](bs.block, bt.block), bs, bt, prefix)
    return GapResult(value, route, prefix, bound)


def _bumped(op, c, index=5):
    return add_rank_one(op, RankOneTerm(c, Vec.basis(index), Vec.basis(index)))


@pytest.mark.parametrize("name, c", [("one_plus_inv_n", -0.6), ("linear_n", 0.7)])
def test_pairs_with_one_tail_read_no_tail_entry(monkeypatch, name, c):
    # the bump and the bare diagonal share one DiagSeq off e_5, where every
    # 1 x 1 summand of the two graphs is the same, so the tail's gap is 0
    t = named_diagonal(name)
    s = _bumped(t, c)
    seen = _tail_entries(monkeypatch)
    results = [operator_gap_graph(s, t, prefix=N_LONG),
               operator_gap_closed_form(s, t, prefix=N_LONG),
               operator_gap_diagonal(s, t, prefix=N_LONG),
               _gap(s, t, "auto", N_LONG)]
    report = gap_upper_bound_check(s, t, prefix=N_LONG)
    assert seen[0] == 0
    monkeypatch.undo()
    assert [r.route for r in results] == ["graph", "closed_form", "diagonal", "diagonal"]
    for res in results:
        assert res == _scanned(s, t, res.route, N_LONG)
    assert report.gap == results[-1]
    assert abs(report.diff_norm.value - abs(c)) <= 4 * np.spacing(abs(c))
    assert report.diff_norm.tail_slack == 0.0 and report.holds


def test_scenario_gap_over_one_generator_reads_no_tail_entry(monkeypatch):
    base = {"variant": "diagonal", "generator": "one_plus_inv_n"}
    routes = ("auto", "graph", "closed_form", "diagonal")
    config = load_config({
        "operators": {"drop": base,
                      "bumped": {"variant": "sum", "base": base, "shift": 0.0, "terms": [
                          {"coeff": -0.6, "left": {"basis": 5}, "right": {"basis": 5}}]}},
        "defaults": {"truncationN": N_LONG},
        "experiments": [{"kind": "gap", "name": route, "left": "bumped", "right": "drop",
                         "route": route} for route in routes]})
    seen = _tail_entries(monkeypatch)
    records = run_scenario(config).records
    assert seen[0] == 0
    monkeypatch.undo()
    s, t = config.operators["bumped"], config.operators["drop"]
    for record in records:
        assert record.passed
        route = "diagonal" if record.name == "auto" else record.name
        assert record.detail == {route: _scanned(s, t, route, N_LONG).to_json_dict()}


def test_tails_that_are_not_one_sequence_are_scanned(monkeypatch):
    # equal entries are not enough: two maps of one generator are two
    # sequences, and so is a registry generator reloaded with its own tail;
    # both pairs share a root, which the scan reads once per index
    t = named_diagonal("one_plus_inv_n")
    reloaded = operator_from_json({"variant": "diagonal", "generator": "one_plus_inv_n",
                                   "tail": {"kind": "declared", "points": [1.0]}})
    n = 10_000
    for s, other in ((_bumped(scale_shift(t, 1.0, 0.0), -0.6), scale_shift(t, 1.0, 0.0)),
                     (_bumped(reloaded, -0.6), t)):
        scans = []
        certify = gap._certify_tail
        monkeypatch.setattr(gap, "_certify_tail",
                            lambda *args: scans.append(args) or certify(*args))
        seen = _tail_entries(monkeypatch, roots_only=True)
        res = _gap(s, other, "auto", n)
        assert len(scans) == 1 and seen[0] == n - 1
        monkeypatch.undo()
        assert res == _scanned(s, other, "diagonal", n)


@pytest.mark.parametrize("name", ["one_plus_inv_n", "linear_n"])
def test_a_shared_root_is_read_once_per_block(monkeypatch, name):
    # alpha t + beta against t + (a t + b), as in the benchmark's derived gap pairs: the scan
    # hands each block of indices to the root generator once, and certifies the numbers the
    # zipped scan of the two tails, one read of the root per side, certifies
    seq = named_diagonal(name).seq
    calls = []

    def gen(indices):
        if indices.size:  # the empty supports' blocks read no entry
            calls.append(np.array(indices))
        return seq.gen(indices)
    t = DiagonalOp(replace(seq, gen=gen))
    d, s = scale_shift(t, 1.5, 0.25), add_operators(t, scale_shift(t, 0.5, 0.75))
    n = 300_000
    res = operator_gap_diagonal(d, s, prefix=n)
    bd = _common_support(d, s)[0]
    blocks = list(bd.tail_indices(n // 2)) + list(bd.tail_indices(n, n // 2 + 1))
    assert len(calls) == len(blocks) and all(map(np.array_equal, calls, blocks))
    assert max(ix.size for ix in calls) == _MAP_BLOCK
    monkeypatch.setattr(operators, "shared_root", lambda a, b: None)
    assert res == operator_gap_diagonal(d, s, prefix=n)
    assert len(calls) == 3 * len(blocks)


def test_finite_rank_operators_over_separate_zero_bases_take_the_block_rule(monkeypatch):
    a = SumOp(named_diagonal("const:0"), 0j, (RankOneTerm(0.5, Vec.basis(2), Vec.basis(3)),))
    b = SumOp(named_diagonal("const:0"), 0j, (RankOneTerm(-0.25, Vec.basis(3), Vec.basis(3)),))
    assert a.base.seq is not b.base.seq
    scans = []
    monkeypatch.setattr(gap, "_certify_tail", lambda *args: scans.append(args))
    res = _gap(a, b, "auto", N_LONG)
    report = gap_upper_bound_check(a, b, prefix=N_LONG)
    assert scans == []
    monkeypatch.undo()
    assert res.route == "graph" and res == _scanned(a, b, "graph", N_LONG)
    assert report.diff_norm.value == np.linalg.norm([[0.0, 0.0], [0.5, 0.25]], 2)


# ---------------------------------------------------------------------------
# Defect resolvents
# ---------------------------------------------------------------------------


def test_defect_resolvents_of_a_matrix():
    arr = np.array([[1.0, 1.0], [0.0, 1.0]])
    d = defect_resolvent(MatrixOp(arr))
    np.testing.assert_allclose(d.check.array,
                               np.linalg.inv(np.eye(2) + arr.conj().T @ arr), atol=1e-13)
    np.testing.assert_allclose(d.hat.array,
                               np.linalg.inv(np.eye(2) + arr @ arr.conj().T), atol=1e-13)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_defect_resolvents_match_inverses(rows, cols, seed):
    a = _rand(np.random.default_rng(seed), rows, cols)
    d = defect_resolvent(MatrixOp(a))
    for got, gram in ((d.check.array, a.conj().T @ a), (d.hat.array, a @ a.conj().T)):
        expect = np.linalg.inv(np.eye(gram.shape[0]) + gram)
        assert np.max(np.abs(got - expect)) <= 1e-12
        assert np.max(np.abs(got - got.conj().T)) <= 1e-14


def test_defect_resolvents_read_the_cached_svd(monkeypatch):
    # on both spaces the resolvents come from op.svd, T's matrix's or its form block's, with
    # the bits of a fresh SVD of the same array
    rng = np.random.default_rng(43)
    x = Vec(((2, INV_SQRT2), (5, INV_SQRT2)), None)
    ops = (MatrixOp(_rand(rng, 5, 3)),
           add_rank_one(scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.5),
                        RankOneTerm(0.3 - 0.2j, x, Vec.basis(4))))
    for op in ops:
        arr = block_tail(op).block if op.is_l2 else _dense(op)
        u, sv, vh = np.linalg.svd(arr)
        r_u, r_v = np.ones(arr.shape[0]), np.ones(arr.shape[1])
        r_u[:sv.size] = r_v[:sv.size] = 1.0 / np.hypot(1.0, sv)
        minimum_modulus(op)
        seen = _svd_spy(monkeypatch, arr.shape)
        d = defect_resolvent(op)
        assert seen == []
        for got, expect in ((d.check, (vh.conj().T * r_v ** 2) @ vh),
                            (d.hat, (u * r_u ** 2) @ u.conj().T)):
            if op.is_l2:  # the l2 resolvent is block_tail_op of that block, with its own tail
                bt = block_tail(got)
                got, expect = bt.block, block_tail(block_tail_op(replace(bt, block=expect))).block
            else:
                got = got.array
            assert got.tobytes() == expect.tobytes()
        monkeypatch.undo()


def test_defect_product_norm_is_at_most_half():
    # ||T (I + T*T)^-1|| <= 1/2, with equality at T = I
    op = named_diagonal("const:1")
    d = defect_resolvent(op)
    assert operator_norm(compose_operators(op, d.check)).value == 0.5


def test_defect_products_bounded_by_half_on_random_matrices():
    rng = np.random.default_rng(31)
    for _ in range(20):
        t = MatrixOp(_rand(rng, int(rng.integers(1, 6))))
        d = defect_resolvent(t)
        assert operator_norm(compose_operators(t, d.check)).value <= 0.5 + 1e-12
        assert operator_norm(compose_operators(t.adjoint(), d.hat)).value <= 0.5 + 1e-12


def test_defect_tames_unbounded_diagonals():
    op = named_diagonal("linear_n")
    d = defect_resolvent(op)
    assert operator_norm(d.check).value <= 1.0 + 1e-12
    prod = compose_operators(op, d.check, at_infinity=0.0)
    assert abs(operator_norm(prod).value - 0.5) < 1e-12


def test_defect_of_block_tail_operator_matches_truncation():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(3), Vec.basis(3)),))
    d = defect_resolvent(op)
    n = 6
    tn = truncate(op, n).array
    np.testing.assert_allclose(truncate(d.check, n).array,
                               np.linalg.inv(np.eye(n) + tn.conj().T @ tn), atol=1e-12)


# ---------------------------------------------------------------------------
# Gap versus norm distance
# ---------------------------------------------------------------------------


def test_gap_is_bounded_by_norm_distance_matrices():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a, b = MatrixOp(_rand(rng, n)), MatrixOp(_rand(rng, n))
        rep = gap_upper_bound_check(a, b)
        assert rep.holds
        assert rep.margin >= -1e-10


def test_gap_is_bounded_by_norm_distance_l2():
    t = named_diagonal("inv_n")
    s = SumOp(named_diagonal("inv_n"), 0.25,
              (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    rep = gap_upper_bound_check(s, t)
    assert rep.holds
    assert abs(rep.diff_norm.value - 0.25) < 1e-12


def test_gap_bound_check_on_one_unbounded_tail():
    # diag(n) bumped on e_5 minus diag(n) is the bounded bump, although its
    # tail z + (-z) would be declared divergent; the next test keeps twice
    # diag(n) minus diag(n), which is diag(n) again, rejected
    lin = named_diagonal("linear_n")
    rep = gap_upper_bound_check(_bumped(lin, 0.7), lin)
    assert abs(rep.diff_norm.value - 0.7) <= 4 * np.spacing(0.7)
    assert rep.diff_norm.tail_slack == 0.0 and rep.holds


def test_gap_bound_check_rejects_unbounded_difference():
    t = named_diagonal("linear_n")
    s = scale_shift(t, 2.0, 0.0)
    with pytest.raises(UnboundedOperatorError):
        gap_upper_bound_check(s, t)


# ---------------------------------------------------------------------------
# Result serialisation
# ---------------------------------------------------------------------------


def test_gap_result_json_shape():
    r = operator_gap_diagonal(named_diagonal("alternating01"), named_diagonal("const:0"))
    doc = r.to_json_dict()
    assert set(doc) == {"value", "route", "truncationN", "tailBound"}
    assert doc["route"] == "diagonal"


def test_uncertified_tail_serialises_as_null():
    r = GapResult(0.5, "graph", 50, tail_bound=math.nan)
    assert r.to_json_dict()["tailBound"] is None
