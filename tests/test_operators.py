"""Vectors, declared-tail sequences and the representable operator algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minatt.operators import (
    ConvergesTo,
    DeclaredAccumulation,
    DiagonalOp,
    FiniteRange,
    MatrixOp,
    NotRepresentableError,
    Periodic,
    RankOneTerm,
    SumOp,
    UnboundedOperatorError,
    Vec,
    accumulation_points,
    add_operators,
    add_rank_one,
    block_tail,
    block_tail_op,
    check_tail_consistency,
    compose_operators,
    constant_seq,
    diagonal_seq,
    list_generators,
    map_seq,
    map_tail,
    named_diagonal,
    operator_from_json,
    operator_norm,
    operator_to_json,
    scalar_from_json,
    scalar_to_json,
    scale_shift,
    shared_root,
    tail_diverges,
    truncate,
    zero_like,
    zip_seqs,
)

RNG_SEED = 20260814


def _dense_of(op, n):
    cols = [op.apply(Vec.basis(j)).dense(n) for j in range(1, n + 1)]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Vec
# ---------------------------------------------------------------------------


def test_vec_basis_and_dense():
    v = Vec.basis(3)
    assert v.entries == ((3, 1 + 0j),)
    np.testing.assert_array_equal(v.dense(5), np.array([0, 0, 1, 0, 0], dtype=complex))


def test_vec_indices_are_one_based_and_increasing():
    with pytest.raises(ValueError):
        Vec(((0, 1.0),))
    with pytest.raises(ValueError):
        Vec(((2, 1.0), (1, 1.0)))
    with pytest.raises(ValueError):
        Vec(((1, 1.0), (1, 2.0)))


def test_vec_drops_zero_entries():
    v = Vec.from_dense([0.0, 2.0, 0.0, -1.0])
    assert v.entries == ((2, 2 + 0j), (4, -1 + 0j))
    assert v.dim == 4


def test_vec_dim_must_cover_support():
    with pytest.raises(ValueError):
        Vec(((3, 1.0),), dim=2)


def test_vec_norm_and_inner():
    a = Vec.from_dense([3.0, 4.0])
    assert a.norm() == 5.0
    b = Vec.from_dense([1.0, 1j])
    # linear in the first argument, conjugate-linear in the second
    assert a.inner(b) == 3 + 4 * (-1j)
    assert b.inner(a) == np.conj(a.inner(b))


def test_vec_inner_is_linear_in_first_argument():
    a = Vec.from_dense([1.0, 2.0, 0.0])
    b = Vec.from_dense([0.5, -1j, 2.0])
    lhs = a.scale(2 - 1j).inner(b)
    assert abs(lhs - (2 - 1j) * a.inner(b)) < 1e-14


def test_vec_add_and_scale():
    a = Vec.from_dense([1.0, 0.0, 2.0])
    b = Vec.from_dense([0.0, 1.0, -2.0])
    s = a.add(b)
    assert s.entries == ((1, 1 + 0j), (2, 1 + 0j))  # cancelled entry dropped
    assert (2.0 * a).entries == ((1, 2 + 0j), (3, 4 + 0j))


def test_vec_mismatched_dims_rejected():
    with pytest.raises(ValueError):
        Vec.from_dense([1.0, 2.0]).add(Vec.from_dense([1.0, 2.0, 3.0]))


def test_vec_conj():
    v = Vec.from_dense([1 + 2j, 3.0])
    assert v.conj().entries == ((1, 1 - 2j), (2, 3 + 0j))


def test_vec_dense_needs_room():
    v = Vec.basis(5)
    with pytest.raises(ValueError):
        v.dense(3)


# ---------------------------------------------------------------------------
# Tail declarations
# ---------------------------------------------------------------------------


def test_tail_accumulation_points():
    assert accumulation_points(ConvergesTo(2.0)) == (2 + 0j,)
    assert set(accumulation_points(Periodic((0.0, 1.0)))) == {0j, 1 + 0j}
    assert set(accumulation_points(FiniteRange((3.0, -1.0)))) == {3 + 0j, -1 + 0j}
    assert accumulation_points(DeclaredAccumulation((), True)) == ()


def test_tail_divergence_flag():
    assert tail_diverges(DeclaredAccumulation((), True))
    assert not tail_diverges(ConvergesTo(0.0))
    with pytest.raises(ValueError):
        DeclaredAccumulation((), False)  # empty and bounded says nothing


def test_declared_points_are_canonicalised():
    t1 = DeclaredAccumulation((1.0, 0.0))
    t2 = DeclaredAccumulation((0.0, 1.0))
    assert t1.points == t2.points


def test_map_tail_transforms_points():
    t = map_tail(Periodic((0.0, 1.0)), lambda z: 2 * z + 1)
    assert set(accumulation_points(t)) == {1 + 0j, 3 + 0j}
    assert not tail_diverges(t)


def test_map_tail_divergent_needs_instruction():
    t = DeclaredAccumulation((), True)
    with pytest.raises(NotRepresentableError):
        map_tail(t, lambda z: 1.0 / (1 + z))
    kept = map_tail(t, lambda z: 2 * z, at_infinity="diverges")
    assert tail_diverges(kept)
    squashed = map_tail(t, lambda z: 1.0 / (1 + abs(z) ** 2), at_infinity=0.0)
    assert accumulation_points(squashed) == (0j,)
    assert not tail_diverges(squashed)


# ---------------------------------------------------------------------------
# Lazy sequences
# ---------------------------------------------------------------------------


def test_values_match_pointwise_fn():
    seq = named_diagonal("one_plus_inv_n").seq
    vals = seq.values(10)
    expect = np.array([1.0 + 1.0 / n for n in range(1, 11)], dtype=complex)
    np.testing.assert_array_equal(vals, expect)


def test_registry_lookups_share_one_generator():
    a = named_diagonal("inv_n").seq
    b = named_diagonal("inv_n").seq
    assert shared_root(a, b) is not None


def test_constant_seq_round_trip():
    c = constant_seq(0.25)
    assert c.const_value == 0.25 + 0j
    np.testing.assert_array_equal(c.values(4), np.full(4, 0.25, dtype=complex))


def test_map_seq_tracks_root():
    base = named_diagonal("inv_n").seq
    doubled = map_seq(base, lambda z: 2 * z)
    np.testing.assert_allclose(doubled.values(6), 2 * base.values(6))
    z = zip_seqs(doubled, base, lambda x, y: x - y)
    np.testing.assert_allclose(z.values(6), base.values(6))
    assert accumulation_points(z.tail) == (0j,)


def test_zip_with_constant_is_always_allowed():
    base = named_diagonal("one_plus_inv_n").seq
    z = zip_seqs(base, constant_seq(1.0), lambda x, y: x - y)
    np.testing.assert_allclose(z.values(5), base.values(5) - 1.0)


def test_zip_unrelated_generators_rejected():
    a = diagonal_seq(lambda n: 1.0 / n, ConvergesTo(0.0))
    b = diagonal_seq(lambda n: 1.0 / n**2, ConvergesTo(0.0))
    with pytest.raises(NotRepresentableError):
        zip_seqs(a, b, lambda x, y: x + y)


def test_zip_respects_overriding_tail_declarations():
    base = named_diagonal("inv_n").seq
    # the phase of -(1/n) is -1 at every index; that map is discontinuous at
    # the root limit 0, which is exactly why the derived sequence carries its
    # own declaration instead of a pushed-through one
    phase = map_seq(base, lambda z: -z / abs(z), tail=FiniteRange((-1.0,)))
    shifted = zip_seqs(base, phase, lambda x, y: x + y)
    np.testing.assert_allclose(shifted.values(5), base.values(5) - 1.0)
    assert accumulation_points(shifted.tail) == (-1 + 0j,)
    assert not tail_diverges(shifted.tail)


def test_tail_consistency_accepts_registry_generators():
    for name in ("one_plus_inv_n", "inv_n", "alternating01", "linear_n"):
        assert check_tail_consistency(named_diagonal(name).seq, n=2000)


def test_tail_consistency_flags_growing_deviation():
    lying = diagonal_seq(lambda n: 1.0 - 1.0 / n, ConvergesTo(0.0))
    assert not check_tail_consistency(lying, n=2000)


def test_tail_consistency_flags_wrong_cycle():
    lying = diagonal_seq(lambda n: float((n - 1) % 2), Periodic((0.0, 2.0)))
    assert not check_tail_consistency(lying, n=2000)


def test_tail_consistency_finite_range_needs_every_point_visited():
    ok = diagonal_seq(lambda n: float((n - 1) % 2), FiniteRange((0.0, 1.0)))
    assert check_tail_consistency(ok, n=2000)
    unvisited = diagonal_seq(lambda n: 0.0, FiniteRange((0.0, 1.0)))
    assert not check_tail_consistency(unvisited, n=2000)


def test_tail_consistency_flags_misplaced_accumulation():
    lying = diagonal_seq(lambda n: 1.0 / n, DeclaredAccumulation((5.0,)))
    assert not check_tail_consistency(lying, n=2000)


@pytest.mark.parametrize("n", [2000, 10**4, 10**6])
def test_tail_consistency_accepts_slowly_shrinking_deviations(n):
    seqs = [named_diagonal(name).seq
            for name in ("one_plus_inv_n", "inv_n", "alternating01", "linear_n")]
    seqs.append(diagonal_seq(None, ConvergesTo(0.0), vec_fn=lambda a: 1.0 / np.sqrt(a)))
    seqs.append(diagonal_seq(None, ConvergesTo(0.0), vec_fn=lambda a: 1.0 / np.log(a + 1.0)))
    seqs.append(diagonal_seq(None, DeclaredAccumulation((0.0, 1.0)),
                             vec_fn=lambda a: (a % 2) + 1.0 / a))
    seqs.append(diagonal_seq(None, DeclaredAccumulation((0.0,), diverges_to_infinity=True),
                             vec_fn=lambda a: np.where(a % 2 == 1, a, 1.0 / a)))
    for seq in seqs:
        assert check_tail_consistency(seq, n=n)


def test_tail_consistency_flags_wrong_limit_of_a_converging_sequence():
    near = lambda a: 1.0 + 1.0 / a
    far = lambda a: 1e6 + 1.0 / a
    parity = lambda a: (a % 2) + 1.0 / a
    lies = [diagonal_seq(None, ConvergesTo(0.5), vec_fn=near),
            diagonal_seq(None, DeclaredAccumulation((0.5,)), vec_fn=near),
            # chordally 5e-13 from the truth, which is why finite points
            # are measured in the Euclidean distance
            diagonal_seq(None, ConvergesTo(1e6 + 0.5), vec_fn=far),
            diagonal_seq(None, DeclaredAccumulation((1e6 + 0.5,)), vec_fn=far),
            diagonal_seq(None, DeclaredAccumulation((0.0,)), vec_fn=parity),
            diagonal_seq(None, DeclaredAccumulation((), diverges_to_infinity=True),
                         vec_fn=parity),
            diagonal_seq(None, DeclaredAccumulation((0.0,)),
                         vec_fn=lambda a: np.where(a % 2 == 1, a, 1.0 / a))]
    for n in (2000, 10**4, 10**6):
        for lying in lies:
            assert not check_tail_consistency(lying, n=n)


def test_tail_override_that_misfits_the_generator_rejected_at_load():
    for tail in ({"kind": "converges_to", "limit": 0.5},
                 {"kind": "declared", "points": [0.5]}):
        doc = {"variant": "diagonal", "generator": "one_plus_inv_n", "tail": tail}
        with pytest.raises(ValueError, match="does not fit"):
            operator_from_json(doc)
    doc["tail"] = {"kind": "converges_to", "limit": 1.0}
    assert operator_from_json(doc).seq.tail == ConvergesTo(1.0)


def test_derived_sum_evaluates_its_generator_once_on_an_array():
    calls = []

    def gen(indices):
        calls.append(indices)
        return 1.0 + 1.0 / indices

    t = DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=gen))
    total = add_operators(t, scale_shift(t, 2, 0))
    calls.clear()
    n = 10**5
    vals = total.seq.values(n)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    want = 3.0 * (1.0 + 1.0 / np.arange(1, n + 1))
    np.testing.assert_allclose(vals, want, rtol=1e-15, atol=0)


def test_scalar_generator_sees_python_ints():
    seen = []
    seq = diagonal_seq(lambda n: seen.append(type(n)) or 1.0 / n, ConvergesTo(0.0))
    np.testing.assert_array_equal(seq.values(3), [1.0, 0.5, 1.0 / 3])
    assert seen == [int, int, int]


# ---------------------------------------------------------------------------
# Rank-one terms
# ---------------------------------------------------------------------------


def test_rank_one_requires_unit_vectors():
    with pytest.raises(ValueError):
        RankOneTerm(1.0, Vec.from_dense([2.0]), Vec.basis(1))


def test_rank_one_action_and_dense_agree():
    left = Vec.from_dense([1.0, 1.0]).scale(1 / math.sqrt(2))
    right = Vec.basis(3)
    term = RankOneTerm(2j, left, right)
    x = Vec.from_dense([1.0, -1.0, 0.5])
    applied = term.apply(x).dense(3)
    expect = term.dense(3) @ x.dense(3)
    np.testing.assert_allclose(applied, expect, atol=1e-14)


def test_rank_one_adjoint_reverses_inner_products():
    term = RankOneTerm(1 - 1j, Vec.basis(1), Vec.basis(2))
    x = Vec.from_dense([1.0, 2.0])
    y = Vec.from_dense([-1j, 0.5])
    lhs = term.apply(x).inner(y)
    rhs = x.inner(term.adjoint().apply(y))
    assert abs(lhs - rhs) < 1e-14


# ---------------------------------------------------------------------------
# Operator representations
# ---------------------------------------------------------------------------


def test_matrix_apply_frozen_example():
    op = MatrixOp(np.array([[1.0, 1.0], [0.0, 1.0]]))
    out = op.apply(Vec.from_dense([1.0, 1.0]))
    np.testing.assert_array_equal(out.dense(2), np.array([2, 1], dtype=complex))


def test_diagonal_apply_frozen_example():
    op = named_diagonal("one_plus_inv_n")
    out = op.apply(Vec.basis(5))
    np.testing.assert_allclose(out.dense(5)[4], 1.2)


def test_sum_apply_frozen_example():
    op = SumOp(named_diagonal("inv_n"), 0.25)
    out = op.apply(Vec.basis(4))
    np.testing.assert_allclose(out.dense(4)[3], 0.5)


def test_matrix_rejects_vectors_past_its_columns():
    op = MatrixOp(np.eye(2))
    with pytest.raises(ValueError):
        op.apply(Vec.basis(3))


def test_sum_base_cannot_nest():
    inner = SumOp(named_diagonal("inv_n"), 0.25)
    with pytest.raises(ValueError):
        SumOp(inner, 0.1)


def test_sum_support_must_fit_matrix_base():
    with pytest.raises(ValueError):
        SumOp(MatrixOp(np.eye(2)), 0.0, (RankOneTerm(1.0, Vec.basis(3), Vec.basis(1)),))


@given(st.integers(min_value=1, max_value=30))
def test_adjoint_is_an_involution_on_actions(i):
    op = SumOp(named_diagonal("inv_n"), 0.5 - 0.5j,
               (RankOneTerm(1j, Vec.basis(2), Vec.basis(7)),))
    x = Vec.basis(i)
    once = op.adjoint().adjoint().apply(x)
    direct = op.apply(x)
    np.testing.assert_allclose(once.dense(40), direct.dense(40), atol=1e-14)


def test_adjoint_pairs_with_inner_product():
    op = SumOp(named_diagonal("one_plus_inv_n"), 0.0,
               (RankOneTerm(2.0 + 1j, Vec.basis(1), Vec.basis(4)),))
    x = Vec.from_dense([1.0, 0.0, -1j, 2.0], dim=None)
    y = Vec.from_dense([0.5, 1.0, 0.0, 1j], dim=None)
    lhs = op.apply(x).inner(y)
    rhs = x.inner(op.adjoint().apply(y))
    assert abs(lhs - rhs) < 1e-13


def test_registry_contents():
    names = list_generators()
    for expected in ("one_plus_inv_n", "inv_n", "alternating01", "linear_n"):
        assert expected in names
    with pytest.raises(ValueError):
        named_diagonal("no_such_generator")


def test_const_generator_parses_scalars():
    op = named_diagonal("const:0.25")
    assert op.seq.const_value == 0.25 + 0j
    opj = named_diagonal("const:1j")
    assert opj.seq.const_value == 1j
    with pytest.raises(ValueError):
        named_diagonal("const:spam")


# ---------------------------------------------------------------------------
# Block (+) tail decomposition
# ---------------------------------------------------------------------------


def test_block_tail_is_exact_for_sums():
    cases = [
        ((RankOneTerm(-0.125, Vec.basis(3), Vec.basis(3)),), [3]),
        ((RankOneTerm(0.5, Vec(((2, 0.6), (7, 0.8j))), Vec.basis(3)),
          RankOneTerm(-0.25, Vec.basis(3), Vec.basis(3))), [2, 3, 7]),
    ]
    n = 8
    for terms, support in cases:
        op = SumOp(named_diagonal("inv_n"), 0.25, terms)
        bt = block_tail(op)
        assert list(bt.support) == support
        got = np.diag(bt.tail.values(n)).astype(complex)
        at = np.array(bt.support) - 1
        got[np.ix_(at, at)] = bt.block
        np.testing.assert_allclose(got, _dense_of(op, n), atol=1e-14)


def test_block_tail_round_trip_preserves_action():
    op = SumOp(named_diagonal("inv_n"), 0.0,
               (RankOneTerm(0.5, Vec.basis(2), Vec.basis(5)),
                RankOneTerm(-1j, Vec.basis(1), Vec.basis(1))))
    rebuilt = block_tail_op(block_tail(op))
    for i in (1, 2, 5, 9):
        x = Vec.basis(i)
        np.testing.assert_allclose(rebuilt.apply(x).dense(12), op.apply(x).dense(12),
                                   atol=1e-12)


def test_block_tail_requires_l2():
    with pytest.raises(NotRepresentableError):
        block_tail(MatrixOp(np.eye(2)))


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


def test_scale_shift_matches_dense_arithmetic():
    op = named_diagonal("inv_n")
    moved = scale_shift(op, -2.0, 1.0)
    n = 6
    np.testing.assert_allclose(_dense_of(moved, n), -2.0 * _dense_of(op, n) + np.eye(n),
                               atol=1e-14)


def test_add_rank_one_keeps_flat_structure():
    op = named_diagonal("inv_n")
    once = add_rank_one(op, RankOneTerm(1.0, Vec.basis(1), Vec.basis(1)))
    twice = add_rank_one(once, RankOneTerm(2.0, Vec.basis(2), Vec.basis(2)))
    assert isinstance(twice, SumOp) and len(twice.terms) == 2
    assert isinstance(twice.base, DiagonalOp)


def test_zero_like_matches_shape():
    z = zero_like(named_diagonal("inv_n"))
    assert z.is_l2
    zm = zero_like(MatrixOp(np.ones((2, 3))))
    np.testing.assert_array_equal(zm.array, np.zeros((2, 3)))


def test_add_operators_shared_generator():
    t = named_diagonal("inv_n")
    s = scale_shift(named_diagonal("inv_n"), 2.0, 0.1)
    total = add_operators(t, s)
    n = 7
    np.testing.assert_allclose(_dense_of(total, n), _dense_of(t, n) + _dense_of(s, n),
                               atol=1e-14)


def test_add_operators_unrelated_generators_rejected():
    a = DiagonalOp(diagonal_seq(lambda n: 1.0 / n, ConvergesTo(0.0)))
    b = DiagonalOp(diagonal_seq(lambda n: 1.0 / n**2, ConvergesTo(0.0)))
    with pytest.raises(NotRepresentableError):
        add_operators(a, b)


def test_compose_matches_dense_product():
    shifted = scale_shift(named_diagonal("inv_n"), 1.0, 1.0)  # 1 + 1/n, same root
    a = SumOp(shifted, 0.0, (RankOneTerm(0.5, Vec.basis(1), Vec.basis(2)),))
    b = named_diagonal("inv_n")
    prod = compose_operators(a, b)
    n = 6
    np.testing.assert_allclose(_dense_of(prod, n), _dense_of(a, n) @ _dense_of(b, n),
                               atol=1e-13)


def test_compose_unrelated_generators_rejected():
    a = named_diagonal("one_plus_inv_n")
    b = named_diagonal("inv_n")
    with pytest.raises(NotRepresentableError):
        compose_operators(a, b)


def test_compose_divergent_diagonal_with_decaying_one():
    a = named_diagonal("linear_n")
    b = DiagonalOp(map_seq(a.seq, lambda z: 1.0 / z, at_infinity=0.0))
    prod = compose_operators(a, b, at_infinity=1.0)
    np.testing.assert_allclose(prod.apply(Vec.basis(9)).dense(9)[8], 1.0)


def test_compose_with_zero_tail_factor_collapses_to_constant():
    base = named_diagonal("inv_n").seq
    phase = DiagonalOp(map_seq(base, lambda z: z / abs(z), tail=FiniteRange((1.0,))))
    cap = SumOp(zero_like(phase), 0.0, (RankOneTerm(0.5, Vec.basis(3), Vec.basis(3)),))
    prod = compose_operators(phase, cap)
    assert block_tail(prod).tail.const_value == 0
    n = 5
    np.testing.assert_allclose(_dense_of(prod, n), _dense_of(phase, n) @ _dense_of(cap, n),
                               atol=1e-13)
    # the zero tail keeps the product portable even though the phase is not
    operator_to_json(prod)


def test_truncate_is_the_exact_corner():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(2), Vec.basis(2)),))
    tr = truncate(op, 4)
    np.testing.assert_allclose(tr.array, _dense_of(op, 4), atol=1e-14)


def test_truncate_refuses_to_cut_through_terms():
    op = add_rank_one(named_diagonal("inv_n"),
                      RankOneTerm(1.0, Vec.basis(6), Vec.basis(6)))
    with pytest.raises(ValueError):
        truncate(op, 4)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def test_norm_of_supremum_generator_is_exact():
    nb = operator_norm(named_diagonal("one_plus_inv_n"))
    assert nb.value == 2.0
    assert nb.tail_slack == 0.0


def test_norm_of_single_rank_one_is_its_coefficient():
    term = RankOneTerm(-0.1, Vec.basis(21), Vec.basis(21))
    s = add_rank_one(zero_like(named_diagonal("inv_n")), term)
    nb = operator_norm(s)
    assert abs(nb.value - 0.1) <= 1e-15


def test_norm_unbounded_rejected():
    with pytest.raises(UnboundedOperatorError):
        operator_norm(named_diagonal("linear_n"))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_norm_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    arr = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nb = operator_norm(MatrixOp(arr))
    assert abs(nb.value - np.linalg.norm(arr, 2)) < 1e-10
    assert nb.tail_slack == 0.0


def test_norm_slack_brackets_declared_tail():
    # periodic tail: the sup over the cycle is achieved infinitely often
    nb = operator_norm(named_diagonal("alternating01"))
    assert nb.value == 1.0


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_scalar_json_round_trip():
    assert scalar_to_json(1.5) == 1.5
    assert scalar_to_json(1 + 2j) == [1.0, 2.0]
    assert scalar_from_json([1.0, 2.0]) == 1 + 2j
    with pytest.raises(ValueError):
        scalar_from_json("nope")


def test_matrix_json_round_trip():
    op = MatrixOp(np.array([[1.0, 2j], [0.0, -1.0]]))
    back = operator_from_json(operator_to_json(op))
    np.testing.assert_array_equal(back.array, op.array)


def test_diagonal_json_round_trip():
    op = named_diagonal("one_plus_inv_n")
    back = operator_from_json(operator_to_json(op))
    np.testing.assert_array_equal(back.seq.values(5), op.seq.values(5))
    assert back.seq.tail == op.seq.tail


def test_sum_json_round_trip_preserves_action():
    op = SumOp(named_diagonal("inv_n"), 0.25,
               (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
    back = operator_from_json(operator_to_json(op))
    for i in (1, 17, 23):
        np.testing.assert_allclose(back.apply(Vec.basis(i)).dense(30),
                                   op.apply(Vec.basis(i)).dense(30), atol=1e-15)


def test_anonymous_sequences_do_not_serialise():
    op = DiagonalOp(diagonal_seq(lambda n: 1.0 / n, ConvergesTo(0.0)))
    with pytest.raises(NotRepresentableError):
        operator_to_json(op)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        operator_from_json({"variant": "banded"})
