"""Lazy diagonals keep their generator's dtype: real entries are scanned as float64.

A real sequence and every map of it with real scalars stay float64 from the
generator to the reduction; complex entries or a complex scalar give
complex128.  The float path must give, bit for bit, the real parts and
moduli that complex arithmetic on the same entries gives.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from minatt import (
    attainment_perturbation,
    essential_spectrum,
    gap_upper_bound_check,
    minimum_modulus,
    operator_gap_closed_form,
    operator_gap_diagonal,
    verify_perturbation,
    weyl_check,
)
from minatt.operators import (
    ConvergesTo,
    DeclaredAccumulation,
    DiagonalOp,
    DiagSeq,
    RankOneTerm,
    SumOp,
    Vec,
    _chordal,
    _chordal_window_dev,
    _euclid_window_dev,
    add_operators,
    add_rank_one,
    block_tail,
    compose_operators,
    constant_seq,
    diagonal_seq,
    named_diagonal,
    scale_shift,
)
from minatt.spectral import _phase_vec


def _values(op, n=6):
    return op.seq.values(n)


def test_real_generators_and_real_maps_give_float64():
    t = named_diagonal("one_plus_inv_n")
    for op in (t, named_diagonal("linear_n"), named_diagonal("alternating01"),
               DiagonalOp(constant_seq(0.25)), scale_shift(t, -2.5, 0.75),
               DiagonalOp(SumOp(t, 0.5).diagonal),
               add_operators(t, scale_shift(t, 0.5, 1.0)),
               compose_operators(t, DiagonalOp(constant_seq(-3.0)))):
        assert _values(op).dtype == np.float64
    # the integer output of alternating01 is read as float64 too
    assert named_diagonal("alternating01").seq.gen(np.arange(1, 4)).dtype.kind == "i"
    assert _values(named_diagonal("alternating01")).tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_complex_entries_or_scalars_give_complex128():
    t = named_diagonal("one_plus_inv_n")
    fn = diagonal_seq(lambda i: 1.0 / i, ConvergesTo(0.0))
    phase = np.exp(0.7j * np.pi)  # the bounded-below shape: phase * (alpha T + beta)
    for op in (DiagonalOp(constant_seq(1j)), scale_shift(t, phase * 0.9, phase * 0.2),
               scale_shift(t, 1.0, 2j), DiagonalOp(SumOp(t, 1j).diagonal), DiagonalOp(fn)):
        assert _values(op).dtype == np.complex128


def test_blocks_stay_complex_on_a_real_diagonal():
    bt = block_tail(named_diagonal("one_plus_inv_n"), (2, 7))
    assert bt.block.dtype == np.complex128
    assert bt.tail.values_at(np.array([3])).dtype == np.float64


def test_a_long_prefix_round_scans_no_complex_entry(monkeypatch):
    # the questions of one benchmark long-prefix round, at N = 1e4: every
    # operator has real coefficients, so no scan may run on complex128
    n, c = 10_000, -0.6
    dtypes = []
    real = DiagSeq.values_at
    monkeypatch.setattr(DiagSeq, "values_at",
                        lambda self, ix: (lambda v: dtypes.append(v.dtype) or v)(real(self, ix)))
    t, v, lin = (named_diagonal(g) for g in ("one_plus_inv_n", "inv_n", "linear_n"))

    def bumped(op, i, coeff):
        return add_rank_one(op, RankOneTerm(coeff, Vec.basis(i), Vec.basis(i)))

    tb, lb = bumped(t, 5, c), bumped(lin, 5, 1.2)
    d, s = scale_shift(t, 1.0, 0.4), add_operators(t, scale_shift(t, 0.6, 0.3))
    dl, db = scale_shift(lin, 1.5, 0.2), bumped(d, 10, -0.3)
    minimum_modulus(tb, prefix=n)
    minimum_modulus(bumped(s, 10, -0.5), prefix=n)
    essential_spectrum(tb, prefix=n)
    essential_spectrum(db, prefix=n)
    weyl_check(t, [tb.terms[0]], prefix=n)
    for a, b in ((t, v), (lb, lin), (d, s), (dl, lin)):
        operator_gap_diagonal(a, b, prefix=n)
    operator_gap_closed_form(tb, t, prefix=n)
    operator_gap_closed_form(db, d, prefix=n)
    gap_upper_bound_check(tb, t, prefix=n)
    for op, eps in ((t, 0.1), (d, 0.1)):
        verify_perturbation(op, attainment_perturbation(op, eps, prefix=n), prefix=n)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


# Bit identity of the float path against complex arithmetic on the same entries.

_REAL = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, s: s * m * 10.0 ** e, st.floats(1.0, 9.999),
              st.integers(-300, 299), st.sampled_from([1.0, -1.0])))
_SCALAR = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]), st.floats(-1e3, 1e3),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.sampled_from([complex(-1.0, -0.0), complex(2.0, -0.0), -1j]))
# a leaf: ("affine", alpha, beta), ("shift", s) or ("const", c); a spec combines
# up to two leaves with np.add or np.multiply, as add and compose do
_LEAF = st.one_of(st.tuples(st.just("affine"), _SCALAR, _SCALAR),
                  st.tuples(st.just("shift"), _SCALAR),
                  st.tuples(st.just("const"), _SCALAR))
_SPEC = st.tuples(_LEAF, st.sampled_from([None, np.add, np.multiply]), _LEAF)


def _leaf_op(root: DiagonalOp, leaf) -> DiagonalOp:
    if leaf[0] == "affine":
        return scale_shift(root, leaf[1], leaf[2])
    if leaf[0] == "shift":
        return DiagonalOp(SumOp(root, leaf[1]).diagonal)
    return DiagonalOp(constant_seq(leaf[1]))


def _leaf_ref(z: np.ndarray, leaf) -> tuple[np.ndarray, bool]:
    """The leaf's entries by complex arithmetic with complex scalars, and whether it
    is the constant 0."""
    kind, *scalars = leaf
    a, b = (complex(x) for x in (scalars + [0.0])[:2])
    if kind == "affine":
        return (np.full(z.shape, b) if a == 0 else a * z + b), a == 0 and b == 0
    if kind == "shift":
        return (z if a == 0 else z + a), False
    return np.full(z.shape, a), a == 0


def _spec_op(root, spec):
    first, g, second = spec
    a = _leaf_op(root, first)
    if g is None:
        return a
    b = _leaf_op(root, second)
    return add_operators(a, b) if g is np.add else compose_operators(a, b)


def _spec_ref(z, spec):
    first, g, second = spec
    a, a_zero = _leaf_ref(z, first)
    if g is None:
        return a
    b, b_zero = _leaf_ref(z, second)
    if g is np.add:
        return a if b_zero else b if a_zero else a + b
    return np.zeros(z.shape, dtype=complex) if a_zero or b_zero else a * b


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=float)).view(np.uint64)


def _same(got, ref, finite):
    assert np.array_equal(_bits(np.real(got)[finite]), _bits(np.real(ref)[finite]))
    assert np.array_equal(_bits(np.abs(got)[finite]), _bits(np.abs(ref)[finite]))


@given(st.lists(_REAL, min_size=1, max_size=12), _SPEC, _SPEC, _SCALAR)
@example([0.0, -0.0, -1e-300, 1e300], (("affine", -1.0, -0.0), np.multiply, ("const", -2.0)),
         (("shift", -0.0), np.add, ("affine", 3.0, 0.0)), -0.0)
@example([-0.0, 0.0, 2.0], (("const", complex(-1.0, -0.0)), np.multiply, ("affine", 2.0, 1.0)),
         (("affine", complex(-1.0, -0.0), -0.0), None, ("const", 0.0)), 1.0)
# a real alpha with a beta whose imaginary part is -0.0: alpha * x would lose the
# sign of the zero imaginary part that (alpha + 0j)(x + 0j) has, and -1j times it
# the sign of the zero real part, so the whole map stays complex
@example([-0.0], (("affine", 0.0, complex(-0.0, -1.0)), np.multiply,
                  ("affine", -1.0, complex(2.0, -0.0))),
         (("shift", 0.0), None, ("shift", 0.5)), 0.0)
def test_real_path_matches_complex_arithmetic_bit_for_bit(entries, spec_a, spec_b, point):
    # magnitudes near 1e300 overflow on both paths, on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        _check_real_path(entries, spec_a, spec_b, point)


def _check_real_path(entries, spec_a, spec_b, point):
    x = np.array(entries, dtype=float)
    root = DiagonalOp(diagonal_seq(None, ConvergesTo(0.0), vec_fn=lambda ix: x[ix - 1]))
    z = x.astype(complex)
    got_a, ref_a = _values(_spec_op(root, spec_a), x.size), _spec_ref(z, spec_a)
    got_b, ref_b = _values(_spec_op(root, spec_b), x.size), _spec_ref(z, spec_b)
    # entries that are not finite may differ: an infinite part times a zero
    # imaginary part is NaN in complex arithmetic only
    fa, fb = np.isfinite(ref_a), np.isfinite(ref_b)
    _same(got_a, ref_a, fa)
    _same(got_b, ref_b, fb)
    both = fa & fb
    _same(_chordal(got_a, point), _chordal(ref_a, point), fa)
    _same(_chordal(got_a, got_b), _chordal(ref_a, ref_b), both)
    _same(_phase_vec(got_a), _phase_vec(ref_a), fa)
    if both.all():
        p = complex(point)
        for tail in (DeclaredAccumulation((p, 0.0), True), DeclaredAccumulation((p,), False)):
            assert _bits(_chordal_window_dev(got_a, tail)) == _bits(_chordal_window_dev(ref_a, tail))
        tail = ConvergesTo(p)
        assert _bits(_euclid_window_dev(got_b, tail)) == _bits(_euclid_window_dev(ref_b, tail))
