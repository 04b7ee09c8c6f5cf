"""Minimum-attaining perturbations: all construction cases and verification."""

import dataclasses
import json
import math

import numpy as np
import pytest

from minatt import perturbation, spectral
from minatt.operators import (
    InconclusiveError,
    MatrixOp,
    RankOneTerm,
    SumOp,
    Vec,
    named_diagonal,
    scale_shift,
    zero_like,
)
from minatt.perturbation import (
    PerturbationCase,
    attainment_perturbation,
    attainment_perturbation_positive,
    bounded_below_perturbation,
    near_minimizer,
    rank_one_cap,
    verify_perturbation,
)

GOLDEN_SIGMA = 0.6180339887498948


# ---------------------------------------------------------------------------
# Near minimizers
# ---------------------------------------------------------------------------


def test_near_minimizer_picks_smallest_qualifying_index():
    op = named_diagonal("one_plus_inv_n")
    # smallest n with 1/n < eps/2
    assert near_minimizer(op, 0.5).entries == ((5, 1 + 0j),)
    assert near_minimizer(op, 0.1).entries == ((21, 1 + 0j),)
    assert near_minimizer(op, 0.01).entries == ((201, 1 + 0j),)


def test_near_minimizer_takes_matrix_eigenvector():
    x = near_minimizer(MatrixOp(np.diag([1.0, 2.0])), 0.5)
    np.testing.assert_allclose(np.abs(x.dense(2)), [1.0, 0.0], atol=1e-14)


def test_near_minimizer_requires_positive_input():
    with pytest.raises(ValueError):
        near_minimizer(scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        near_minimizer(named_diagonal("one_plus_inv_n"), 0.0)


def test_near_minimizer_margin_guard():
    with pytest.raises(ValueError):
        near_minimizer(MatrixOp(np.diag([1.0, 2.0])), 1e-13)


def test_near_minimizer_reports_exhausted_scan_as_inconclusive():
    op = named_diagonal("one_plus_inv_n")
    with pytest.raises(InconclusiveError) as err:
        near_minimizer(op, 1e-6, prefix=1000, scan_limit=1000)
    assert err.value.lower == 1.0
    assert abs(err.value.upper - (1.0 + 5e-7)) < 1e-15


def test_rank_one_cap_shape():
    x = Vec.basis(3)
    term = rank_one_cap(0.25, x)
    assert term.coeff == 0.25
    assert term.left == x and term.right == x
    with pytest.raises(ValueError):
        rank_one_cap(-1.0, x)


# ---------------------------------------------------------------------------
# Positive case 1: bounded below
# ---------------------------------------------------------------------------


def test_bounded_below_diagonal_full_contract():
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert res.case.value == "Case1"
    assert res.inner_epsilon == 0.5
    assert res.norm_s.value == 0.5  # exactly the budget
    assert res.witness.attained and res.witness.witness_index == 5
    assert abs(res.witness.value - 0.7) < 1e-12
    assert res.witness.value < 1.0 - 0.25  # strictly below m(T) - eps/2
    assert res.gap_route == "diagonal"
    assert res.gap_bound <= 0.5 + 1e-10
    assert verify_perturbation(op, res).passed


def test_budget_larger_than_minimum_is_halved():
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation_positive(op, 2.0)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert res.inner_epsilon == 0.5  # m(T)/2, not the oversized budget
    assert res.norm_s.value == 0.5
    assert abs(res.witness.value - 0.7) < 1e-12
    assert verify_perturbation(op, res).passed


# ---------------------------------------------------------------------------
# Positive case 2: a null direction already attains
# ---------------------------------------------------------------------------


def test_kernel_means_zero_perturbation():
    op = named_diagonal("alternating01")
    res = attainment_perturbation_positive(op, 0.5)
    assert res.case is PerturbationCase.NULL_DIRECTION_EXISTS
    assert res.case.value == "Case2"
    assert res.inner_epsilon is None
    assert res.norm_s.value == 0.0
    assert res.witness.attained and res.witness.value == 0.0
    assert verify_perturbation(op, res).passed


# ---------------------------------------------------------------------------
# Positive case 3: injective with vanishing minimum
# ---------------------------------------------------------------------------


def test_vanishing_injective_shifted_cap():
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    assert res.case is PerturbationCase.VANISHING_INJECTIVE
    assert res.case.value == "Case3"
    assert res.inner_epsilon == 0.125  # eps/4
    assert res.norm_s.value == 0.25  # eps/2, well under the budget
    assert res.witness.witness_index == 17
    assert abs(res.witness.value - (1.0 / 17.0 + 0.125)) < 1e-12
    assert res.gap_route == "diagonal"
    assert res.gap_bound <= 0.5
    assert verify_perturbation(op, res).passed


def test_vanishing_injective_small_budget():
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.1)
    assert res.case is PerturbationCase.VANISHING_INJECTIVE
    assert res.norm_s.value == 0.05
    assert res.witness.witness_index == 81
    assert abs(res.witness.value - (1.0 / 81.0 + 0.025)) < 1e-12
    assert verify_perturbation(op, res).passed


def test_positive_entry_point_rejects_non_positive():
    with pytest.raises(ValueError):
        attainment_perturbation_positive(
            scale_shift(named_diagonal("inv_n"), -1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        attainment_perturbation_positive(named_diagonal("inv_n"), -0.5)


# ---------------------------------------------------------------------------
# General operators through the polar split
# ---------------------------------------------------------------------------


def test_general_path_keeps_positive_tags():
    res = attainment_perturbation(named_diagonal("one_plus_inv_n"), 0.5)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW


def test_general_path_on_negated_diagonal():
    op = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
    res = attainment_perturbation(op, 0.3)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert res.case.value == "GeneralVA"
    # the witness transfers from |T| + A at the same index and value
    assert res.witness.witness_index == 7
    assert abs(res.witness.value - (1.0 + 1.0 / 7.0 - 0.3)) < 1e-12
    assert abs(res.norm_s.value - 0.3) < 1e-14
    assert verify_perturbation(op, res).passed


def test_general_path_on_negated_vanishing_diagonal():
    # |T| = diag(1/n) is injective with vanishing minimum, so the shifted-cap
    # construction runs on |T| and composes back through the phase -1
    op = scale_shift(named_diagonal("inv_n"), -1.0, 0.0)
    res = attainment_perturbation(op, 0.5)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert res.witness.witness_index == 17
    assert abs(res.witness.value - (1.0 / 17.0 + 0.125)) < 1e-12
    assert abs(res.norm_s.value - 0.25) < 1e-12
    assert verify_perturbation(op, res).passed
    doc = res.to_json_dict()
    # the composed perturbation has no portable form; the certificate does
    assert doc["perturbation"] is None
    json.dumps(doc)


def test_general_path_on_complex_phase_diagonal():
    op = scale_shift(named_diagonal("one_plus_inv_n"), 1j, 0.0)
    res = attainment_perturbation(op, 0.5)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert abs(res.witness.value - 0.7) < 1e-12
    assert verify_perturbation(op, res).passed


def test_general_path_on_non_hermitian_matrix():
    op = MatrixOp(np.array([[1.0, 1.0], [0.0, 1.0]]))
    res = attainment_perturbation(op, 0.3)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert abs(res.witness.value - (GOLDEN_SIGMA - 0.3)) < 1e-10
    assert abs(res.norm_s.value - 0.3) < 1e-12
    assert verify_perturbation(op, res).passed


def test_general_path_with_existing_kernel_returns_zero():
    op = scale_shift(named_diagonal("alternating01"), -2.0, 0.0)
    res = attainment_perturbation(op, 0.5)
    assert res.case is PerturbationCase.NULL_DIRECTION_EXISTS
    assert res.norm_s.value == 0.0


# ---------------------------------------------------------------------------
# Bounded below, rank one preserved
# ---------------------------------------------------------------------------


def test_bounded_below_rank_one_construction():
    op = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
    res = bounded_below_perturbation(op, 0.5)
    assert res.case is PerturbationCase.BOUNDED_BELOW_RANK_ONE
    assert isinstance(res.perturbation, SumOp)
    assert len(res.perturbation.terms) == 1 and res.perturbation.shift == 0
    assert abs(res.witness.value - 0.7) < 1e-12
    assert verify_perturbation(op, res).passed
    # a rank-one cap over a zero base stays portable through the composition
    doc = res.to_json_dict()["perturbation"]
    assert doc["variant"] == "sum" and len(doc["terms"]) == 1


def test_bounded_below_requires_positive_minimum():
    with pytest.raises(ValueError):
        bounded_below_perturbation(named_diagonal("inv_n"), 0.5)
    with pytest.raises(ValueError):
        bounded_below_perturbation(named_diagonal("alternating01"), 0.5)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verification_reports_all_three_checks():
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    v = verify_perturbation(op, res)
    assert v.norm_ok and v.attainment_ok and v.gap_ok
    assert abs(v.norm_value - 0.5) < 1e-14
    assert v.gap_value <= 0.5 + 1e-10


def test_construct_and_verify_run_no_dense_algebra_past_1x1(monkeypatch):
    # a cap at e_j costs a 1 x 1 block wherever j sits, so shrinking eps
    # must not grow any decomposition
    shapes = []
    for name in ("svd", "eigh", "eigvalsh", "solve", "qr"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    drop = named_diagonal("one_plus_inv_n")
    cases = [(attainment_perturbation, drop, eps) for eps in (1e-2, 1e-3, 1e-4)]
    cases += [(attainment_perturbation, named_diagonal("inv_n"), 1e-3),
              (bounded_below_perturbation, drop, 1e-3)]
    for build, op, eps in cases:
        assert verify_perturbation(op, build(op, eps)).passed
    assert max(max(shape) for shape in shapes) == 1


def test_case1_construction_certifies_the_operator_once(monkeypatch):
    # the construction hands its m(T) certificate on instead of recomputing it
    op = named_diagonal("one_plus_inv_n")
    calls = {"_positivity": 0, "minimum_modulus": 0}
    for name in calls:
        def spy(target, *args, _real=getattr(spectral, name), _name=name, **kwargs):
            calls[_name] += target is op
            return _real(target, *args, **kwargs)
        for module in (spectral, perturbation):
            monkeypatch.setattr(module, name, spy)
    res = attainment_perturbation(op, 0.1)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert calls == {"_positivity": 1, "minimum_modulus": 1}


def test_verification_catches_doubled_coefficient():
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    term = res.perturbation.terms[0]
    bad = SumOp(zero_like(op), 0.0,
                (RankOneTerm(2.0 * term.coeff, term.left, term.right),))
    corrupted = dataclasses.replace(res, perturbation=bad)
    v = verify_perturbation(op, corrupted)
    assert not v.norm_ok
    assert not v.passed


def test_result_serialises_to_json():
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    doc = res.to_json_dict()
    assert doc["caseTag"] == "Case3"
    assert doc["epsilon"] == 0.5
    assert doc["innerEpsilon"] == 0.125
    assert doc["witness"]["witnessIndex"] == 17
    assert doc["normS"] == 0.25
    json.dumps(doc)  # must be a plain JSON document
