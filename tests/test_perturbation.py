"""Minimum-attaining perturbations: all construction cases and verification."""

import dataclasses
import inspect
import json
import math
import signal

import numpy as np
import pytest

from minatt import gap, perturbation, spectral
from minatt.operators import (
    ConvergesTo,
    DiagSeq,
    DiagonalOp,
    InconclusiveError,
    MatrixOp,
    NormBound,
    OperatorRep,
    RankOneTerm,
    SumOp,
    Vec,
    add_operators,
    add_rank_one,
    compose_operators,
    constant_seq,
    diagonal_seq,
    named_diagonal,
    scale_shift,
    truncate,
    zero_like,
)
from minatt.operators import _dense
from minatt.gap import _graph_gap, gap_upper_bound_check
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


def test_near_minimizer_scans_from_index_one_at_prefix_zero():
    # an alarm turns a scan that never returns into a failure, not a hang
    def give_up(signum, frame):
        raise TimeoutError("near_minimizer did not return")
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        op = named_diagonal("one_plus_inv_n")
        assert near_minimizer(op, 0.5, prefix=0) == Vec.basis(5)
        assert near_minimizer(op, 0.5, prefix=10000) == Vec.basis(5)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_near_minimizer_takes_matrix_eigenvector():
    x = near_minimizer(MatrixOp(np.diag([1.0, 2.0])), 0.5)
    np.testing.assert_allclose(np.abs(x.dense(2)), [1.0, 0.0], atol=1e-14)


def test_near_minimizer_takes_a_basis_block_eigenvector():
    # diag(1 + 1/n) - 0.5 <., e5> e5 has the 1 x 1 block 0.7 on e5, below every tail entry
    op = add_rank_one(named_diagonal("one_plus_inv_n"),
                      RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5)))
    assert near_minimizer(op, 0.1) == Vec.basis(5)
    res = attainment_perturbation(op, 0.1)
    assert res.to_json_dict()["caseTag"] == "Case1"
    assert res.witness.witness.entries[0][0] == 5
    assert abs(res.witness.value - 0.6) < 1e-12
    v = verify_perturbation(op, res)
    assert v.gap_route == "diagonal" and v.passed


def test_near_minimizer_takes_a_coupled_block_eigenvector():
    # -1.5 <., u> u with u = (e1 + e2)/sqrt(2) leaves the block [[1.25, -0.75], [-0.75, 0.75]],
    # whose least eigenvalue 1 - sqrt(0.625) has an eigenvector on no basis index
    u = Vec(((1, math.sqrt(0.5)), (2, math.sqrt(0.5))), None)
    op = add_rank_one(named_diagonal("one_plus_inv_n"), RankOneTerm(-1.5, u, u))
    least = 1.0 - math.sqrt(0.625)
    kernel = np.array([0.75, 1.25 - least])  # spans the kernel of block - least
    x = near_minimizer(op, 0.1)
    assert len(x.entries) == 2
    np.testing.assert_allclose(np.abs(x.dense(2)), kernel / np.linalg.norm(kernel), atol=1e-12)
    res = attainment_perturbation(op, 0.1)
    assert abs(res.witness.value - (least - 0.1)) < 1e-12
    assert abs(res.witness.value - 0.1094306) < 1e-7
    v = verify_perturbation(op, res)
    assert v.gap_route == "graph" and v.passed


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
    assert res.gap_bound == 0.5
    v = verify_perturbation(op, res)
    assert v.gap_route == "diagonal" and v.gap_value <= 0.5 + 1e-10
    assert v.passed


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
    assert res.gap_bound == 0.25
    v = verify_perturbation(op, res)
    assert v.gap_route == "diagonal" and v.gap_value <= 0.25
    assert v.passed


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


def test_bounded_below_cap_at_a_spread_block_eigenvector_is_one_term():
    # |T| = 2 I - 1.5 <., u> u is least at u, spread over three coordinates;
    # V A maps the cap's one term to one term, whatever V does on the block
    u = Vec(((1, 0.6), (2, 0.0 + 0.48j), (4, -0.64)), None)
    op = scale_shift(add_rank_one(DiagonalOp(constant_seq(2.0)), RankOneTerm(-1.5, u, u)),
                     1j, 0.0)
    res = bounded_below_perturbation(op, 0.1)
    assert len(res.witness.witness.entries) >= 3
    assert isinstance(res.perturbation, SumOp) and len(res.perturbation.terms) == 1
    assert abs(res.witness.value - 0.4) < 1e-12
    assert verify_perturbation(op, res).passed


def test_bounded_below_requires_positive_minimum():
    with pytest.raises(ValueError):
        bounded_below_perturbation(named_diagonal("inv_n"), 0.5)
    with pytest.raises(ValueError):
        bounded_below_perturbation(named_diagonal("alternating01"), 0.5)
    # refused before any scan: a Case 3 scan at this epsilon would run out of budget
    with pytest.raises(ValueError):
        bounded_below_perturbation(named_diagonal("inv_n"), 1e-9)


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


@pytest.mark.parametrize("build", [attainment_perturbation, bounded_below_perturbation])
def test_coupled_block_gets_a_measured_gap(build):
    # T = -diag(1 + 1/n) + 0.3 <., (e1 + e2)/sqrt(2)> e3 has a block no
    # diagonal route accepts; its gap bound is measured, not taken from ||S||
    r = math.sqrt(0.5)
    op = add_rank_one(scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0),
                      RankOneTerm(0.3, Vec(((1, r), (2, r)), None), Vec.basis(3)))
    res = build(op, 0.05)
    perturbed = add_operators(op, res.perturbation)
    v = verify_perturbation(op, res)
    assert v.gap_route == "graph"
    assert v.gap_value <= v.norm_value

    def graph_projection(a):
        g = np.vstack([np.eye(a.shape[1]), a])
        return g @ np.linalg.solve(g.conj().T @ g, g.conj().T)
    # T + S and T agree past e_60, so their 60 x 60 sections hold the whole gap
    dense = np.linalg.norm(graph_projection(truncate(perturbed, 60).array)
                           - graph_projection(truncate(op, 60).array), 2)
    assert 0.0 <= v.gap_value - dense <= 1e-12
    assert v.passed
    assert gap_upper_bound_check(perturbed, op).holds


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
    seen = {"_positivity": [], "minimum_modulus": []}
    for name in seen:
        def spy(target, *args, _real=getattr(spectral, name), _name=name, **kwargs):
            seen[_name].append(target)
            return _real(target, *args, **kwargs)
        for module in (spectral, perturbation):
            monkeypatch.setattr(module, name, spy)

    def counted(build, target, epsilon, only=None):
        for targets in seen.values():
            targets.clear()
        res = build(target, epsilon)
        return res, {name: sum(only is None or t is only for t in targets)
                     for name, targets in seen.items()}

    res, calls = counted(attainment_perturbation, op, 0.1, only=op)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert calls == {"_positivity": 1, "minimum_modulus": 1}
    # every call counts below: Case 3 scans T itself rather than a shifted
    # copy, bounded below checks m(|T|) once and no positivity at all, and
    # neither construction certifies T + S
    res, calls = counted(attainment_perturbation_positive, named_diagonal("inv_n"), 1e-3)
    assert res.case is PerturbationCase.VANISHING_INJECTIVE
    assert calls == {"_positivity": 1, "minimum_modulus": 1}
    res, calls = counted(bounded_below_perturbation, scale_shift(op, -1.0, 0.0), 0.1)
    assert res.case is PerturbationCase.BOUNDED_BELOW_RANK_ONE
    assert calls == {"_positivity": 0, "minimum_modulus": 1}


def test_each_operator_builds_its_form_once(monkeypatch):
    # a spy on the builds themselves: cache hits and padded forms are not counted
    built = []
    prop = OperatorRep.__dict__["form"]
    monkeypatch.setattr(prop, "func", lambda op, _real=prop.func: built.append(op) or _real(op))
    op = scale_shift(named_diagonal("one_plus_inv_n"), 1.1, 0.2)
    res = attainment_perturbation(op, 1e-2)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert verify_perturbation(op, res).passed
    assert len(built) == 3 and built[0] is op  # T, S and T + S
    built.clear()
    assert verify_perturbation(op, attainment_perturbation(op, 1e-2)).passed
    assert len(built) == 2 and all(b is not op for b in built)
    built.clear()
    spectral.weyl_check(scale_shift(named_diagonal("one_plus_inv_n"), 1.1, 0.2),
                        [RankOneTerm(-0.5, Vec.basis(5), Vec.basis(5))])
    assert len(built) == 2


def _tail_scans(monkeypatch):
    # (value, tail_bound) of every gap tail certified by a scan
    scans = []
    real = gap._certify_tail

    def spy(*args):
        scans.append(real(*args))
        return scans[-1]
    monkeypatch.setattr(gap, "_certify_tail", spy)
    return scans


def test_finite_rank_certificates_scan_no_tail(monkeypatch):
    # S's tail is the constant 0 in Case 1, bounded below and GeneralVA over
    # Case 1, so T + S and T share their tail entry for entry; a shifted T
    # keeps one shifted tail object for all its forms
    op = named_diagonal("one_plus_inv_n")
    scans = _tail_scans(monkeypatch)
    cases = []
    for build, target in ((attainment_perturbation, op),
                          (bounded_below_perturbation, op),
                          (attainment_perturbation, scale_shift(op, -1.0, 0.0)),
                          (attainment_perturbation, SumOp(op, 0.5))):
        res = build(target, 0.1)
        assert verify_perturbation(target, res).passed
        cases.append(res.case)
    assert cases == [PerturbationCase.POSITIVE_BOUNDED_BELOW,
                     PerturbationCase.BOUNDED_BELOW_RANK_ONE, PerturbationCase.POLAR_COMPOSED,
                     PerturbationCase.POSITIVE_BOUNDED_BELOW]
    assert scans == []
    # Case 3's S = (eps/2) I - cap is not of finite rank: its tail is scanned
    op = named_diagonal("inv_n")
    res = attainment_perturbation_positive(op, 0.5)
    assert res.case is PerturbationCase.VANISHING_INJECTIVE
    assert verify_perturbation(op, res).passed
    assert len(scans) == 1 and all(math.isfinite(bound) for _, bound in scans)


def test_l2_construct_and_verify_take_no_qr(monkeypatch):
    # on l2 ||S|| is all the certificate needs of S: no basis of range(S*)
    # is formed, and the diagonal gap route needs no graph basis either
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda a, *args, **kw: calls.append(np.shape(a)) or real(a, *args, **kw))
    op = named_diagonal("one_plus_inv_n")
    cases = []
    for build, target in ((attainment_perturbation, op),
                          (attainment_perturbation, named_diagonal("inv_n")),
                          (bounded_below_perturbation, op),
                          (attainment_perturbation, scale_shift(op, -1.0, 0.0))):
        res = build(target, 0.1)
        assert verify_perturbation(target, res).passed
        cases.append(res.case)
    assert cases == [PerturbationCase.POSITIVE_BOUNDED_BELOW, PerturbationCase.VANISHING_INJECTIVE,
                     PerturbationCase.BOUNDED_BELOW_RANK_ONE, PerturbationCase.POLAR_COMPOSED]
    assert calls == []


def test_case1_at_n_1e6_reads_no_prefix_for_the_gap():
    # m(T) in the construction and m(T + S) in the verification, about 1e6
    # entries each; scanning the tails of T + S and T for the gap read 4e6
    # more, and certifying T + S in the construction too another 1e6
    n = 10 ** 6
    read = []

    def gen(a):
        read.append(a.size)
        return 1.0 + 1.0 / a
    op = DiagonalOp(diagonal_seq(None, ConvergesTo(1.0), vec_fn=gen))
    assert verify_perturbation(op, attainment_perturbation(op, 0.1, prefix=n), prefix=n).passed
    assert sum(read) <= 2_100_000


def test_matrix_certificate_forms_no_whole_graph_basis(monkeypatch):
    # the verification certifies once, and reads ||S|| and range(S*) off
    # S's terms: no SVD of S and no 2n x n QR
    rng = np.random.default_rng(29)
    n = 64
    op = MatrixOp(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    qr_shapes, svd_operands, s_svds = [], [], []
    real_qr, real_svd, real_certify = np.linalg.qr, np.linalg.svd, perturbation._certify

    def qr_spy(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    def svd_spy(a, *args, **kwargs):
        svd_operands.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    def certify_spy(target, s, prefix):
        start = len(svd_operands)
        out = real_certify(target, s, prefix)
        s_dense = _dense(s)
        s_svds.append(sum(np.array_equal(a, s_dense) for a in svd_operands[start:]))
        return out
    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", svd_spy)
    monkeypatch.setattr(perturbation, "_certify", certify_spy)
    res = attainment_perturbation(op, 0.05)
    assert s_svds == []  # the construction certifies nothing
    assert verify_perturbation(op, res).passed
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert isinstance(res.perturbation, SumOp) and len(res.perturbation.terms) == 1
    assert (2 * n, n) not in qr_shapes
    assert s_svds == [0]


def test_matrix_construction_reads_m_of_modulus_off_the_polar_svd(monkeypatch):
    # T's one cached SVD holds m(|T|), its witness and the polar parts, so
    # minimum_modulus, polar, modulus and the construction factor T once and the
    # verification factors T + S once; a positive T's witness is an eigenvector at its
    # least eigenvalue.  Counted are svd calls on n x n operands, numpy.linalg.norm's
    # own included, and all eigh
    rng = np.random.default_rng(41)
    n = 256
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    operands, eighs = [], []
    real_svd, real_eigh = np.linalg.svd, np.linalg.eigh

    def svd_spy(arr, *args, **kwargs):
        if np.shape(arr) == (n, n):
            operands.append(np.array(arr))
        return real_svd(arr, *args, **kwargs)

    def eigh_spy(arr, *args, **kwargs):
        eighs.append(np.shape(arr))
        return real_eigh(arr, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    op = MatrixOp(a)
    spectral.minimum_modulus(op)
    spectral.polar(op)
    spectral.modulus(op)
    res = attainment_perturbation(op, 0.05)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    assert len(operands) == 1 and np.array_equal(operands[0], a) and eighs == []
    assert verify_perturbation(op, res).passed
    assert len(operands) == 2
    assert np.array_equal(operands[1], _dense(add_operators(op, res.perturbation)))
    assert verify_perturbation(op, attainment_perturbation(op, 0.05)).passed
    assert len(operands) == 3  # T + S is a new operator each time
    positive = MatrixOp(a @ a.conj().T / n + 0.5 * np.eye(n))
    operands.clear()
    res = attainment_perturbation(positive, 0.05)
    assert res.case is PerturbationCase.POSITIVE_BOUNDED_BELOW
    assert len(operands) == 1 and eighs == []
    assert verify_perturbation(positive, res).passed
    assert len(operands) == 2


@pytest.mark.parametrize("shape", [(6, 6), (7, 4)])
def test_a_matrix_construction_forms_no_modulus(monkeypatch, shape):
    # m(|T|) and its witness are m(T)'s, so the matrix construction reads |T| for nothing
    # but its shape and forms none; S = V A keeps the bits it has with |T| formed
    rng = np.random.default_rng(53)
    op = MatrixOp(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    calls = []
    real = spectral.modulus
    monkeypatch.setattr(spectral, "modulus", lambda t: calls.append(t) or real(t))
    results = [build(op, 0.05) for build in (attainment_perturbation, bounded_below_perturbation)]
    assert calls == []
    parts = spectral.polar(op)
    for res in results:
        capped = perturbation._positive_construction(parts.modulus, 0.05,
                                                     spectral.minimum_modulus(op), 10_000)
        expect = compose_operators(parts.isometry, capped.perturbation)
        assert _dense(res.perturbation).tobytes() == _dense(expect).tobytes()
        assert repr(res.witness) == repr(capped.witness) and res.norm_s == capped.norm_s
        assert verify_perturbation(op, res).passed


def test_verification_reads_no_entry_of_a_constant_s_tail(monkeypatch):
    # ||S|| of S = c I + finite rank is max(||block||, |c|): S's constant diagonal is
    # read only on the block, at the support of its terms
    read = []
    real = DiagSeq.values_at
    monkeypatch.setattr(DiagSeq, "values_at",
                        lambda seq, i: read.append((seq, i.tolist())) or real(seq, i))
    for op, case in ((named_diagonal("one_plus_inv_n"), PerturbationCase.POSITIVE_BOUNDED_BELOW),
                     (named_diagonal("inv_n"), PerturbationCase.VANISHING_INJECTIVE)):
        res = attainment_perturbation(op, 0.1)
        assert res.case is case
        s = res.perturbation
        support = {i for t in s.terms for v in (t.left, t.right) for i, _ in v.entries}
        read.clear()
        assert verify_perturbation(op, res).passed
        assert all(set(i) <= support for seq, i in read if seq is s.base.seq)


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
    # a matrix GeneralVA result: range(S*) is read from the S handed over,
    # so the gap is that of the doubled S
    rng = np.random.default_rng(31)
    t = 3.0 * np.eye(6) + 0.5 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    res = attainment_perturbation(MatrixOp(t), 0.5)
    assert res.case is PerturbationCase.POLAR_COMPOSED
    s_bad = 2.0 * _dense(res.perturbation)
    v = verify_perturbation(MatrixOp(t), dataclasses.replace(res, perturbation=MatrixOp(s_bad)))
    assert not v.norm_ok
    assert not v.passed
    assert abs(v.gap_value - _graph_gap(t + s_bad, t)) <= 1e-12
    assert v.gap_value > verify_perturbation(MatrixOp(t), res).gap_value + 1e-3


def test_bounded_below_matrix_result_is_one_factored_term(monkeypatch):
    # V A over a zero base stays a zero base plus one term, so the rank-one
    # guard sees the composed S itself
    rng = np.random.default_rng(5)
    t = MatrixOp(3.0 * np.eye(8) + 0.5 * rng.standard_normal((8, 8)))
    res = bounded_below_perturbation(t, 0.2)
    assert isinstance(res.perturbation, SumOp) and len(res.perturbation.terms) == 1
    assert not res.perturbation.base.array.any() and res.perturbation.shift == 0
    assert verify_perturbation(t, res).passed
    real = perturbation.compose_operators

    def two_terms(a, b, **kwargs):
        s = real(a, b, **kwargs)
        return SumOp(s.base, s.shift, s.terms * 2)
    monkeypatch.setattr(perturbation, "compose_operators", two_terms)
    with pytest.raises(ArithmeticError):
        bounded_below_perturbation(t, 0.2)


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_construct_and_verify_pass_on_large_matrices(scale):
    # every tolerance scales with max(1, sigma_1(T + S)): an absolute 1e-10
    # drift check and an absolute 1e-8 residual bound both failed here
    rng = np.random.default_rng(3)
    op = MatrixOp(scale * (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))))
    res = attainment_perturbation(op, 0.1)
    assert verify_perturbation(op, res).passed


def _tampered(op, res, **changes):
    return verify_perturbation(op, dataclasses.replace(res, **changes))


def test_verification_holds_results_to_their_predictions():
    # l2 with a basis witness, and a matrix with a dense one
    rng = np.random.default_rng(11)
    matrix = MatrixOp(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    drop = named_diagonal("one_plus_inv_n")
    for op, moved, index in ((drop, Vec.basis(6), 6),
                             (matrix, Vec.from_dense(np.ones(6) / math.sqrt(6.0)), None)):
        res = attainment_perturbation(op, 0.5)
        v = verify_perturbation(op, res)
        assert v.passed and v.gap_value > 0.1
        w = res.witness
        assert not _tampered(op, res, witness=dataclasses.replace(
            w, witness=moved, witness_index=index)).attainment_ok
        assert not _tampered(op, res, witness=dataclasses.replace(w, value=w.value + 1e-6)).passed
        under = _tampered(op, res, norm_s=NormBound(0.9 * v.norm_value))
        assert under.attainment_ok and under.gap_ok and not under.norm_ok
        under = _tampered(op, res, gap_bound=0.5 * v.gap_value)
        assert under.norm_ok and under.attainment_ok and not under.gap_ok
    # the tolerance is CHECK_TOL * max(1, sigma_1): m off by 1e-11 still agrees
    res = attainment_perturbation(drop, 0.5)
    assert _tampered(drop, res, witness=dataclasses.replace(
        res.witness, value=res.witness.value + 1e-11)).passed


def test_an_s_that_fails_to_attain_fails_verification():
    # S = 0 leaves diag(1 + 1/n) unattained
    op = named_diagonal("one_plus_inv_n")
    res = attainment_perturbation(op, 0.5)
    v = _tampered(op, res, perturbation=zero_like(op))
    assert not v.attainment.attained and not v.attainment_ok and not v.passed


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
