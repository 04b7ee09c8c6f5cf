"""Small perturbations that force the minimum modulus to be attained.

Given a representable closed operator T and a budget epsilon, construct S
with ||S|| <= epsilon such that T + S attains its minimum modulus, and
certify three things independently of the construction: the norm of S, the
attainment witness for T + S, and a bound on the gap distance between T + S
and T.

For positive T one of three shapes applies:

* bounded below (m(T) > 0): drop a rank-one cap at a near-minimizing unit
  vector x, S = -eps <., x> x.  Then m(T + S) < m(T) - eps/2 and the new
  minimum is attained near x.
* a null direction exists: nothing to do, S = 0.
* injective with m(T) = 0: shift up by eps/2 first, then cap with an inner
  parameter eps/4, so S = (eps/2) I - C.  The shift costs eps/2 in norm and
  the cap hands the shifted operator an attained minimum.

A general T routes through its polar decomposition T = V |T|: build A for
the positive |T|, compose S = V A, and m(T + S) = m(|T| + A) transfers the
witness.  When T is bounded below the composed perturbation is again rank
one, so closed range survives along with attainment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import (
    DEFAULT_PREFIX,
    InconclusiveError,
    NormBound,
    NotRepresentableError,
    OperatorRep,
    RankOneTerm,
    SumOp,
    Vec,
    add_operators,
    add_rank_one,
    block_tail,
    compose_operators,
    operator_norm,
    operator_to_json,
    scale_shift,
    zero_like,
)
from .operators import _dense
from .spectral import (
    NULL_TOL,
    AttainmentCertificate,
    minimum_modulus,
    polar,
    _positivity,
    _require_positive,
)
from .gap import operator_gap_diagonal, operator_gap_graph

__all__ = [
    "PerturbationCase",
    "PerturbationResult",
    "PerturbationVerification",
    "near_minimizer",
    "rank_one_cap",
    "attainment_perturbation_positive",
    "attainment_perturbation",
    "bounded_below_perturbation",
    "verify_perturbation",
]

STRICT_MARGIN = 1e-12
CHECK_TOL = 1e-10
# near_minimizer scans the diagonal lazily up to this index
SCAN_LIMIT = 10 ** 7


class PerturbationCase(str, Enum):
    """Which construction produced the perturbation."""

    POSITIVE_BOUNDED_BELOW = "Case1"
    NULL_DIRECTION_EXISTS = "Case2"
    VANISHING_INJECTIVE = "Case3"
    POLAR_COMPOSED = "GeneralVA"
    BOUNDED_BELOW_RANK_ONE = "BoundedBelowRankOne"


@dataclass(frozen=True)
class PerturbationResult:
    """The perturbation S plus everything certified about it.

    ``inner_epsilon`` is the effective cap parameter (smaller than epsilon
    when the budget exceeded m(T), eps/4 on the vanishing-injective path,
    None when S = 0).  ``gap_bound`` is a certified upper bound on the gap
    between T + S and T, measured by ``gap_route`` ("diagonal", "graph", or
    "norm_bound" when only ||S|| is available as a certificate).
    """

    perturbation: OperatorRep
    case: PerturbationCase
    epsilon: float
    inner_epsilon: float | None
    witness: AttainmentCertificate
    norm_s: NormBound
    gap_bound: float
    gap_route: str

    def to_json_dict(self) -> dict:
        try:
            portable = operator_to_json(self.perturbation)
        except NotRepresentableError:
            # a perturbation composed through a lazy isometry may have no
            # portable form; the certified numbers above still do
            portable = None
        return {"caseTag": self.case.value,
                "epsilon": self.epsilon,
                "innerEpsilon": self.inner_epsilon,
                "witness": self.witness.to_json_dict(),
                "normS": self.norm_s.value,
                "gapBound": self.gap_bound,
                "gapRoute": self.gap_route,
                "perturbation": portable}


@dataclass(frozen=True)
class PerturbationVerification:
    """Re-derived checks of a perturbation result against its claims."""

    norm_value: float
    norm_ok: bool
    attainment: AttainmentCertificate
    attainment_ok: bool
    gap_value: float
    gap_route: str
    gap_ok: bool

    @property
    def passed(self) -> bool:
        return self.norm_ok and self.attainment_ok and self.gap_ok

    def to_json_dict(self) -> dict:
        return {"normValue": self.norm_value, "normOk": self.norm_ok,
                "attainment": self.attainment.to_json_dict(),
                "attainmentOk": self.attainment_ok,
                "gapValue": self.gap_value, "gapRoute": self.gap_route,
                "gapOk": self.gap_ok, "passed": self.passed}


# ---------------------------------------------------------------------------
# Near minimizers and caps
# ---------------------------------------------------------------------------


def near_minimizer(op: OperatorRep, epsilon: float, *, prefix: int = DEFAULT_PREFIX,
                   scan_limit: int = SCAN_LIMIT) -> Vec:
    """A unit x with <Tx, x> < m(T) + epsilon/2, strictly (margin 1e-12).

    Positive operators only.  Matrices take the minimal eigenvector; l2
    operators take the block eigenvector when it qualifies and the smallest
    qualifying diagonal index off the block otherwise, scanning lazily past
    the prefix up to ``scan_limit`` entries.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_positive(op, "near_minimizer")
    return _near_minimizer(op, epsilon, minimum_modulus(op, prefix=prefix), prefix, scan_limit)


def _near_minimizer(op: OperatorRep, epsilon: float, cert: AttainmentCertificate,
                    prefix: int, scan_limit: int) -> Vec:
    """:func:`near_minimizer` of a positive T whose m(T) certificate is ``cert``."""
    threshold = cert.value + epsilon / 2.0

    if not op.is_l2:
        arr = _dense(op)
        w, u = np.linalg.eigh(0.5 * (arr + arr.conj().T))
        if not w[0] < threshold - STRICT_MARGIN:
            raise ValueError("epsilon too small to leave a strict margin")
        return Vec.from_dense(u[:, 0], dim=arr.shape[0])

    bt = block_tail(op)
    if bt.k:
        w, u = np.linalg.eigh(0.5 * (bt.block + bt.block.conj().T))
        if w[0] < threshold - STRICT_MARGIN:
            return bt.embed(u[:, 0])
    # 1..prefix first, then each doubling window (n, 2n]: no entry is read twice
    start, n = 1, prefix
    while True:
        for indices, vals in bt.tail_blocks(n, start):
            hits = np.flatnonzero(vals.real < threshold - STRICT_MARGIN)
            if hits.size:
                return Vec.basis(int(indices[hits[0]]))
        if n >= scan_limit:
            # an index exists whenever the infimum is approached through the
            # tail, but the scan budget ran out before reaching it
            raise InconclusiveError(
                f"no entry below m + eps/2 within the first {scan_limit} indices",
                lower=cert.value, upper=threshold)
        start, n = n + 1, min(scan_limit, 2 * n)


def rank_one_cap(epsilon: float, x: Vec) -> RankOneTerm:
    """The cap C: y -> epsilon <y, x> x; ||C|| = epsilon exactly for unit x."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return RankOneTerm(epsilon, x, x)


# ---------------------------------------------------------------------------
# Positive operators
# ---------------------------------------------------------------------------


def _shift_op(op: OperatorRep, beta: float, term: RankOneTerm) -> OperatorRep:
    """beta*I + term on the ambient space of ``op``."""
    if op.is_l2:
        return add_rank_one(scale_shift(zero_like(op), 0.0, beta), term)
    zero = zero_like(op)
    return SumOp(zero, complex(beta), (term,))


def _positive_construction(op: OperatorRep, epsilon: float, prefix: int):
    """Shared logic for a positive ``op``; returns (case, S, inner, base certificate)."""
    cert = minimum_modulus(op, prefix=prefix)
    m = cert.value
    if cert.attained and m <= NULL_TOL:
        return PerturbationCase.NULL_DIRECTION_EXISTS, zero_like(op), None, cert
    if m > NULL_TOL:
        # a budget at or above m(T) would push past injectivity; halve instead
        inner = epsilon if epsilon < m else m / 2.0
        x = _near_minimizer(op, inner, cert, prefix, SCAN_LIMIT)
        s = add_rank_one(zero_like(op), RankOneTerm(-inner, x, x))
        return PerturbationCase.POSITIVE_BOUNDED_BELOW, s, inner, cert
    half = epsilon / 2.0
    inner = epsilon / 4.0  # anything in (0, eps/2) works; fix the midpoint
    shifted = scale_shift(op, 1.0, half)
    x = near_minimizer(shifted, inner, prefix=prefix)
    s = _shift_op(op, half, RankOneTerm(-inner, x, x))
    return PerturbationCase.VANISHING_INJECTIVE, s, inner, cert


def _certified_gap(perturbed: OperatorRep, original: OperatorRep,
                   norm_upper: float, prefix: int) -> tuple[float, str]:
    """An upper bound on the gap between T+S and T, best route available."""
    if not perturbed.is_l2:
        res = operator_gap_graph(perturbed, original)
        return res.value, res.route
    try:
        res = operator_gap_diagonal(perturbed, original, prefix=prefix)
        return res.value + res.tail_bound, res.route
    except (ValueError, NotRepresentableError):
        # gap never exceeds the norm distance for bounded differences
        return norm_upper, "norm_bound"


def _check_construction(case: PerturbationCase, base: AttainmentCertificate,
                        witness: AttainmentCertificate, inner: float | None):
    if not witness.attained:
        raise ArithmeticError("constructed perturbation failed to attain")
    if witness.residual is not None and witness.residual > 1e-8:
        raise ArithmeticError(f"witness residual too large: {witness.residual}")
    if case is PerturbationCase.POSITIVE_BOUNDED_BELOW:
        if not witness.value < base.value - inner / 2.0 + CHECK_TOL:
            raise ArithmeticError(
                f"m(T+S) = {witness.value} not below m(T) - eps/2 "
                f"= {base.value - inner / 2.0}")


def _finish(op: OperatorRep, s: OperatorRep, case: PerturbationCase,
            base: AttainmentCertificate, inner: float | None, tag: PerturbationCase,
            epsilon: float, prefix: int) -> PerturbationResult:
    """Certify T + S for a built S: witness, construction check, ||S|| and gap."""
    perturbed = add_operators(op, s)
    witness = minimum_modulus(perturbed, prefix=prefix)
    _check_construction(case, base, witness, inner)
    norm_s = operator_norm(s, prefix=prefix)
    gap_bound, gap_route = _certified_gap(perturbed, op,
                                          norm_s.value + norm_s.tail_slack, prefix)
    return PerturbationResult(s, tag, epsilon, inner, witness, norm_s, gap_bound, gap_route)


def attainment_perturbation_positive(op: OperatorRep, epsilon: float, *,
                                     prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Minimum-attaining perturbation of a positive operator.

    Case tags: "Case1" bounded below, "Case2" null direction (S = 0),
    "Case3" injective with vanishing minimum (S = (eps/2) I - cap).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_positive(op, "attainment_perturbation_positive")
    case, s, inner, base = _positive_construction(op, epsilon, prefix)
    return _finish(op, s, case, base, inner, case, epsilon, prefix)


# ---------------------------------------------------------------------------
# General closed operators via the polar decomposition
# ---------------------------------------------------------------------------


def attainment_perturbation(op: OperatorRep, epsilon: float, *,
                            prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Minimum-attaining perturbation of a general representable operator.

    Positive inputs keep their positive-case tags.  Otherwise T = V |T| is
    split, the positive construction runs on |T|, and S = V A is returned
    with tag "GeneralVA"; m(T + S) = m(|T| + A), which is re-derived from
    T + S directly and cross-checked.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ok, _ = _positivity(op)
    if ok:
        case, s, inner, base = _positive_construction(op, epsilon, prefix)
        return _finish(op, s, case, base, inner, case, epsilon, prefix)
    parts = polar(op)
    case, a, inner, base = _positive_construction(parts.modulus, epsilon, prefix)
    if case is PerturbationCase.NULL_DIRECTION_EXISTS:
        s = zero_like(op)  # nothing was composed; keep the honest tag
        tag = case
    else:
        # A has a constant tail (0 or eps/2), so the entrywise product with
        # the bounded phase tail of V needs no behaviour at infinity
        s = compose_operators(parts.isometry, a)
        tag = PerturbationCase.POLAR_COMPOSED
    result = _finish(op, s, case, base, inner, tag, epsilon, prefix)
    positive_witness = minimum_modulus(add_operators(parts.modulus, a), prefix=prefix)
    if abs(result.witness.value - positive_witness.value) > CHECK_TOL:
        raise ArithmeticError(f"m(T+S) = {result.witness.value} drifted from "
                              f"m(|T|+A) = {positive_witness.value}")
    return result


def bounded_below_perturbation(op: OperatorRep, epsilon: float, *,
                               prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Rank-one perturbation of a bounded-below operator, attainment kept.

    Requires m(T) > 0.  The perturbation is V S with S the positive-case
    rank-one cap for |T|, hence itself rank one; T + V S = V (|T| + S)
    stays bounded below with closed range and attains its minimum.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cert = minimum_modulus(op, prefix=prefix)
    if cert.value <= NULL_TOL:
        raise ValueError("bounded_below_perturbation requires m(T) > 0")
    parts = polar(op)
    inner = epsilon if epsilon < cert.value else cert.value / 2.0
    x = near_minimizer(parts.modulus, inner, prefix=prefix)
    a = add_rank_one(zero_like(op), RankOneTerm(-inner, x, x))
    s = compose_operators(parts.isometry, a)  # A's tail is the constant 0
    if isinstance(s, SumOp) and len(s.terms) > 1:
        raise ArithmeticError("composed perturbation is not rank one")
    return _finish(op, s, PerturbationCase.POSITIVE_BOUNDED_BELOW, cert, inner,
                   PerturbationCase.BOUNDED_BELOW_RANK_ONE, epsilon, prefix)


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def verify_perturbation(op: OperatorRep, result: PerturbationResult, *,
                        prefix: int = DEFAULT_PREFIX) -> PerturbationVerification:
    """Re-derive the three claims of a result from T and S alone.

    (1) ||S|| <= epsilon, (2) T + S attains its minimum modulus with a small
    witness residual, (3) the gap between T + S and T is at most epsilon.
    Nothing from the construction is trusted; T + S is rebuilt here.
    """
    norm_s = operator_norm(result.perturbation, prefix=prefix)
    norm_ok = norm_s.value + norm_s.tail_slack <= result.epsilon + STRICT_MARGIN
    perturbed = add_operators(op, result.perturbation)
    cert = minimum_modulus(perturbed, prefix=prefix)
    attain_ok = cert.attained and (cert.residual is not None and cert.residual <= 1e-8)
    gap_value, gap_route = _certified_gap(perturbed, op,
                                          norm_s.value + norm_s.tail_slack, prefix)
    gap_ok = gap_value <= result.epsilon + CHECK_TOL
    return PerturbationVerification(norm_s.value, norm_ok, cert, attain_ok,
                                    gap_value, gap_route, gap_ok)
