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
* injective with m(T) = 0: cap T + (eps/2) I with an inner parameter eps/4
  at a near minimizer of T, so S = (eps/2) I - C.  The shift costs eps/2 in
  norm and raises every <Tx, x> and m(T) alike, so T's near minimizers
  serve T + (eps/2) I and the cap hands it an attained minimum.

A general T routes through its polar decomposition T = V |T|: build A for
the positive |T|, compose S = V A, and m(T + S) = m(|T| + A) transfers the
witness.  The bounded-below construction is this path with Case 1 required
(m(|T|) > 0); the composed perturbation is again rank one, so closed range
survives along with attainment.

The gap bound is taken where the graphs of T + S and T differ, from
range(S*) of the S being certified (see ``gap._perturbation_gap``), so an
l2 S whose tail is 0 costs no tail scan.
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
    operator_to_json,
    scale_shift,
    zero_like,
)
from .spectral import (
    NULL_TOL,
    AttainmentCertificate,
    minimum_modulus,
    _polar,
    _positivity,
    _require_positive,
)
from .gap import _perturbation_gap

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
    between T + S and T, measured by ``gap_route`` ("diagonal" or "graph"):
    the kernel that compared the graphs where they differ, on range(S*) of
    a matrix S or on the blocks of an l2 pair.
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

    Positive operators only.  Matrices take the witness of m(T), an
    eigenvector at the least eigenvalue; l2 operators take the block
    eigenvector when it qualifies and the smallest qualifying diagonal index
    off the block otherwise, scanning lazily past the prefix up to
    ``scan_limit`` entries.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_positive(op, "near_minimizer")
    return _near_minimizer(op, epsilon, minimum_modulus(op, prefix=prefix), prefix, scan_limit)


def _near_minimizer(op: OperatorRep, epsilon: float, cert: AttainmentCertificate,
                    prefix: int, scan_limit: int) -> Vec:
    """:func:`near_minimizer` of a positive T whose m(T) certificate is ``cert``.

    A matrix returns the certificate's witness, no eigendecomposition needed.
    """
    threshold = cert.value + epsilon / 2.0

    if not op.is_l2:
        if not cert.value < threshold - STRICT_MARGIN:
            raise ValueError("epsilon too small to leave a strict margin")
        return cert.witness

    bt = block_tail(op)
    if bt.k:
        w, u = np.linalg.eigh(0.5 * (bt.block + bt.block.conj().T))
        if w[0] < threshold - STRICT_MARGIN:
            return bt.embed(u[:, 0])
    # 1..prefix first, then each doubling window (n, 2n]: no entry is read twice
    start, n = 1, max(prefix, 1)
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


def _positive_construction(op: OperatorRep, epsilon: float, cert: AttainmentCertificate,
                           prefix: int) -> tuple[PerturbationCase, OperatorRep, float | None]:
    """Case, S and inner cap parameter for a positive T whose m(T) certificate is ``cert``."""
    m = cert.value
    if cert.attained and m <= NULL_TOL:
        return PerturbationCase.NULL_DIRECTION_EXISTS, zero_like(op), None
    if m > NULL_TOL:
        case, shift = PerturbationCase.POSITIVE_BOUNDED_BELOW, 0.0
        # a budget at or above m(T) would push past injectivity; halve instead
        inner = epsilon if epsilon < m else m / 2.0
    else:
        case, shift = PerturbationCase.VANISHING_INJECTIVE, epsilon / 2.0
        inner = epsilon / 4.0  # anything in (0, eps/2) works; fix the midpoint
    x = _near_minimizer(op, inner, cert, prefix, SCAN_LIMIT)
    s = add_rank_one(scale_shift(zero_like(op), 0.0, shift), RankOneTerm(-inner, x, x))
    return case, s, inner


def _certify(op: OperatorRep, s: OperatorRep,
             prefix: int) -> tuple[AttainmentCertificate, NormBound, float, str]:
    """m(T + S) with its witness, ||S||, and an upper bound on gap(T + S, T) with its route."""
    perturbed = add_operators(op, s)
    witness = minimum_modulus(perturbed, prefix=prefix)
    norm_s, gap = _perturbation_gap(op, s, perturbed, prefix)
    return witness, norm_s, gap.value + gap.tail_bound, gap.route


def _finish(op: OperatorRep, s: OperatorRep, case: PerturbationCase,
            base: AttainmentCertificate, inner: float | None, tag: PerturbationCase,
            epsilon: float, prefix: int) -> PerturbationResult:
    """Certify T + S for a built S and check the witness against the construction."""
    witness, norm_s, gap_bound, gap_route = _certify(op, s, prefix)
    if not witness.attained:
        raise ArithmeticError("constructed perturbation failed to attain")
    if witness.residual is not None and witness.residual > 1e-8:
        raise ArithmeticError(f"witness residual too large: {witness.residual}")
    if case is PerturbationCase.POSITIVE_BOUNDED_BELOW:
        if not witness.value < base.value - inner / 2.0 + CHECK_TOL:
            raise ArithmeticError(
                f"m(T+S) = {witness.value} not below m(T) - eps/2 "
                f"= {base.value - inner / 2.0}")
    return PerturbationResult(s, tag, epsilon, inner, witness, norm_s, gap_bound, gap_route)


def _positive_result(op: OperatorRep, epsilon: float, prefix: int) -> PerturbationResult:
    """The positive construction for a T already checked to be positive."""
    base = minimum_modulus(op, prefix=prefix)
    case, s, inner = _positive_construction(op, epsilon, base, prefix)
    return _finish(op, s, case, base, inner, case, epsilon, prefix)


def attainment_perturbation_positive(op: OperatorRep, epsilon: float, *,
                                     prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Minimum-attaining perturbation of a positive operator.

    Case tags: "Case1" bounded below, "Case2" null direction (S = 0),
    "Case3" injective with vanishing minimum (S = (eps/2) I - cap).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_positive(op, "attainment_perturbation_positive")
    return _positive_result(op, epsilon, prefix)


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
        return _positive_result(op, epsilon, prefix)
    parts, base = _polar(op, prefix)
    case, a, inner = _positive_construction(parts.modulus, epsilon, base, prefix)
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

    Requires m(T) = m(|T|) > 0.  This is the polar path with Case 1 forced:
    S = V A with A the rank-one cap for |T|, hence itself rank one;
    T + V A = V (|T| + A) stays bounded below with closed range and attains
    its minimum.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    parts, base = _polar(op, prefix)
    if base.value <= NULL_TOL:
        raise ValueError("bounded_below_perturbation requires m(T) > 0")
    case, a, inner = _positive_construction(parts.modulus, epsilon, base, prefix)
    s = compose_operators(parts.isometry, a)  # A's tail is the constant 0
    if isinstance(s, SumOp) and len(s.terms) > 1:
        raise ArithmeticError("composed perturbation is not rank one")
    return _finish(op, s, case, base, inner, PerturbationCase.BOUNDED_BELOW_RANK_ONE,
                   epsilon, prefix)


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
    cert, norm_s, gap_value, gap_route = _certify(op, result.perturbation, prefix)
    norm_ok = norm_s.value + norm_s.tail_slack <= result.epsilon + STRICT_MARGIN
    attain_ok = cert.attained and (cert.residual is not None and cert.residual <= 1e-8)
    gap_ok = gap_value <= result.epsilon + CHECK_TOL
    return PerturbationVerification(norm_s.value, norm_ok, cert, attain_ok,
                                    gap_value, gap_route, gap_ok)
