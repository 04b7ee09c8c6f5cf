"""Small perturbations that force the minimum modulus to be attained.

Given a representable closed operator T and a budget epsilon, construct S
with ||S|| <= epsilon such that T + S attains its minimum modulus.  The
construction predicts the witness and m(T + S), ||S|| and a gap bound
without scanning or decomposing T + S; ``verify_perturbation`` certifies
them from T and S alone and holds them to the predictions.

For positive P one of three shapes applies:

* bounded below (m(P) > 0): a rank-one cap at a near-minimizing unit
  vector x, S = -eps <., x> x.
* a null direction exists: nothing to do, S = 0.
* injective with m(P) = 0: S = (eps/2) I - (eps/4) <., x> x.  The shift
  raises every <Px, x> and m(P) alike, so P's near minimizers serve
  P + (eps/2) I.

x is an eigenvector of P with eigenvalue lambda < m(P) + inner/2 (the
witness of m(P) on a matrix, a block eigenvector or a basis vector on l2),
so P reduces over span{x} and its complement.  With shift c and cap
inner, P + S has the spectrum {lambda + c - inner} and sigma(P on x-perp)
+ c >= m(P) + c: m(P + S) = lambda + c - inner, attained at x, ||S|| =
max(c, |c - inner|), and gap(P + S, P) <= ||S|| since each unit
(x, (P + S)x) lies within ||Sx|| of (x, Px) (Kato IV §2).

A general T routes through its polar decomposition T = V |T|: A is built
for |T| and S = V A; T + S = V (|T| + A) with V isometric, so every
prediction carries over.  The bounded-below construction is this path with
Case 1 required (m(|T|) > 0); S is again rank one, so closed range
survives along with attainment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .operators import (
    DEFAULT_PREFIX,
    InconclusiveError,
    NormBound,
    NotRepresentableError,
    OperatorRep,
    RankOneTerm,
    Vec,
    add_operators,
    add_rank_one,
    block_tail,
    compose_operators,
    operator_to_json,
    scale_shift,
    zero_like,
    _zero_matrix,
)
from .spectral import (
    NULL_TOL,
    AttainmentCertificate,
    minimum_modulus,
    polar,
    _basis_index,
    _isometry,
    _minimum_modulus,
    _positivity,
    _require_positive,
)
from .gap import GapResult, _perturbation_gap

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
# certified numbers agree with the predictions within CHECK_TOL, and a
# certified witness attains m within RESIDUAL_TOL, both times max(1, sigma_1)
CHECK_TOL = 1e-10
RESIDUAL_TOL = 1e-8
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
    """The perturbation S plus what the construction predicts about T + S.

    ``inner_epsilon`` is the effective cap parameter (smaller than epsilon
    when the budget exceeded m(T), eps/4 on the vanishing-injective path,
    None when S = 0).  ``witness`` holds the predicted witness x and
    m(T + S), with no residual since nothing was measured; ``norm_s`` is the
    predicted ||S|| and ``gap_bound`` the predicted bound ||S|| on the gap
    between T + S and T.  :func:`verify_perturbation` certifies each one.
    """

    perturbation: OperatorRep
    case: PerturbationCase
    epsilon: float
    inner_epsilon: float | None
    witness: AttainmentCertificate
    norm_s: NormBound
    gap_bound: float

    def to_json_dict(self) -> dict:
        try:
            portable = operator_to_json(self.perturbation)
        except NotRepresentableError:
            # a perturbation composed through a lazy isometry may have no
            # portable form; the predicted numbers above still do
            portable = None
        return {"caseTag": self.case.value,
                "epsilon": self.epsilon,
                "innerEpsilon": self.inner_epsilon,
                "witness": self.witness.to_json_dict(),
                "normS": self.norm_s.value,
                "gapBound": self.gap_bound,
                "perturbation": portable}


@dataclass(frozen=True)
class PerturbationVerification:
    """Certified checks of a perturbation result against its claims and predictions."""

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
    _require_positive(op, "near_minimizer", prefix)
    return _near_minimizer(op, epsilon, minimum_modulus(op, prefix=prefix), prefix, scan_limit)[0]


def _near_minimizer(op: OperatorRep, epsilon: float, cert: AttainmentCertificate,
                    prefix: int, scan_limit: int) -> tuple[Vec, float]:
    """:func:`near_minimizer` of a positive T whose m(T) certificate is ``cert``,
    with the eigenvalue of T at the vector it returns.

    A matrix returns the certificate's witness, no eigendecomposition needed.
    """
    threshold = cert.value + epsilon / 2.0

    if not op.is_l2:
        if not cert.value < threshold - STRICT_MARGIN:
            raise ValueError("epsilon too small to leave a strict margin")
        return cert.witness, cert.value

    bt = block_tail(op)
    if bt.k:
        w, u = np.linalg.eigh(0.5 * (bt.block + bt.block.conj().T))
        if w[0] < threshold - STRICT_MARGIN:
            return bt.embed(u[:, 0]), float(w[0])
    # 1..prefix first, then each doubling window (n, 2n]: no entry is read twice
    start, n = 1, max(prefix, 1)
    while True:
        for indices, vals in bt.tail_blocks(n, start):
            hits = np.flatnonzero(vals.real < threshold - STRICT_MARGIN)
            if hits.size:
                return Vec.basis(int(indices[hits[0]])), float(vals[hits[0]].real)
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
                           prefix: int) -> PerturbationResult:
    """S and its predictions for a positive T whose m(T) certificate is ``cert``."""
    m = cert.value
    if cert.attained and m <= NULL_TOL:
        # S = 0, and T attains m(T) at the certificate's witness already
        witness = AttainmentCertificate(m, True, cert.witness, cert.witness_index)
        return PerturbationResult(zero_like(op), PerturbationCase.NULL_DIRECTION_EXISTS,
                                  epsilon, None, witness, NormBound(0.0), 0.0)
    if m > NULL_TOL:
        case, shift = PerturbationCase.POSITIVE_BOUNDED_BELOW, 0.0
        # a budget at or above m(T) would push past injectivity; halve instead
        inner = epsilon if epsilon < m else m / 2.0
    else:
        case, shift = PerturbationCase.VANISHING_INJECTIVE, epsilon / 2.0
        inner = epsilon / 4.0  # anything in (0, eps/2) works; fix the midpoint
    x, lam = _near_minimizer(op, inner, cert, prefix, SCAN_LIMIT)
    s = add_rank_one(scale_shift(zero_like(op), 0.0, shift), RankOneTerm(-inner, x, x))
    # S = shift I - inner x x* has the eigenvalues shift and shift - inner
    norm = max(shift, abs(shift - inner))
    witness = AttainmentCertificate(lam + shift - inner, True, x, _basis_index(x))
    return PerturbationResult(s, case, epsilon, inner, witness, NormBound(norm), norm)


def attainment_perturbation_positive(op: OperatorRep, epsilon: float, *,
                                     prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Minimum-attaining perturbation of a positive operator.

    Case tags: "Case1" bounded below, "Case2" null direction (S = 0),
    "Case3" injective with vanishing minimum (S = (eps/2) I - cap).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_positive(op, "attainment_perturbation_positive", prefix)
    return _positive_construction(op, epsilon, minimum_modulus(op, prefix=prefix), prefix)


# ---------------------------------------------------------------------------
# General closed operators via the polar decomposition
# ---------------------------------------------------------------------------


def _polar_parts(op: OperatorRep) -> tuple[OperatorRep, OperatorRep]:
    """T's isometry V and the operator the positive construction caps: |T| on l2.  On a
    matrix that construction reads |T| only for its n x n shape, since m(|T|) and its
    witness are m(T)'s, so the n x n zero stands in and no |T| is formed."""
    if op.is_l2:
        parts = polar(op)
        return parts.isometry, parts.modulus
    isometry = _isometry(op)
    return isometry, _zero_matrix(isometry.cols, isometry.cols)


def attainment_perturbation(op: OperatorRep, epsilon: float, *,
                            prefix: int = DEFAULT_PREFIX) -> PerturbationResult:
    """Minimum-attaining perturbation of a general representable operator.

    Positive inputs keep their positive-case tags.  Otherwise T = V |T| is
    split, the positive construction runs on |T|, and S = V A is returned
    with tag "GeneralVA"; m(T + S) = m(|T| + A) at the same witness, so the
    predictions for |T| + A are those for T + S.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ok, _ = _positivity(op, prefix)
    if ok:
        return _positive_construction(op, epsilon, minimum_modulus(op, prefix=prefix), prefix)
    isometry, positive = _polar_parts(op)
    res = _positive_construction(positive, epsilon, minimum_modulus(op, prefix=prefix), prefix)
    if res.case is PerturbationCase.NULL_DIRECTION_EXISTS:
        return replace(res, perturbation=zero_like(op))  # nothing composed; keep the honest tag
    # A has a constant tail (0 or eps/2), so the entrywise product with the
    # bounded phase tail of V needs no behaviour at infinity
    return replace(res, perturbation=compose_operators(isometry, res.perturbation),
                   case=PerturbationCase.POLAR_COMPOSED)


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
    (isometry, positive), base = _polar_parts(op), minimum_modulus(op, prefix=prefix)
    if base.value <= NULL_TOL:
        raise ValueError("bounded_below_perturbation requires m(T) > 0")
    res = _positive_construction(positive, epsilon, base, prefix)
    s = compose_operators(isometry, res.perturbation)  # maps A's one term to one term
    if len(getattr(s, "terms", ())) != 1:
        raise ArithmeticError("composed perturbation is not rank one")
    return replace(res, perturbation=s, case=PerturbationCase.BOUNDED_BELOW_RANK_ONE)


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def _certify(op: OperatorRep, s: OperatorRep, prefix: int
             ) -> tuple[OperatorRep, AttainmentCertificate, float, NormBound, GapResult]:
    """T + S, m(T + S) with its witness, the scale max(1, sigma_1, m) of the
    SVD behind it, ||S|| and gap(T + S, T)."""
    perturbed = add_operators(op, s)
    witness, top = _minimum_modulus(perturbed, prefix)
    norm_s, gap = _perturbation_gap(op, s, perturbed, prefix)
    scale = max(1.0, top, witness.value if witness.attained else 0.0)
    return perturbed, witness, scale, norm_s, gap


def _witness_agrees(perturbed: OperatorRep, cert: AttainmentCertificate,
                    predicted: AttainmentCertificate, tol: float) -> bool:
    """A predicted basis witness names the certified index; any other attains m."""
    if predicted.witness_index is not None and cert.witness_index is not None:
        return predicted.witness_index == cert.witness_index
    return abs(perturbed.apply(predicted.witness).norm() - cert.value) <= tol


def verify_perturbation(op: OperatorRep, result: PerturbationResult, *,
                        prefix: int = DEFAULT_PREFIX) -> PerturbationVerification:
    """Certify the three claims of a result from T and S alone.

    (1) ||S|| <= epsilon, (2) T + S attains its minimum modulus with a
    witness residual within RESIDUAL_TOL * scale, (3) the gap between T + S
    and T is at most epsilon.  Each certified number must also agree with
    the result's prediction within CHECK_TOL * scale: ||S|| and m(T + S) both
    ways, the gap at most the predicted bound, and the witness by
    ``_witness_agrees``.  The scale is max(1, sigma_1, m), sigma_1 the largest
    singular value of the SVD that certified m(T + S) (of the block on l2).
    Nothing else from the construction is used; T + S is rebuilt here.
    """
    perturbed, cert, scale, norm_s, gap = _certify(op, result.perturbation, prefix)
    tol = CHECK_TOL * scale
    gap_value = gap.value + gap.tail_bound
    norm_ok = (norm_s.value + norm_s.tail_slack <= result.epsilon + STRICT_MARGIN
               and abs(norm_s.value - result.norm_s.value) <= tol)
    attain_ok = (cert.attained and cert.residual is not None
                 and cert.residual <= RESIDUAL_TOL * scale
                 and abs(cert.value - result.witness.value) <= tol
                 and _witness_agrees(perturbed, cert, result.witness, tol))
    gap_ok = gap_value <= result.epsilon + CHECK_TOL and gap_value <= result.gap_bound + tol
    return PerturbationVerification(norm_s.value, norm_ok, cert, attain_ok,
                                    gap_value, gap.route, gap_ok)
