"""Minimum modulus, attainment certificates, and spectral structure.

The minimum modulus m(T) = inf { ||Tx|| : x in the unit sphere of the domain }
is computed exactly on the representable class: a dense block contributes its
smallest singular value, the diagonal tail contributes a prefix scan, and the
declared accumulation set bounds everything beyond the prefix.  The attainment
decision is then a comparison, not a heuristic: the infimum is attained if and
only if the prefix reaches at least as low as the tail can.

Spectral reports follow the same split.  Declared accumulation points form the
essential spectrum; truncation eigenvalues that stay isolated from it and from
each other are reported as discrete eigenvalues with multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_PREFIX,
    BlockTail,
    DiagSeq,
    MatrixOp,
    NotRepresentableError,
    OperatorRep,
    Vec,
    accumulation_points,
    block_tail,
    block_tail_op,
    map_seq,
    scalar_to_json,
    tail_diverges,
)
from .operators import _dense  # shared within the package

__all__ = [
    "AttainmentCertificate",
    "PolarParts",
    "SpectrumReport",
    "WeylReport",
    "minimum_modulus",
    "is_minimum_attaining",
    "square_root",
    "modulus",
    "polar",
    "essential_spectrum",
    "weyl_check",
]

# Entries this close to zero count as an exact null direction.
NULL_TOL = 1e-12
HERMITIAN_TOL = 1e-10
EIGEN_TOL = 1e-8
ISOLATION_GAP = 1e-6
MULTIPLICITY_TOL = 1e-9

# Self-adjointness and positivity look at this many diagonal entries.
SAMPLE = 4096

# Accumulation detection from raw truncation eigenvalues: a point is flagged
# when at least MIN_CLUSTER eigenvalues land within +-DETECT_WINDOW of it.
DETECT_WINDOW = 2.5e-4
MIN_CLUSTER = 25


@dataclass(frozen=True)
class AttainmentCertificate:
    """m(T) together with the attainment decision and its witness.

    ``witness`` is a unit vector with ||T w|| = value when attained (None
    otherwise); ``witness_index`` is set when the witness is a basis vector.
    ``residual`` is the recomputed | ||T w|| - value |.
    """

    value: float
    attained: bool
    witness: Vec | None = None
    witness_index: int | None = None
    residual: float | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"value": self.value, "attained": self.attained}
        if self.witness_index is not None:
            out["witnessIndex"] = self.witness_index
        elif self.witness is not None:
            out["witness"] = {"entries": [[i, scalar_to_json(z)]
                                          for i, z in self.witness.entries]}
        if self.residual is not None:
            out["residual"] = self.residual
        return out


@dataclass(frozen=True)
class PolarParts:
    """T = isometry . modulus with the isometry partial (kernel to kernel)."""

    isometry: OperatorRep
    modulus: OperatorRep


@dataclass(frozen=True)
class SpectrumReport:
    """Essential spectrum (declared) plus resolved discrete eigenvalues.

    Discrete entries are (value, multiplicity) pairs.  Eigenvalues closer
    than ``isolation_gap`` to the essential set, or to each other, are left
    unresolved rather than reported with made-up multiplicities.
    """

    essential: tuple[float, ...]
    essential_unbounded: bool
    discrete: tuple[tuple[float, int], ...]
    truncation: int

    def to_json_dict(self) -> dict:
        return {"essential": list(self.essential),
                "essentialUnbounded": self.essential_unbounded,
                "discrete": [[v, m] for v, m in self.discrete],
                "truncation": self.truncation}


@dataclass(frozen=True)
class WeylReport:
    """Essential spectra before and after a finite-rank self-adjoint bump."""

    essential_before: tuple[float, ...]
    essential_after: tuple[float, ...]
    unbounded_before: bool
    unbounded_after: bool
    agree: bool
    detected_before: tuple[float, ...]
    detected_after: tuple[float, ...]
    detected_match: bool
    truncation: int

    def to_json_dict(self) -> dict:
        return {"essentialBefore": list(self.essential_before),
                "essentialAfter": list(self.essential_after),
                "agree": self.agree,
                "detectedBefore": list(self.detected_before),
                "detectedAfter": list(self.detected_after),
                "detectedMatch": self.detected_match,
                "truncation": self.truncation}


# ---------------------------------------------------------------------------
# Minimum modulus
# ---------------------------------------------------------------------------


def _tail_abs_inf(bt: BlockTail) -> float:
    """Infimum of |entry| achievable beyond every finite prefix."""
    tail = bt.tail.tail
    pts = accumulation_points(tail)
    if pts:
        return min(abs(p) for p in pts)
    return math.inf  # purely divergent tail


def minimum_modulus(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> AttainmentCertificate:
    """m(T) with an attainment certificate.

    For matrices this is the smallest singular value and is always attained.
    For l2 operators the minimum over the block and the scanned prefix is
    compared against the declared tail infimum: attainment holds exactly
    when the prefix reaches at least as low as the tail ever will.
    Ties resolve to the block first, then to the smallest scan index.
    """
    if not op.is_l2:
        arr = _dense(op)
        u, s, vh = np.linalg.svd(arr)
        value = float(s[-1]) if s.size else 0.0
        witness = Vec.from_dense(vh[-1].conj(), dim=arr.shape[1])
        residual = abs(float(np.linalg.norm(arr @ vh[-1].conj())) - value)
        return AttainmentCertificate(value, True, witness, _basis_index(witness), residual)

    bt = block_tail(op)
    scan = np.abs(bt.tail_entries(prefix))
    scan_min = float(np.min(scan, initial=math.inf))
    tail_inf = _tail_abs_inf(bt)

    _, s, vh = np.linalg.svd(bt.block)
    block_min = float(s[-1]) if bt.k else math.inf
    if min(block_min, scan_min) <= tail_inf:
        if bt.k and block_min <= scan_min:
            witness = bt.embed(vh[-1].conj())
            value = block_min
        else:
            witness = Vec.basis(bt.tail_index(int(np.argmin(scan))))
            value = scan_min
        applied = op.apply(witness)
        residual = abs(applied.norm() / witness.norm() - value)
        return AttainmentCertificate(value, True, witness, _basis_index(witness), residual)
    return AttainmentCertificate(tail_inf, False, None, None, None)


def _basis_index(v: Vec) -> int | None:
    # witnesses are only determined up to phase: any unimodular multiple of
    # a basis vector names the same coordinate
    if len(v.entries) == 1 and abs(abs(v.entries[0][1]) - 1.0) <= 1e-12:
        return v.entries[0][0]
    return None


def is_minimum_attaining(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX,
                         crosscheck: bool = True) -> AttainmentCertificate:
    """Attainment decision; positive operators get an eigenvalue cross-check.

    When T is positive and the minimum is attained, m(T) must equal the
    smallest eigenvalue of a truncation large enough to contain the witness.
    A disagreement beyond EIGEN_TOL means the representation is inconsistent
    and raises ArithmeticError.
    """
    cert = minimum_modulus(op, prefix=prefix)
    if crosscheck and cert.attained:
        ok, _ = _positivity(op)
        if ok:
            size = 64
            if cert.witness is not None:
                size = max(size, cert.witness.max_index)
            eig_min = float(np.min(_truncation_eigs(op, min(max(size, 64), prefix))))
            if abs(eig_min - cert.value) > EIGEN_TOL:
                raise ArithmeticError(
                    f"attained minimum {cert.value} disagrees with truncation "
                    f"eigenvalue {eig_min}")
    return cert


# ---------------------------------------------------------------------------
# Positivity, square root, modulus, polar parts
# ---------------------------------------------------------------------------


def _hermitian(arr: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
    return float(np.max(np.abs(arr - arr.conj().T), initial=0.0)) <= HERMITIAN_TOL * scale


def _not_self_adjoint(op: OperatorRep) -> str:
    """Why T is not self-adjoint, or "" when it is (on the sampled prefix)."""
    if not op.is_l2:
        arr = _dense(op)
        if arr.shape[0] != arr.shape[1]:
            return "not square"
        return "" if _hermitian(arr) else "not self-adjoint"
    bt = block_tail(op)
    if not _hermitian(bt.block):
        return "block not self-adjoint"
    if float(np.max(np.abs(bt.tail_entries(SAMPLE).imag), initial=0.0)) > HERMITIAN_TOL:
        return "diagonal entries not real"
    for p in accumulation_points(bt.tail.tail):
        if abs(p.imag) > HERMITIAN_TOL:
            return f"accumulation point {p} not real"
    return ""


def _lowest_point(op: OperatorRep) -> float:
    """Lowest sampled spectral point of a self-adjoint T: the eigenvalues of
    its ``SAMPLE`` truncation and its declared accumulation points."""
    points = [p.real for p in accumulation_points(block_tail(op).tail.tail)] if op.is_l2 else []
    return min([float(np.min(_truncation_eigs(op, SAMPLE), initial=math.inf))] + points)


def _positivity(op: OperatorRep) -> tuple[bool, str]:
    """Check self-adjointness plus nonnegative spectrum on the sample prefix."""
    why = _not_self_adjoint(op)
    if why:
        return False, why
    lo = _lowest_point(op)
    if lo < -HERMITIAN_TOL:
        return False, f"negative spectral point {lo}"
    return True, ""


def _require_positive(op: OperatorRep, who: str):
    ok, why = _positivity(op)
    if not ok:
        raise ValueError(f"{who} requires a positive operator: {why}")


def _sqrt_psd(arr: np.ndarray) -> np.ndarray:
    if arr.size == 0:
        return arr
    w, u = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def square_root(op: OperatorRep) -> OperatorRep:
    """The positive square root of a positive operator, exactly representable."""
    _require_positive(op, "square_root")
    f = lambda a: np.sqrt(np.clip(a.real, 0.0, None))
    if not op.is_l2:
        return MatrixOp(_sqrt_psd(_dense(op)))
    bt = block_tail(op)
    tail = map_seq(bt.tail, f, at_infinity="diverges")
    return block_tail_op(BlockTail(bt.support, _sqrt_psd(bt.block), tail))


def _modulus_dense(arr: np.ndarray) -> np.ndarray:
    _, s, vh = np.linalg.svd(arr)
    return (vh.conj().T * s) @ vh


def modulus(op: OperatorRep) -> OperatorRep:
    """|T| = (T* T)^(1/2); block and tail transform independently."""
    if not op.is_l2:
        return MatrixOp(_modulus_dense(_dense(op)))
    bt = block_tail(op)
    tail = map_seq(bt.tail, np.abs, at_infinity="diverges")
    return block_tail_op(BlockTail(bt.support, _modulus_dense(bt.block), tail))


def _phase_seq(seq: DiagSeq, sample: int = 4096) -> DiagSeq:
    """Entrywise phase z/|z| (0 at 0) with a representable tail.

    When the declared tail avoids 0 and infinity the phase map is pushed
    through directly.  Otherwise the phase has no declared limit behaviour,
    so the tail is inferred from the late prefix; more than a few distinct
    phase clusters is rejected rather than misdeclared.
    """
    tail = seq.tail
    singular = tail_diverges(tail) or any(abs(p) < NULL_TOL for p in accumulation_points(tail))
    if not singular:
        return map_seq(seq, _phase_vec)
    window = seq.values(sample)[sample // 2:]
    phases = _phase_vec(window)
    reps: list[complex] = []
    for z in phases:
        if not any(abs(z - r) <= 1e-9 for r in reps):
            reps.append(complex(z))
    if len(reps) > 12:
        raise NotRepresentableError("phase tail has too many clusters to declare")
    from .operators import FiniteRange
    return map_seq(seq, _phase_vec, tail=FiniteRange(tuple(reps)))


def _phase_vec(a: np.ndarray) -> np.ndarray:
    mags = np.abs(a)
    out = np.zeros_like(a)
    nz = mags > 0
    out[nz] = a[nz] / mags[nz]
    return out


def polar(op: OperatorRep) -> PolarParts:
    """Polar decomposition T = V |T| with V a partial isometry."""
    if not op.is_l2:
        arr = _dense(op)
        u, s, vh = np.linalg.svd(arr)
        cut = max(arr.shape) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)
        r = int(np.sum(s > cut))
        return PolarParts(MatrixOp(u[:, :r] @ vh[:r, :]), MatrixOp(_modulus_dense(arr)))
    bt = block_tail(op)
    u, s, vh = np.linalg.svd(bt.block)
    cut = max(1, bt.k) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)
    r = int(np.sum(s > cut))
    isometry = block_tail_op(BlockTail(bt.support, u[:, :r] @ vh[:r, :], _phase_seq(bt.tail)))
    return PolarParts(isometry, modulus(op))


# ---------------------------------------------------------------------------
# Essential and discrete spectrum
# ---------------------------------------------------------------------------


def _require_self_adjoint(op: OperatorRep):
    why = _not_self_adjoint(op)
    if why:
        raise ValueError(f"spectral reports require a self-adjoint operator: {why}")


def _truncation_eigs(op: OperatorRep, n: int) -> np.ndarray:
    """Eigenvalues of the n x n truncation, exact via the block split.

    A block reaching past ``n`` contributes all its eigenvalues.
    """
    if not op.is_l2:
        return np.linalg.eigvalsh(_dense(op))
    bt = block_tail(op)
    return np.concatenate([np.linalg.eigvalsh(0.5 * (bt.block + bt.block.conj().T)),
                           bt.tail_entries(n).real])


def _cluster(values: np.ndarray, gap: float) -> list[tuple[float, int, float]]:
    """Group sorted reals into runs with neighbour gap <= ``gap``.

    Returns (mean, count, width) per run.
    """
    if values.size == 0:
        return []
    v = np.sort(values)
    out = []
    start = 0
    for i in range(1, v.size + 1):
        if i == v.size or v[i] - v[i - 1] > gap:
            chunk = v[start:i]
            out.append((float(np.mean(chunk)), int(chunk.size),
                        float(chunk[-1] - chunk[0])))
            start = i
    return out


def essential_spectrum(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX,
                       isolation_gap: float = ISOLATION_GAP) -> SpectrumReport:
    """Spectral report for a self-adjoint representable operator.

    The essential part is read off the declared accumulation set (empty for
    matrices).  Discrete eigenvalues come from truncation eigenvalues:
    exact multiplicity clusters (gap <= MULTIPLICITY_TOL) that stay at least
    ``isolation_gap`` away from the essential set and from every other
    cluster.  Anything closer is deliberately left unresolved.
    """
    _require_self_adjoint(op)
    if not op.is_l2:
        eigs = np.linalg.eigvalsh(_dense(op))
        scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        discrete = tuple((v, m) for v, m, _ in
                         _cluster(eigs, MULTIPLICITY_TOL * scale))
        return SpectrumReport((), False, discrete, eigs.size)

    bt = block_tail(op)
    tail = bt.tail.tail
    essential = tuple(sorted(p.real for p in accumulation_points(tail)))
    candidates = _truncation_eigs(op, prefix)
    clusters = _cluster(candidates, MULTIPLICITY_TOL)
    centers = [c for c, _, _ in clusters]
    discrete = []
    for i, (center, count, width) in enumerate(clusters):
        if width > MULTIPLICITY_TOL * max(1.0, abs(center)):
            continue
        if any(abs(center - e) <= isolation_gap for e in essential):
            continue
        near_left = i > 0 and center - centers[i - 1] <= isolation_gap
        near_right = i + 1 < len(centers) and centers[i + 1] - center <= isolation_gap
        if near_left or near_right:
            continue
        discrete.append((center, count))
    return SpectrumReport(essential, tail_diverges(tail), tuple(discrete), prefix)


def _detect_accumulation(values: np.ndarray, window: float = DETECT_WINDOW,
                         min_count: int = MIN_CLUSTER) -> tuple[float, ...]:
    """Accumulation candidates from raw eigenvalues, no declarations used.

    A value is flagged when >= min_count eigenvalues fall within +-window;
    each flagged run contributes its densest value.
    """
    if values.size == 0:
        return ()
    v = np.sort(np.asarray(values, dtype=float))
    counts = np.searchsorted(v, v + window, side="right") - \
        np.searchsorted(v, v - window, side="left")
    flagged = np.nonzero(counts >= min_count)[0]
    if flagged.size == 0:
        return ()
    out = []
    start = 0
    for j in range(1, flagged.size + 1):
        if j == flagged.size or v[flagged[j]] - v[flagged[j - 1]] > window:
            run = flagged[start:j]
            best = run[np.argmax(counts[run])]
            out.append(float(v[best]))
            start = j
    return tuple(out)


def weyl_check(op: OperatorRep, terms, *, prefix: int = DEFAULT_PREFIX,
               match_tol: float = 1e-3) -> WeylReport:
    """Essential spectrum is unmoved by a finite-rank self-adjoint bump.

    Besides comparing the declared essential sets before and after, the
    report re-detects accumulation points from raw truncation eigenvalues
    on both sides and checks the declared points are recovered to within
    ``match_tol`` (vacuous when the essential set is empty).
    """
    from .operators import add_rank_one
    perturbed = op
    for t in terms:
        perturbed = add_rank_one(perturbed, t)
    before = essential_spectrum(op, prefix=prefix)
    after = essential_spectrum(perturbed, prefix=prefix)
    agree = (len(before.essential) == len(after.essential)
             and all(abs(a - b) <= 1e-9 for a, b in zip(before.essential, after.essential))
             and before.essential_unbounded == after.essential_unbounded)
    det_before = _detect_accumulation(_truncation_eigs(op, prefix))
    det_after = _detect_accumulation(_truncation_eigs(perturbed, prefix))
    def covered(declared, detected):
        return all(any(abs(d - p) <= match_tol for d in detected) for p in declared)
    detected_match = covered(before.essential, det_before) and \
        covered(after.essential, det_after)
    return WeylReport(before.essential, after.essential,
                      before.essential_unbounded, after.essential_unbounded,
                      agree, det_before, det_after, detected_match, prefix)
