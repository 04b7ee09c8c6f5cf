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
    FiniteRange,
    MatrixOp,
    NotRepresentableError,
    OperatorRep,
    Vec,
    accumulation_points,
    add_rank_one,
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
# weyl_check: a declared point counts as recovered within this distance
MATCH_TOL = 1e-3

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

    Discrete entries are (value, multiplicity) pairs.  Eigenvalues within
    ``ISOLATION_GAP`` of the essential set or of each other are left
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

    For matrices this is the smallest singular value and is always attained;
    a wide matrix has a kernel, so its minimum is 0 at a kernel vector.
    For l2 operators the minimum over the block and the scanned prefix is
    compared against the declared tail infimum: attainment holds exactly
    when the prefix reaches at least as low as the tail ever will.
    Ties resolve to the block first, then to the smallest scan index.
    """
    if not op.is_l2:
        arr = _dense(op)
        _, s, vh = np.linalg.svd(arr)
        value = float(s[-1]) if s.size == arr.shape[1] else 0.0
        witness = Vec.from_dense(vh[-1].conj(), dim=arr.shape[1])
        residual = abs(float(np.linalg.norm(arr @ vh[-1].conj())) - value)
        return AttainmentCertificate(value, True, witness, _basis_index(witness), residual)

    bt = block_tail(op)
    # per block: the smallest |entry| and the first index holding it
    mins, where = [], []
    for indices, vals in bt.tail_blocks(prefix):
        scan = np.abs(vals)
        i = int(np.argmin(scan))
        mins.append(scan[i])
        where.append(int(indices[i]))
    scan_min = float(np.min(mins, initial=math.inf))
    tail_inf = _tail_abs_inf(bt)

    _, s, vh = np.linalg.svd(bt.block)
    block_min = float(s[-1]) if bt.k else math.inf
    if min(block_min, scan_min) <= tail_inf:
        if bt.k and block_min <= scan_min:
            witness = bt.embed(vh[-1].conj())
            value = block_min
        else:
            witness = Vec.basis(where[int(np.argmin(mins))])
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


def is_minimum_attaining(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> AttainmentCertificate:
    """Attainment decision; positive operators get an eigenvalue cross-check.

    When T is positive and the minimum is attained, m(T) must equal the
    smallest eigenvalue of a truncation large enough to contain the witness.
    A disagreement beyond EIGEN_TOL means the representation is inconsistent
    and raises ArithmeticError.
    """
    cert = minimum_modulus(op, prefix=prefix)
    if cert.attained:
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
    imag = 0.0
    for _, vals in bt.tail_blocks(SAMPLE):
        imag = np.maximum(imag, np.max(np.abs(vals.imag)))
    if imag > HERMITIAN_TOL:
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


def _modulus_from_svd(bt: BlockTail | None, s: np.ndarray, vh: np.ndarray) -> OperatorRep:
    """|T| from the SVD of T's matrix (``bt`` None) or of its block."""
    vh = vh[:s.size]  # a wide matrix has more right singular vectors than values
    root = (vh.conj().T * s) @ vh
    if bt is None:
        return MatrixOp(root)
    tail = map_seq(bt.tail, np.abs, at_infinity="diverges")
    return block_tail_op(BlockTail(bt.support, root, tail))


def modulus(op: OperatorRep) -> OperatorRep:
    """|T| = (T* T)^(1/2); block and tail transform independently."""
    bt = block_tail(op) if op.is_l2 else None
    _, s, vh = np.linalg.svd(_dense(op) if bt is None else bt.block)
    return _modulus_from_svd(bt, s, vh)


def _phase_seq(seq: DiagSeq) -> DiagSeq:
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
    window = seq.values(SAMPLE)[SAMPLE // 2:]
    phases = _phase_vec(window)
    reps: list[complex] = []
    for z in phases:
        if not any(abs(z - r) <= 1e-9 for r in reps):
            reps.append(complex(z))
            if len(reps) > 12:
                raise NotRepresentableError("phase tail has too many clusters to declare")
    return map_seq(seq, _phase_vec, tail=FiniteRange(tuple(reps)))


def _phase_vec(a: np.ndarray) -> np.ndarray:
    mags = np.abs(a)
    out = np.zeros_like(a)
    nz = mags > 0
    out[nz] = a[nz] / mags[nz]
    return out


def polar(op: OperatorRep) -> PolarParts:
    """Polar decomposition T = V |T| with V a partial isometry."""
    bt = block_tail(op) if op.is_l2 else None
    arr = _dense(op) if bt is None else bt.block
    u, s, vh = np.linalg.svd(arr)
    cut = max(1, *arr.shape) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)
    r = int(np.sum(s > cut))
    if bt is None:
        isometry = MatrixOp(u[:, :r] @ vh[:r, :])
    else:
        isometry = block_tail_op(BlockTail(bt.support, u[:, :r] @ vh[:r, :], _phase_seq(bt.tail)))
    return PolarParts(isometry, _modulus_from_svd(bt, s, vh))


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
    inside = int(np.searchsorted(bt.support, n, side="right"))
    eigs = np.empty(bt.k + n - inside)
    eigs[:bt.k] = np.linalg.eigvalsh(0.5 * (bt.block + bt.block.conj().T))
    at = bt.k
    for _, vals in bt.tail_blocks(n):
        eigs[at:at + vals.size] = vals.real
        at += vals.size
    return eigs


def _sorted_eigs(op: OperatorRep, n: int) -> np.ndarray:
    eigs = _truncation_eigs(op, n)
    eigs.sort()
    return eigs


def _runs(v: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and end positions of the runs of sorted ``v`` whose neighbour gaps are <= ``gap``."""
    if v.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    cuts = np.flatnonzero(np.diff(v) > gap) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [v.size]))


def _cluster(v: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, count and width of each run of sorted ``v`` with neighbour gap <= ``gap``."""
    starts, ends = _runs(v, gap)
    counts = ends - starts
    means = v[starts] + 0.0  # np.mean of one value: -0.0 becomes 0.0
    for i in np.flatnonzero(counts > 1):
        means[i] = np.mean(v[starts[i]:ends[i]])
    return means, counts, v[ends - 1] - v[starts]


def _spectrum_report(op: OperatorRep, eigs: np.ndarray, prefix: int) -> SpectrumReport:
    if not op.is_l2:
        scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        means, counts, _ = _cluster(eigs, MULTIPLICITY_TOL * scale)
        return SpectrumReport((), False, tuple(zip(means.tolist(), counts.tolist())), eigs.size)

    tail = block_tail(op).tail.tail
    essential = tuple(sorted(p.real for p in accumulation_points(tail)))
    means, counts, widths = _cluster(eigs, MULTIPLICITY_TOL)
    keep = ~(widths > MULTIPLICITY_TOL * np.fmax(1.0, np.abs(means)))
    for e in essential:
        keep &= ~(np.abs(means - e) <= ISOLATION_GAP)
    crowded = np.diff(means) <= ISOLATION_GAP
    keep[1:] &= ~crowded
    keep[:-1] &= ~crowded
    discrete = tuple(zip(means[keep].tolist(), counts[keep].tolist()))
    return SpectrumReport(essential, tail_diverges(tail), discrete, prefix)


def essential_spectrum(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> SpectrumReport:
    """Spectral report for a self-adjoint representable operator.

    The essential part is read off the declared accumulation set (empty for
    matrices).  Discrete eigenvalues come from truncation eigenvalues:
    exact multiplicity clusters (gap <= MULTIPLICITY_TOL) that stay more
    than ``ISOLATION_GAP`` away from the essential set and from every other
    cluster.  Anything closer is deliberately left unresolved.  The cost is
    one sort of the prefix eigenvalues and a few array passes over them.
    """
    _require_self_adjoint(op)
    return _spectrum_report(op, _sorted_eigs(op, prefix), prefix)


def _detect_accumulation(v: np.ndarray) -> tuple[float, ...]:
    """Accumulation candidates from sorted raw eigenvalues, no declarations used.

    A value is flagged when >= MIN_CLUSTER eigenvalues fall within
    +-DETECT_WINDOW; each run of flagged values contributes its densest
    value, the lowest one on a tie.
    """
    counts = np.searchsorted(v, v + DETECT_WINDOW, side="right")
    counts -= np.searchsorted(v, v - DETECT_WINDOW, side="left")
    flagged = np.flatnonzero(counts >= MIN_CLUSTER)
    starts, ends = _runs(v[flagged], DETECT_WINDOW)
    if starts.size == 0:
        return ()
    counts = counts[flagged]
    peak = np.repeat(np.maximum.reduceat(counts, starts), ends - starts)
    hits = np.flatnonzero(counts == peak)
    # every run holds a hit, so the first hit at or after its start is its own
    return tuple(v[flagged[hits[np.searchsorted(hits, starts)]]].tolist())


def _report_and_detected(op: OperatorRep, prefix: int) -> tuple[SpectrumReport, tuple[float, ...]]:
    # one sorted eigenvalue array serves both; it is dropped on return
    _require_self_adjoint(op)
    eigs = _sorted_eigs(op, prefix)
    return _spectrum_report(op, eigs, prefix), _detect_accumulation(eigs)


def weyl_check(op: OperatorRep, terms, *, prefix: int = DEFAULT_PREFIX) -> WeylReport:
    """Essential spectrum is unmoved by a finite-rank self-adjoint bump.

    Besides comparing the declared essential sets before and after, the
    report re-detects accumulation points from raw truncation eigenvalues
    on both sides and checks the declared points are recovered to within
    ``MATCH_TOL`` (vacuous when the essential set is empty).  Each side
    evaluates its prefix once, one side after the other.
    """
    perturbed = op
    for t in terms:
        perturbed = add_rank_one(perturbed, t)
    before, det_before = _report_and_detected(op, prefix)
    after, det_after = _report_and_detected(perturbed, prefix)
    agree = (len(before.essential) == len(after.essential)
             and all(abs(a - b) <= 1e-9 for a, b in zip(before.essential, after.essential))
             and before.essential_unbounded == after.essential_unbounded)
    def covered(declared, detected):
        return all(any(abs(d - p) <= MATCH_TOL for d in detected) for p in declared)
    detected_match = covered(before.essential, det_before) and \
        covered(after.essential, det_after)
    return WeylReport(before.essential, after.essential,
                      before.essential_unbounded, after.essential_unbounded,
                      agree, det_before, det_after, detected_match, prefix)
