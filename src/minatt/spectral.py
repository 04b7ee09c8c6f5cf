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

import bisect
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

# Positivity looks at no fewer diagonal entries than this.
SAMPLE = 4096

# Accumulation detection from raw truncation eigenvalues: a point is flagged
# when at least MIN_CLUSTER eigenvalues land within +-DETECT_WINDOW of it.
DETECT_WINDOW = 2.5e-4
MIN_CLUSTER = 25
_COUNT_CHUNK = 1 << 14  # sorted values per slice in _detect_accumulation


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
    return _minimum_modulus(op, prefix)[0]


def _minimum_modulus(op: OperatorRep, prefix: int) -> tuple[AttainmentCertificate, float]:
    """:func:`minimum_modulus` and the largest singular value of ``op.svd``,
    T's matrix's or its block's (0 with no block)."""
    _, s, vh = op.svd
    if not op.is_l2:  # a wide matrix has a kernel: fewer singular values than columns
        arr = _dense(op)
        value = float(s[-1]) if s.size == arr.shape[1] else 0.0
        witness = Vec.from_dense(vh[-1].conj(), dim=arr.shape[1])
        residual = abs(float(np.linalg.norm(arr @ vh[-1].conj())) - value)
        cert = AttainmentCertificate(value, True, witness, _basis_index(witness), residual)
        return cert, float(s[0])

    bt = block_tail(op)
    summary = bt.summary(prefix)
    scan_min = summary.abs_min
    tail_inf = _tail_abs_inf(bt)
    block_min, top = (float(s[-1]), float(s[0])) if bt.k else (math.inf, 0.0)
    if min(block_min, scan_min) <= tail_inf:
        if bt.k and block_min <= scan_min:
            witness = bt.embed(vh[-1].conj())
            value = block_min
        else:
            witness = Vec.basis(summary.abs_at)
            value = scan_min
        applied = op.apply(witness)
        residual = abs(applied.norm() / witness.norm() - value)
        return AttainmentCertificate(value, True, witness, _basis_index(witness), residual), top
    return AttainmentCertificate(tail_inf, False, None, None, None), top


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
        ok, _ = _positivity(op, prefix)
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


def _not_self_adjoint(op: OperatorRep, prefix: int | None = None) -> str:
    """Why T is not self-adjoint, or "" when its matrix, or its block, its tail entries at
    1..``prefix`` (``BlockTail.summary``) and its declared points, are.  Without a prefix it
    reads no tail entry: the spectral reports' ``_with_tail`` refuses one off the real line."""
    if not op.is_l2:
        arr = _dense(op)
        if arr.shape[0] != arr.shape[1]:
            return "not square"
        return "" if _hermitian(arr) else "not self-adjoint"
    bt = block_tail(op)
    if not _hermitian(bt.block):
        return "block not self-adjoint"
    if prefix is not None and bt.summary(prefix).imag_max > HERMITIAN_TOL:
        return "diagonal entries not real"
    for p in accumulation_points(bt.tail.tail):
        if abs(p.imag) > HERMITIAN_TOL:
            return f"accumulation point {p} not real"
    return ""


def _lowest_point(op: OperatorRep, prefix: int) -> float:
    """Lowest spectral point of T seen over ``prefix`` entries: its matrix's least eigenvalue,
    or its block's, its tail summary's least real part and its declared accumulation points."""
    if not op.is_l2:
        return float(np.min(np.linalg.eigvalsh(_dense(op)), initial=math.inf))
    bt = block_tail(op)
    points = [p.real for p in accumulation_points(bt.tail.tail)]
    block = np.linalg.eigvalsh(0.5 * (bt.block + bt.block.conj().T))
    return min([float(np.min(block, initial=bt.summary(prefix).real_min))] + points)


def _positivity(op: OperatorRep, prefix: int) -> tuple[bool, str]:
    """Self-adjointness plus a nonnegative spectrum over max(prefix, ``SAMPLE``) entries,
    read from the one tail summary ``minimum_modulus`` at that prefix also reads."""
    n = max(prefix, SAMPLE)
    why = _not_self_adjoint(op, n)
    if why:
        return False, why
    lo = _lowest_point(op, n)
    if lo < -HERMITIAN_TOL:
        return False, f"negative spectral point {lo}"
    return True, ""


def _require_positive(op: OperatorRep, who: str, prefix: int):
    ok, why = _positivity(op, prefix)
    if not ok:
        raise ValueError(f"{who} requires a positive operator: {why}")


def _sqrt_psd(arr: np.ndarray) -> np.ndarray:
    if arr.size == 0:
        return arr
    w, u = np.linalg.eigh(0.5 * (arr + arr.conj().T))
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T


def square_root(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> OperatorRep:
    """The positive square root of a positive operator, exactly representable; positivity
    is checked over max(prefix, ``SAMPLE``) diagonal entries."""
    _require_positive(op, "square_root", prefix)
    f = lambda a: np.sqrt(np.clip(a.real, 0.0, None))
    if not op.is_l2:
        return MatrixOp(_sqrt_psd(_dense(op)))
    bt = block_tail(op)
    tail = map_seq(bt.tail, f, at_infinity="diverges")
    return block_tail_op(BlockTail(bt.support, _sqrt_psd(bt.block), tail))


def modulus(op: OperatorRep) -> OperatorRep:
    """|T| = (T* T)^(1/2) from T's SVD; block and tail transform independently."""
    _, s, vh = op.svd
    vh = vh[:s.size]  # a wide matrix has more right singular vectors than values
    root = (vh.conj().T * s) @ vh
    if not op.is_l2:
        return MatrixOp(root)
    bt = block_tail(op)
    tail = map_seq(bt.tail, np.abs, at_infinity="diverges")
    return block_tail_op(BlockTail(bt.support, root, tail))


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
    # times 1/|z|, as complex division by a real |z| scales: a real z keeps the bits of its
    # complex cast, x * (1/|x|), which is not always x / |x|
    out[nz] = a[nz] * (1.0 / mags[nz])
    return out


def polar(op: OperatorRep) -> PolarParts:
    """Polar decomposition T = V |T| with V a partial isometry, both from T's SVD."""
    return PolarParts(_isometry(op), modulus(op))


def _isometry(op: OperatorRep) -> OperatorRep:
    """The partial isometry V of T = V |T|: U_r V_r* from T's SVD, times the tail's phase."""
    u, s, vh = op.svd
    cut = max(1, u.shape[0], vh.shape[1]) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)
    r = int(np.sum(s > cut))
    if not op.is_l2:
        return MatrixOp(u[:, :r] @ vh[:r, :])
    bt = block_tail(op)
    return block_tail_op(BlockTail(bt.support, u[:, :r] @ vh[:r, :], _phase_seq(bt.tail)))


# ---------------------------------------------------------------------------
# Essential and discrete spectrum
# ---------------------------------------------------------------------------


def _require_self_adjoint(op: OperatorRep):
    why = _not_self_adjoint(op)
    if why:
        raise ValueError(f"spectral reports require a self-adjoint operator: {why}")


def _real(vals: np.ndarray) -> np.ndarray:
    """The real parts of diagonal entries; ValueError when one is off the real line."""
    if np.iscomplexobj(vals) and np.max(np.abs(vals.imag), initial=0.0) > HERMITIAN_TOL:
        raise ValueError("spectral reports require a self-adjoint operator: "
                         "diagonal entries not real")
    return vals.real


def _truncation_eigs(op: OperatorRep, n: int) -> np.ndarray:
    """Eigenvalues of the n x n truncation, exact via the block split.

    A block reaching past ``n`` contributes all its eigenvalues.  A tail entry
    off the real line raises ValueError (``_with_tail``).
    """
    if not op.is_l2:
        return np.linalg.eigvalsh(_dense(op))
    bt = block_tail(op)
    return _with_tail(np.linalg.eigvalsh(0.5 * (bt.block + bt.block.conj().T)), bt, n)


def _with_tail(head: np.ndarray, bt: BlockTail, n: int) -> np.ndarray:
    """``head`` followed by the tail entries at 1..n off ``bt``'s support, which must be
    real: the pass that writes them raises ValueError at the first block holding one that
    is not, so the whole prefix is checked without a second read."""
    out = np.empty(head.size + n - int(np.searchsorted(bt.support, n, side="right")))
    out[:head.size] = head
    at = head.size
    for _, vals in bt.tail_blocks(n):
        out[at:at + vals.size] = _real(vals)
        at += vals.size
    return out


def _run(v: np.ndarray) -> int:
    """1 when ``v`` is non-decreasing, -1 when it is strictly decreasing, else 0.  It reads
    ``_COUNT_CHUNK`` slices and stops at the first slice out of order; a NaN is out of order."""
    up = down = True
    for lo in range(0, v.size - 1, _COUNT_CHUNK):
        s = v[lo:lo + _COUNT_CHUNK + 1]
        up = up and bool(np.all(s[:-1] <= s[1:]))
        down = down and not up and bool(np.all(s[:-1] > s[1:]))
        if not (up or down):
            return 0
    return 1 if up else -1


def _sort(v: np.ndarray, k: int):
    """Sort ``v`` in place, bit for bit as ``v.sort()`` does, in O(N) when ``v[k:]`` is one run.

    Every registry tail and its affine images are one run, non-decreasing or strictly
    decreasing.  Numpy's stable sort of floats, timsort, keeps or reverses such a run and
    merges the first k values into it with a buffer of at most k + 64 values; quicksort
    takes O(N log N) on it.  Two sorts can differ only in the order of values that compare
    equal, and those have one bit pattern unless they are NaNs or zeros of both signs: any
    of those, and any tail that is not one run, take ``v.sort()``.
    """
    head, tail = v[:k], v[k:]
    run = _run(tail)
    if run and not np.isnan(v[:k + 1]).any():
        rising = tail if run > 0 else tail[::-1]  # the run's zeros sit side by side
        zeros = rising[bisect.bisect_left(rising, 0.0):bisect.bisect_right(rising, 0.0)]
        signs = np.concatenate((np.signbit(head[head == 0]), np.signbit(zeros)))
        if signs.all() or not signs.any():
            v.sort(kind="stable")
            return
    v.sort()


def _sorted_eigs(op: OperatorRep, n: int) -> np.ndarray:
    """``_truncation_eigs(op, n)``, sorted: the tail part after one eigenvalue per
    coordinate of the block is usually one run, which ``_sort`` orders in O(N)."""
    eigs = _truncation_eigs(op, n)
    _sort(eigs, block_tail(op).k if op.is_l2 else eigs.size)
    return eigs


def _runs(v: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and end positions of the runs of sorted ``v`` whose neighbour gaps are <= ``gap``.
    The gaps are taken ``_COUNT_CHUNK`` at a time, so no array as long as ``v`` is made."""
    if v.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    cuts = [np.flatnonzero(np.diff(v[lo:lo + _COUNT_CHUNK + 1]) > gap) + (lo + 1)
            for lo in range(0, v.size - 1, _COUNT_CHUNK)]
    return np.concatenate([[0], *cuts]), np.concatenate([*cuts, [v.size]])


def _cluster(v: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, count and width of each run of sorted ``v`` with neighbour gap <= ``gap``."""
    starts, ends = _runs(v, gap)
    counts = ends - starts
    means = v[starts] + 0.0  # np.mean of one value: -0.0 becomes 0.0
    for i in np.flatnonzero(counts > 1):
        means[i] = np.mean(v[starts[i]:ends[i]])
    return means, counts, v[ends - 1] - v[starts]


def _declared(op: OperatorRep) -> tuple[tuple[float, ...], bool]:
    """The declared essential set, sorted, and whether the tail diverges (neither for matrices)."""
    if not op.is_l2:
        return (), False
    tail = block_tail(op).tail.tail
    return tuple(sorted(p.real for p in accumulation_points(tail))), tail_diverges(tail)


def _spectrum_report(op: OperatorRep, eigs: np.ndarray, prefix: int) -> SpectrumReport:
    if not op.is_l2:
        scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
        means, counts, _ = _cluster(eigs, MULTIPLICITY_TOL * scale)
        return SpectrumReport((), False, tuple(zip(means.tolist(), counts.tolist())), eigs.size)

    essential, unbounded = _declared(op)
    means, counts, widths = _cluster(eigs, MULTIPLICITY_TOL)
    keep = ~(widths > MULTIPLICITY_TOL * np.fmax(1.0, np.abs(means)))
    for e in essential:
        keep &= ~(np.abs(means - e) <= ISOLATION_GAP)
    crowded = np.diff(means) <= ISOLATION_GAP
    keep[1:] &= ~crowded
    keep[:-1] &= ~crowded
    discrete = tuple(zip(means[keep].tolist(), counts[keep].tolist()))
    return SpectrumReport(essential, unbounded, discrete, prefix)


def essential_spectrum(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> SpectrumReport:
    """Spectral report for a self-adjoint representable operator.

    The essential part is read off the declared accumulation set (empty for
    matrices).  Discrete eigenvalues come from truncation eigenvalues:
    exact multiplicity clusters (gap <= MULTIPLICITY_TOL) that stay more
    than ``ISOLATION_GAP`` away from the essential set and from every other
    cluster.  Anything closer is deliberately left unresolved.  The cost is
    one pass that evaluates the prefix and refuses a non-real entry, an
    ordering of the eigenvalues that is O(N) when the tail is one monotone
    run (``_sort``) and a few passes over them in slices.
    """
    _require_self_adjoint(op)
    return _spectrum_report(op, _sorted_eigs(op, prefix), prefix)


def _window_counts(v: np.ndarray, keys: np.ndarray, w: float) -> np.ndarray:
    """``searchsorted(v, keys + w, "right") - searchsorted(v, keys - w, "left")`` for sorted ``v``
    and ``keys``, each shift searched for only in the slice of ``v`` between its end keys."""
    found = []
    for shifted, side in ((keys + w, "right"), (keys - w, "left")):
        first, last = np.searchsorted(v, shifted[[0, -1]], side=side) if keys.size else (0, 0)
        found.append(first + np.searchsorted(v[first:last], shifted, side=side))
    return found[0] - found[1]


def _slice_runs(vals: np.ndarray, counts: np.ndarray) -> tuple | None:
    """The first and the last flagged value of one sorted slice and, per run of flagged values
    in it, the peak count and the first value at it; None when nothing in it is flagged."""
    flagged = counts >= MIN_CLUSTER
    vals, counts = vals[flagged], counts[flagged]
    if vals.size == 0:
        return None
    starts, ends = _runs(vals, DETECT_WINDOW)
    peaks = np.maximum.reduceat(counts, starts)
    hits = np.flatnonzero(counts == np.repeat(peaks, ends - starts))
    # every run holds a hit, so the first hit at or after its start is its own
    firsts = vals[hits[np.searchsorted(hits, starts)]]
    return vals[0], vals[-1], list(zip(peaks.tolist(), firsts.tolist()))


def _detect_accumulation(v: np.ndarray, owns: list[np.ndarray]) -> list[tuple[float, ...]]:
    """Accumulation candidates from raw eigenvalues, no declarations used, one tuple per side.

    A side's values are sorted ``v`` with its sorted own values inserted where
    ``searchsorted(v, own)`` puts them.  A value is flagged when >= MIN_CLUSTER of them fall
    within +-DETECT_WINDOW; each run of flagged values contributes its densest value, the
    lowest one on a tie.  ``v`` is walked in ``_COUNT_CHUNK`` slices whose counts against ``v``
    serve every side; own values count only near a slice, and no array outgrows a slice.
    """
    if v.size == 0:
        return [_detect_accumulation(own, [own[:0]])[0] if own.size else () for own in owns]
    w, at = DETECT_WINDOW, [np.searchsorted(v, own) for own in owns]
    own_counts = [_window_counts(v, own, w) + _window_counts(own, own, w) for own in owns]
    found, last = [[] for _ in owns], [None] * len(owns)  # per side: (peak, value) per run
    for lo in range(0, v.size, _COUNT_CHUNK):
        chunk = v[lo:lo + _COUNT_CHUNK]
        hi = lo + chunk.size if lo + chunk.size < v.size else v.size + 1  # the last takes the rest
        shared, plain, edges = _window_counts(v, chunk, w), False, (chunk[0] - w, chunk[-1] + w)
        for s, own in enumerate(owns):
            a, b = np.searchsorted(at[s], (lo, hi))  # own values merged into this slice
            near = own[np.searchsorted(own, edges[0]):np.searchsorted(own, edges[1], "right")]
            if a < b or near.size:
                here = _slice_runs(np.insert(chunk, at[s][a:b] - lo, own[a:b]),
                                   np.insert(shared + _window_counts(near, chunk, w),
                                             at[s][a:b] - lo, own_counts[s][a:b]))
            else:  # the same for every side that adds nothing to this slice
                here = plain = _slice_runs(chunk, shared) if plain is False else plain
            if here is None:
                continue
            first, end, runs = here
            if found[s] and not first - last[s] > w:  # the last run goes on, first peak wins
                found[s][-1], runs = max(found[s][-1], runs[0], key=lambda run: run[0]), runs[1:]
            found[s], last[s] = found[s] + runs, end
    return [tuple(value for _, value in runs) for runs in found]


def _detected_both(op: OperatorRep, perturbed: OperatorRep, n: int) -> list[tuple[float, ...]]:
    """``_detect_accumulation`` of each side's sorted n-truncation eigenvalues.  Off the union
    of their supports the sides share a tail, evaluated and sorted once; each side's own k
    values (block eigenvalues, tail entries on the rest of the union) join it in the one pass."""
    if not op.is_l2:
        return [_detect_accumulation(_sorted_eigs(s, n), [np.zeros(0)])[0] for s in (op, perturbed)]
    shared = block_tail(op, sorted({*block_tail(op).support, *block_tail(perturbed).support}))
    eigs = _with_tail(np.zeros(0), shared, n)
    _sort(eigs, 0)
    owns = []
    for side in (op, perturbed):
        support = set(block_tail(side).support)
        rest = np.array([i for i in shared.support if i <= n and i not in support], dtype=np.int64)
        # n = 0: the side's block eigenvalues alone
        owns.append(np.sort(np.concatenate((_truncation_eigs(side, 0),
                                            _real(shared.tail.values_at(rest))))))
    return _detect_accumulation(eigs, owns)


def weyl_check(op: OperatorRep, terms, *, prefix: int = DEFAULT_PREFIX) -> WeylReport:
    """Essential spectrum is unmoved by a finite-rank self-adjoint bump.

    Besides comparing the declared essential sets before and after, the
    report re-detects accumulation points from raw truncation eigenvalues
    on both sides and checks the declared points are recovered to within
    ``MATCH_TOL`` (vacuous when the essential set is empty).  An l2 prefix
    is evaluated, sorted and walked once for both sides; nothing is clustered.
    """
    perturbed = op
    for t in terms:
        perturbed = add_rank_one(perturbed, t)
    _require_self_adjoint(op)
    _require_self_adjoint(perturbed)
    (ess_before, unb_before), (ess_after, unb_after) = _declared(op), _declared(perturbed)
    det_before, det_after = _detected_both(op, perturbed, prefix)
    agree = (len(ess_before) == len(ess_after)
             and all(abs(a - b) <= 1e-9 for a, b in zip(ess_before, ess_after))
             and unb_before == unb_after)
    detected_match = all(any(abs(d - p) <= MATCH_TOL for d in det) for ess, det in
                         ((ess_before, det_before), (ess_after, det_after)) for p in ess)
    return WeylReport(ess_before, ess_after, unb_before, unb_after,
                      agree, det_before, det_after, detected_match, prefix)
