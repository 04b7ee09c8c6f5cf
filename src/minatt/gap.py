"""Gap metric between closed operators, by independent routes.

The gap between two closed operators is the norm distance between the
orthogonal projections onto their graphs { (x, Tx) }.  Three routes, which
differ only in their dense kernel:

* graph: the sine of the largest principal angle between orthonormal bases
  of both graphs, read off the residuals of each basis against the other.
  No projection is formed.
* closed form: the defect-resolvent formula
  max( ||hat(T)^(1/2) (T - S) check(S)^(1/2)||,
       ||hat(S)^(1/2) (S - T) check(T)^(1/2)|| )
  with check(T) = (I + T*T)^(-1) and hat(T) = (I + TT*)^(-1), evaluated
  from each matrix operand's own SVD (``op.svd``): with T = U diag(s) V* and
  r = 1/hypot(1, s), check(T)^(1/2) = V diag(r) V* and hat(T)^(1/2) = U diag(r) U*.
* diagonal: the supremum of |t_n - s_n| / sqrt(1+|t_n|^2) / sqrt(1+|s_n|^2),
  the chordal distance of paired diagonal entries on the Riemann sphere.

The kernels share no code.  What the routes share on purpose sits in
``_gap``: matrices go to the kernel whole, two l2 operators split as direct
sums over the union of their supports so the kernel takes the blocks, and
the diagonal tails are certified once for all routes, or not read at all
when they are one sequence.  The certifying scan walks both tails block by
block; tails on one root generator (``shared_root``) evaluate it once per
block and map its entries to each side, so a pair costs one read of the
root, not two.  Unbounded operators are fine on every l2 route; that is
the point of using the gap rather than the norm distance.
A matrix perturbation's gap(T + S, T) comes from range(S*) (``_perturbation_gap``).
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
    NormBound,
    OperatorRep,
    accumulation_points,
    add_operators,
    block_tail,
    block_tail_op,
    map_seq,
    operator_norm,
    scale_shift,
    shared_root,
    tail_diverges,
)
from .operators import (_adjoint_range, _chordal, _chordal_to_infinity, _chordal_window_dev,
                        _common_support, _dense, _one_tail, _spectral_norm)

__all__ = [
    "GapResult",
    "DefectPair",
    "GapBoundReport",
    "defect_resolvent",
    "subspace_gap",
    "operator_gap_graph",
    "operator_gap_closed_form",
    "operator_gap_diagonal",
    "gap_upper_bound_check",
]

ORTHO_TOL = 1e-10
ROUTE_AGREE_TOL = 1e-10

# floor added to every certified tail bound; covers float evaluation of the
# chordal formula itself
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class GapResult:
    """A gap value with provenance.

    ``truncation`` is the scanned prefix length (None when the computation
    was exact on a finite space).  The true gap lies within ``tail_bound``
    of ``value``, under the declared tail behaviour of the operands.
    """

    value: float
    route: str
    truncation: int | None = None
    tail_bound: float = 0.0

    def to_json_dict(self) -> dict:
        bound = self.tail_bound if math.isfinite(self.tail_bound) else None
        return {"value": self.value, "route": self.route,
                "truncationN": self.truncation, "tailBound": bound}


@dataclass(frozen=True)
class DefectPair:
    """check = (I + T*T)^(-1) and hat = (I + TT*)^(-1), both contractions."""

    check: OperatorRep
    hat: OperatorRep


@dataclass(frozen=True)
class GapBoundReport:
    """theta(S, T) <= ||S - T|| for bounded pairs, both sides measured."""

    gap: GapResult
    diff_norm: NormBound
    margin: float
    holds: bool

    def to_json_dict(self) -> dict:
        return {"gap": self.gap.to_json_dict(),
                "diffNorm": self.diff_norm.value,
                "diffNormSlack": self.diff_norm.tail_slack,
                "margin": self.margin, "holds": self.holds}


# ---------------------------------------------------------------------------
# Defect resolvents
# ---------------------------------------------------------------------------


def _defect_map(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.abs(a) ** 2)


def _defect_factors(u: np.ndarray, s: np.ndarray, vh: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U, r_U, V*, r_V from the full SVD A = U diag(s) V* and r = 1/hypot(1, s) padded
    with 1, so hat(A)^(1/2) = U diag(r_U) U* and check(A)^(1/2) = V diag(r_V) V*."""
    r_u, r_v = np.ones(u.shape[0]), np.ones(vh.shape[1])
    r_u[:s.size] = r_v[:s.size] = 1.0 / np.hypot(1.0, s)
    return u, r_u, vh, r_v


def defect_resolvent(op: OperatorRep) -> DefectPair:
    """Both defect resolvents of T, exact within the representable class, from ``op.svd``
    (its matrix's, or its block's on l2).

    They satisfy 0 <= check(T) <= I and ||T check(T)|| <= 1/2 regardless of
    how large T is, which is what makes the closed-form gap usable for
    unbounded operators.
    """
    u, r_u, vh, r_v = _defect_factors(*op.svd)
    check, hat = (vh.conj().T * r_v ** 2) @ vh, (u * r_u ** 2) @ u.conj().T
    if not op.is_l2:
        return DefectPair(MatrixOp(check), MatrixOp(hat))
    bt = block_tail(op)
    tail = map_seq(bt.tail, _defect_map, at_infinity=0.0)
    return DefectPair(block_tail_op(BlockTail(bt.support, check, tail)),
                      block_tail_op(BlockTail(bt.support, hat, tail)))


# ---------------------------------------------------------------------------
# Subspace and graph gaps
# ---------------------------------------------------------------------------


def _basis_matrix(basis) -> np.ndarray:
    if isinstance(basis, np.ndarray):
        arr = np.asarray(basis, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        return arr
    vecs = list(basis)
    if not vecs:
        raise ValueError("basis must contain at least one vector")
    n = max(v.dim if v.dim is not None else v.max_index for v in vecs)
    return np.column_stack([v.dense(n) for v in vecs])


def _basis_gap(q1: np.ndarray, q2: np.ndarray) -> float:
    """||P1 - P2|| from orthonormal bases: the larger residual ||Q1 - Q2 (Q2* Q1)||.

    A residual gives the sine of the largest principal angle without the
    cancellation of 1 - cos^2 (Bjorck & Golub 1973).  Swapping the bases
    swaps the two sides, so the value is bitwise symmetric.  Equal
    dimensions must give equal sides, unequal ones a gap of 1.
    """
    if np.array_equal(q1, q2):
        return 0.0
    one = _spectral_norm(q1 - q2 @ (q2.conj().T @ q1))
    two = _spectral_norm(q2 - q1 @ (q1.conj().T @ q2))
    expect = min(one, two) if q1.shape[1] == q2.shape[1] else 1.0
    if abs(max(one, two) - expect) > ROUTE_AGREE_TOL:
        raise ArithmeticError(f"gap residuals {one} and {two} fail their cross-check")
    return max(one, two)


def subspace_gap(basis_m, basis_n) -> GapResult:
    """Gap between two subspaces given by orthonormal bases.

    Bases may be ndarray columns or sequences of :class:`Vec`; both live in
    the common ambient space.  The two one-sided residuals
    ||(I-Q)P|| and ||(I-P)Q|| cross-check each other.
    """
    a = _basis_matrix(basis_m)
    b = _basis_matrix(basis_n)
    n = max(a.shape[0], b.shape[0])
    a = np.vstack([a, np.zeros((n - a.shape[0], a.shape[1]))])
    b = np.vstack([b, np.zeros((n - b.shape[0], b.shape[1]))])
    for q in (a, b):
        if float(np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])))) > ORTHO_TOL:
            raise ValueError("basis columns must be orthonormal")
    return GapResult(_basis_gap(a, b), "graph", None, 0.0)


def _graph_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Gap between the graphs { (x, Ax) } of two matrices of one shape, via their Q factors."""
    q1, q2 = (np.linalg.qr(np.vstack([np.eye(m.shape[1]), m]))[0] for m in (a, b))
    return _basis_gap(q1, q2)


def operator_gap_graph(a: OperatorRep, b: OperatorRep, *,
                       prefix: int = DEFAULT_PREFIX) -> GapResult:
    """Gap via orthonormal bases of the graphs { (x, Tx) }.

    Matrices are handled exactly; l2 pairs take this kernel on their
    blocks (see ``_gap``).
    """
    return _gap(a, b, "graph", prefix)


# ---------------------------------------------------------------------------
# Closed form via defect resolvents
# ---------------------------------------------------------------------------


def _closed_form(s: np.ndarray, t: np.ndarray, svd_s: tuple, svd_t: tuple) -> float:
    """The closed form of matrices s and t from their full SVDs.  By unitary invariance
    ||hat(T)^(1/2) (T - S) check(S)^(1/2)|| is ||diag(r_T) U_T* (T - S) V_S diag(r_S)||,
    and I + T*T, which squares T's condition, is never formed."""
    u_t, hat_t, vh_t, check_t = _defect_factors(*svd_t)
    u_s, hat_s, vh_s, check_s = _defect_factors(*svd_s)
    d = t - s
    one = hat_t[:, None] * (u_t.conj().T @ d @ vh_s.conj().T) * check_s
    two = hat_s[:, None] * (u_s.conj().T @ d @ vh_t.conj().T) * check_t
    return max(_spectral_norm(one), _spectral_norm(two))


def _closed_form_dense(s: np.ndarray, t: np.ndarray) -> float:
    """The closed form of two blocks, from a fresh SVD of each."""
    return _closed_form(s, t, np.linalg.svd(s), np.linalg.svd(t))


def operator_gap_closed_form(s: OperatorRep, t: OperatorRep, *,
                             prefix: int = DEFAULT_PREFIX) -> GapResult:
    """Gap from the defect-resolvent formula, no graph bases involved.

    Matrices of a common shape are evaluated densely from each operand's
    ``op.svd``; l2 pairs take this formula on their blocks (see ``_gap``).
    """
    return _gap(s, t, "closed_form", prefix)


# ---------------------------------------------------------------------------
# Diagonal route, and the dispatch every route shares
# ---------------------------------------------------------------------------


def _is_diagonal(block: np.ndarray) -> bool:
    """No off-diagonal entry above 1e-12 * max(1, max |block|)."""
    mags = np.abs(block)
    scale = max(1.0, float(np.max(mags, initial=0.0)))
    np.fill_diagonal(mags, 0.0)
    return float(np.max(mags, initial=0.0)) <= 1e-12 * scale


def _diagonal_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Supremum of the chordal distances of paired diagonal entries."""
    return float(np.max(_chordal(np.diag(a), np.diag(b)), initial=0.0))


def operator_gap_diagonal(s: OperatorRep, t: OperatorRep, *,
                          prefix: int = DEFAULT_PREFIX) -> GapResult:
    """Certified gap between diagonally aligned l2 operators.

    The first ``prefix`` paired entries are scanned exactly with the chordal
    formula; the declared tails contribute their joint accumulation pairs.
    ``tail_bound`` brackets the true gap around the reported value, assuming
    the declared tail behaviour (deviations shrinking beyond the scanned
    window).  Unbounded entries cost nothing: the chordal distance of a
    divergent pair tends to zero.
    """
    return _gap(s, t, "diagonal", prefix)


def _ext_points(seq: DiagSeq) -> list[complex | None]:
    """Accumulation points with None standing in for infinity."""
    pts: list[complex | None] = list(accumulation_points(seq.tail))
    if tail_diverges(seq.tail):
        pts.append(None)
    return pts


def _g_ext(a: complex | None, b: complex | None) -> float:
    if a is None and b is None:
        return 0.0
    if a is None:
        return float(_chordal_to_infinity(b))
    if b is None:
        return float(_chordal_to_infinity(a))
    return float(_chordal(a, b))


def _tail_pairs(s_seq: DiagSeq, t_seq: DiagSeq) -> tuple[list, bool]:
    """Joint accumulation pairs of the two entry sequences.

    Exact when both sequences are transforms of one shared root (the pairs
    follow the root's accumulation points through both transforms) or when
    either extended set is a singleton.  Otherwise the full product is a
    valid but possibly loose upper region.
    """
    root = shared_root(s_seq, t_seq)
    if root is not None and not tail_diverges(root.tail):
        points = np.array(accumulation_points(root.tail), dtype=complex)
        fs = s_seq.from_root or (lambda z: z)
        ft = t_seq.from_root or (lambda z: z)
        pairs = list(zip(np.asarray(fs(points), dtype=complex).tolist(),
                         np.asarray(ft(points), dtype=complex).tolist()))
        if _pairs_match_declared(pairs, s_seq, t_seq):
            return pairs, True
    es, et = _ext_points(s_seq), _ext_points(t_seq)
    pairs = [(a, b) for a in es for b in et]
    return pairs, len(es) == 1 or len(et) == 1


def _pairs_match_declared(pairs, s_seq: DiagSeq, t_seq: DiagSeq) -> bool:
    # transforms discontinuous at an accumulation point (phase at 0, say)
    # produce pair components outside the declared sets; fall back then
    acc_s = accumulation_points(s_seq.tail)
    acc_t = accumulation_points(t_seq.tail)
    return all(any(abs(a - p) <= 1e-9 for p in acc_s) and
               any(abs(b - p) <= 1e-9 for p in acc_t) for a, b in pairs)


def _certify_tail(block_part: float, bs: BlockTail, bt: BlockTail,
                  prefix: int) -> tuple[float, float]:
    """Gap value and tail bound from the blocks' part and one streamed scan of the tail pairs,
    which reads a root the two tails share once per block."""
    # only tail entries are paired: block entries are not tail transforms
    # and would poison the overshoot estimate; the window is past prefix / 2
    pairs, exact = _tail_pairs(bs.tail, bt.tail)
    head, window, s_dev, t_dev = -math.inf, -math.inf, 0.0, 0.0
    half = prefix // 2
    for sv, tv in bs.paired_tail_blocks(bt, half):
        head = np.maximum(head, np.max(_chordal(sv, tv)))
    for sv, tv in bs.paired_tail_blocks(bt, prefix, half + 1):
        window = np.maximum(window, np.max(_chordal(sv, tv)))
        if not exact:
            s_dev = np.maximum(s_dev, _chordal_window_dev(sv, bs.tail.tail))
            t_dev = np.maximum(t_dev, _chordal_window_dev(tv, bt.tail.tail))
    prefix_part = max(block_part, float(np.maximum(0.0, np.maximum(head, window))))
    pair_max = max((_g_ext(a, b) for a, b in pairs), default=0.0)
    value = max(prefix_part, pair_max)
    if exact:
        # pair values are genuine limits, so value is a lower bound on the
        # true gap; the only upward play is the window's excess over them
        overshoot = max(0.0, float(window) - pair_max)
        return value, overshoot + FLOAT_SLACK
    dev = float(s_dev) + float(t_dev)
    return value, (value - prefix_part) + dev + FLOAT_SLACK


_KERNELS = {"graph": _graph_gap, "closed_form": _closed_form_dense, "diagonal": _diagonal_gap}


def _gap(s: OperatorRep, t: OperatorRep, route: str, prefix: int) -> GapResult:
    """gap(s, t) by ``route``: "graph", "closed_form", "diagonal" or "auto".

    Matrices of one shape go to the kernel whole, "auto" to the graph one.
    Two l2 operators split over the union of their supports, so the graph of
    each is the direct sum of its block's graph and the tail's 1 x 1 graphs;
    the gap of direct sums is the larger of the summands' gaps.  "auto" takes
    the diagonal kernel when both blocks are diagonal, the graph one
    otherwise.  Tails that are one sequence (``_one_tail``) have gap 0, so
    no tail entry is read; others are certified over ``prefix``.
    """
    if not (s.is_l2 and t.is_l2):
        route = "graph" if route == "auto" else route
        if s.is_l2 or t.is_l2 or route == "diagonal":
            raise ValueError(f"{route} route needs l2 operators on a common space")
        ds, dt = _dense(s), _dense(t)
        if ds.shape != dt.shape:
            raise ValueError(f"{route} route needs matrices of identical shape")
        value = (_closed_form(ds, dt, s.svd, t.svd) if route == "closed_form"
                 else _KERNELS[route](ds, dt))
        return GapResult(value, route, None, 0.0)
    bs, bt = _common_support(s, t)
    if route in ("auto", "diagonal"):
        aligned = _is_diagonal(bs.block) and _is_diagonal(bt.block)
        if route == "diagonal" and not aligned:
            raise ValueError("diagonal route needs diagonally aligned operators")
        route = "diagonal" if aligned else "graph"
    block_part = _KERNELS[route](bs.block, bt.block)
    value, tail_bound = ((block_part, FLOAT_SLACK) if _one_tail(bs.tail, bt.tail)
                         else _certify_tail(block_part, bs, bt, prefix))
    return GapResult(value, route, prefix, tail_bound)


def _perturbation_gap(t: OperatorRep, s: OperatorRep, perturbed: OperatorRep,
                      prefix: int) -> tuple[NormBound, GapResult]:
    """||S|| and gap(T + S, T), with ``perturbed`` = T + S.

    On l2, ||S|| is ``operator_norm(S)`` and the gap is ``_gap``'s.  On matrices
    both graphs contain W = {(x, Tx) : Sx = 0}, so the gap is that of W's
    complements (Kato IV §2), spanned by (Y, TY) for Y = (I + T*T)^(-1) R and
    likewise for T + S, R an orthonormal basis of range(S*) (``_adjoint_range``).
    I + T*T squares T's condition number, so a matrix too large for it
    compares whole graphs.
    """
    if t.is_l2:  # where S's tail is 0, T + S keeps T's tail, so no tail entry is read
        return operator_norm(s, prefix=prefix), _gap(perturbed, t, "auto", prefix)
    norm_s, basis = _adjoint_range(s)
    dp, dt = _dense(perturbed), _dense(t)
    if np.finfo(float).eps * max(np.linalg.norm(dp), np.linalg.norm(dt)) ** 2 > ROUTE_AGREE_TOL:
        return norm_s, GapResult(_graph_gap(dp, dt), "graph", None, 0.0)
    bases = []  # empty when R is, and equal empty bases give exactly 0
    for m in (dp, dt):
        y = np.linalg.solve(np.eye(m.shape[1]) + m.conj().T @ m, basis)
        bases.append(np.linalg.qr(np.vstack([y, m @ y]))[0])
    return norm_s, GapResult(_basis_gap(*bases), "graph", None, 0.0)


# ---------------------------------------------------------------------------
# theta(S, T) <= ||S - T||
# ---------------------------------------------------------------------------


def gap_upper_bound_check(s: OperatorRep, t: OperatorRep, *,
                          prefix: int = DEFAULT_PREFIX) -> GapBoundReport:
    """Measure the gap and the norm distance and compare them.

    Both sides are computed, not assumed: the gap by the best available
    route, the difference norm by exact block plus certified tail, or from
    the blocks alone when the l2 tails are one (``_one_tail``), unbounded or
    not.  An unbounded difference is rejected (UnboundedOperatorError).
    """
    gap = _gap(s, t, "auto", prefix)
    bs, bt = _common_support(s, t) if s.is_l2 else (None, None)
    diff = (NormBound(_spectral_norm(bs.block - bt.block)) if bs and _one_tail(bs.tail, bt.tail)
            else operator_norm(add_operators(s, scale_shift(t, -1.0, 0.0)), prefix=prefix))
    margin = diff.value + diff.tail_slack - gap.value
    return GapBoundReport(gap, diff, margin, margin >= -ROUTE_AGREE_TOL)
