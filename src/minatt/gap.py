"""Gap metric between closed operators, by independent routes.

The gap between two closed operators is the norm distance between the
orthogonal projections onto their graphs { (x, Tx) }.  Three routes:

* graph: materialise both graph projections and take the norm of their
  difference.  Exact for matrices, applied to truncations on l2.
* closed form: the defect-resolvent formula
  max( ||hat(T)^(1/2) (T - S) check(S)^(1/2)||,
       ||hat(S)^(1/2) (S - T) check(T)^(1/2)|| )
  with check(T) = (I + T*T)^(-1) and hat(T) = (I + TT*)^(-1).
* diagonal: for diagonally aligned operators the gap is the supremum of
  |t_n - s_n| / sqrt(1+|t_n|^2) / sqrt(1+|s_n|^2), the chordal distance of
  paired entries on the Riemann sphere.  The prefix is scanned exactly and
  the remainder is certified from the declared tails.

Unbounded operators are fine on the diagonal route; that is the point of
using the gap rather than the norm distance.
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
    Vec,
    accumulation_points,
    add_operators,
    block_tail,
    block_tail_op,
    map_seq,
    operator_norm,
    scale_shift,
    shared_root,
    tail_diverges,
    truncate,
)
from .operators import (_chordal, _chordal_to_infinity, _chordal_window_dev, _common_support,
                        _dense)
from .spectral import _sqrt_psd

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

# largest l2 truncation the graph route accepts: it forms two dense 2N x 2N
# projections, so time grows like N^3 and memory like N^2 (about 20 s at
# 1000; the default prefix of 10000 would need more than 12 GB)
GRAPH_TRUNCATION_LIMIT = 1_000


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


def _defect_dense(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """check = (I + A*A)^(-1) and hat = (I + AA*)^(-1) of a dense matrix."""
    m, n = a.shape
    check = np.linalg.solve(np.eye(n) + a.conj().T @ a, np.eye(n))
    hat = np.linalg.solve(np.eye(m) + a @ a.conj().T, np.eye(m))
    return check, hat


def defect_resolvent(op: OperatorRep) -> DefectPair:
    """Both defect resolvents of T, exact within the representable class.

    They satisfy 0 <= check(T) <= I and ||T check(T)|| <= 1/2 regardless of
    how large T is, which is what makes the closed-form gap usable for
    unbounded operators.
    """
    if not op.is_l2:
        check, hat = _defect_dense(_dense(op))
        return DefectPair(MatrixOp(check), MatrixOp(hat))
    bt = block_tail(op)
    tail = map_seq(bt.tail, _defect_map, at_infinity=0.0)
    check_block, hat_block = _defect_dense(bt.block)
    return DefectPair(block_tail_op(BlockTail(bt.support, check_block, tail)),
                      block_tail_op(BlockTail(bt.support, hat_block, tail)))


# ---------------------------------------------------------------------------
# Subspace and graph gaps
# ---------------------------------------------------------------------------


def _basis_matrix(basis, ambient: int | None = None) -> np.ndarray:
    if isinstance(basis, np.ndarray):
        arr = np.asarray(basis, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        return arr
    vecs = list(basis)
    if not vecs:
        raise ValueError("basis must contain at least one vector")
    n = ambient or max(v.dim if v.dim is not None else v.max_index for v in vecs)
    return np.column_stack([v.dense(n) for v in vecs])


def _projection(q: np.ndarray) -> np.ndarray:
    gram = q.conj().T @ q
    if float(np.max(np.abs(gram - np.eye(q.shape[1])))) > ORTHO_TOL:
        raise ValueError("basis columns must be orthonormal")
    return q @ q.conj().T

def _projection_gap(p1: np.ndarray, p2: np.ndarray) -> float:
    # canonical operand order makes the result bitwise symmetric in (p1, p2)
    if p2.tobytes() < p1.tobytes():
        p1, p2 = p2, p1
    direct = float(np.linalg.norm(p1 - p2, 2))
    eye = np.eye(p1.shape[0])
    one_sided = max(float(np.linalg.norm(p1 @ (eye - p2), 2)),
                    float(np.linalg.norm(p2 @ (eye - p1), 2)))
    if abs(direct - one_sided) > ROUTE_AGREE_TOL:
        raise ArithmeticError(
            f"projection gap formulas disagree: {direct} vs {one_sided}")
    return direct


def subspace_gap(basis_m, basis_n) -> GapResult:
    """Gap between two subspaces given by orthonormal bases.

    Bases may be ndarray columns or sequences of :class:`Vec`; both live in
    the common ambient space.  Internally cross-checked against the
    one-sided formula max(||P(I-Q)||, ||Q(I-P)||).
    """
    a = _basis_matrix(basis_m)
    b = _basis_matrix(basis_n)
    n = max(a.shape[0], b.shape[0])
    a = np.vstack([a, np.zeros((n - a.shape[0], a.shape[1]))])
    b = np.vstack([b, np.zeros((n - b.shape[0], b.shape[1]))])
    value = _projection_gap(_projection(a), _projection(b))
    return GapResult(value, "graph", None, 0.0)


def _graph_projection(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[1]
    q, _ = np.linalg.qr(np.vstack([np.eye(n), arr]))
    return q @ q.conj().T


def operator_gap_graph(a: OperatorRep, b: OperatorRep, *,
                       truncation: int | None = None) -> GapResult:
    """Gap via graph projections { (x, Tx) }.

    Matrices are handled exactly.  l2 operators are compared through their
    ``truncation`` compressions, at most ``GRAPH_TRUNCATION_LIMIT``, so the
    result carries no tail certificate; use the diagonal route for certified
    l2 gaps.
    """
    if a.is_l2 or b.is_l2:
        if not (a.is_l2 and b.is_l2):
            raise ValueError("graph route needs operators on a common space")
        n = truncation or DEFAULT_PREFIX
        if n > GRAPH_TRUNCATION_LIMIT:
            raise ValueError(f"graph route on l2 operators takes a truncation of at most "
                             f"{GRAPH_TRUNCATION_LIMIT}, got {n}")
        da, db = truncate(a, n).array, truncate(b, n).array
        value = _projection_gap(_graph_projection(da), _graph_projection(db))
        return GapResult(value, "graph", n, math.nan)
    da, db = _dense(a), _dense(b)
    if da.shape != db.shape:
        raise ValueError("graph route needs matrices of identical shape")
    value = _projection_gap(_graph_projection(da), _graph_projection(db))
    return GapResult(value, "graph", None, 0.0)


# ---------------------------------------------------------------------------
# Closed form via defect resolvents
# ---------------------------------------------------------------------------


def _closed_form_dense(s: np.ndarray, t: np.ndarray) -> float:
    t_check, t_hat = _defect_dense(t)
    s_check, s_hat = _defect_dense(s)
    one = np.linalg.norm(_sqrt_psd(t_hat) @ (t - s) @ _sqrt_psd(s_check), 2)
    two = np.linalg.norm(_sqrt_psd(s_hat) @ (s - t) @ _sqrt_psd(t_check), 2)
    return float(max(one, two))


def operator_gap_closed_form(s: OperatorRep, t: OperatorRep, *,
                             prefix: int = DEFAULT_PREFIX) -> GapResult:
    """Gap from the defect-resolvent formula, no graph bases involved.

    Matrices of a common shape are evaluated densely.  Diagonally aligned
    l2 pairs decouple: the formula is applied densely on the union of the
    two supports and coordinatewise off it, with the tail certified the
    same way as on the diagonal route.
    """
    if not s.is_l2 and not t.is_l2:
        ds, dt = _dense(s), _dense(t)
        if ds.shape != dt.shape:
            raise ValueError("closed form needs matrices of identical shape")
        return GapResult(_closed_form_dense(ds, dt), "closed_form", None, 0.0)
    if not (s.is_l2 and t.is_l2):
        raise ValueError("closed form needs operators on a common space")
    bs, bt = _aligned_profiles(s, t)
    dense_part = _closed_form_dense(np.diag(np.diag(bs.block)), np.diag(np.diag(bt.block)))
    value, tail_bound = _certify_tail(dense_part, bs, bt, prefix)
    return GapResult(value, "closed_form", prefix, tail_bound)


# ---------------------------------------------------------------------------
# Diagonal route
# ---------------------------------------------------------------------------


def _aligned_profiles(s: OperatorRep, t: OperatorRep) -> tuple[BlockTail, BlockTail]:
    """Both operators split over the union of their supports; rejects non-diagonal blocks.

    Their block entries and their tail entries then pair up.
    """
    if not (s.is_l2 and t.is_l2):
        raise ValueError("diagonal route needs l2 operators")
    pair = _common_support(s, t)
    for bt in pair:
        scale = max(1.0, float(np.max(np.abs(bt.block), initial=0.0)))
        off = bt.block - np.diag(np.diag(bt.block))
        if float(np.max(np.abs(off), initial=0.0)) > 1e-12 * scale:
            raise ValueError("diagonal route needs diagonally aligned operators")
    return pair


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
    """Gap value and tail bound from the blocks' part and one streamed scan of the tail pairs."""
    # only tail entries are paired: block entries are not tail transforms
    # and would poison the overshoot estimate; the window is past prefix / 2
    pairs, exact = _tail_pairs(bs.tail, bt.tail)
    head, window, s_dev, t_dev = -math.inf, -math.inf, 0.0, 0.0
    half = prefix // 2
    for (_, sv), (_, tv) in zip(bs.tail_blocks(half), bt.tail_blocks(half)):
        head = np.maximum(head, np.max(_chordal(sv, tv)))
    tail_window = zip(bs.tail_blocks(prefix, half + 1), bt.tail_blocks(prefix, half + 1))
    for (_, sv), (_, tv) in tail_window:
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
    bs, bt = _aligned_profiles(s, t)
    block_part = float(np.max(_chordal(np.diag(bs.block), np.diag(bt.block)), initial=0.0))
    value, tail_bound = _certify_tail(block_part, bs, bt, prefix)
    return GapResult(value, "diagonal", prefix, tail_bound)


# ---------------------------------------------------------------------------
# theta(S, T) <= ||S - T||
# ---------------------------------------------------------------------------


def gap_upper_bound_check(s: OperatorRep, t: OperatorRep, *,
                          prefix: int = DEFAULT_PREFIX) -> GapBoundReport:
    """Measure the gap and the norm distance and compare them.

    Both sides are computed, not assumed: the gap by the best available
    route, the difference norm by exact block plus certified tail.  An
    unbounded difference is rejected (UnboundedOperatorError) since the
    inequality has nothing to say then.
    """
    if not s.is_l2 and not t.is_l2:
        gap = operator_gap_graph(s, t)
        diff = NormBound(float(np.linalg.norm(_dense(s) - _dense(t), 2)), 0.0)
    else:
        gap = operator_gap_diagonal(s, t, prefix=prefix)
        diff = operator_norm(add_operators(s, scale_shift(t, -1.0, 0.0)), prefix=prefix)
    margin = diff.value + diff.tail_slack - gap.value
    return GapBoundReport(gap, diff, margin, margin >= -ROUTE_AGREE_TOL)
