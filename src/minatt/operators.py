"""Operator representations and their exact algebra.

Three representable families of closed densely defined operators:

* ``MatrixOp``: a dense matrix acting on a finite-dimensional space,
* ``DiagonalOp``: a lazy diagonal operator on l2 with declared tail behaviour,
* ``SumOp``: base + shift*I + finitely many finite-support rank-one terms.

Every value is immutable after construction and safe to share between
threads.  Actions on finite-support vectors are exact: nothing is silently
truncated, and the declared tail metadata is what certifies statements
about the infinitely many entries a prefix scan cannot see.

An l2 operator in this class always decomposes as a dense block on the
support of its rank-one terms (the coordinates they touch) direct sum a
plain diagonal on the remaining coordinates; see :func:`block_tail`.  That
split is what keeps norms, spectra and perturbation arithmetic exact
downstream, at a cost set by the support, not by where it sits.  Only
:class:`BlockTail` knows how the two parts interleave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

__all__ = [
    "DEFAULT_PREFIX",
    "OperatorError",
    "UnboundedOperatorError",
    "InconclusiveError",
    "NotRepresentableError",
    "Vec",
    "ConvergesTo",
    "Periodic",
    "FiniteRange",
    "DeclaredAccumulation",
    "TailSpec",
    "accumulation_points",
    "tail_diverges",
    "map_tail",
    "DiagSeq",
    "diagonal_seq",
    "constant_seq",
    "map_seq",
    "zip_seqs",
    "check_tail_consistency",
    "RankOneTerm",
    "OperatorRep",
    "MatrixOp",
    "DiagonalOp",
    "SumOp",
    "matrix_op",
    "named_diagonal",
    "list_generators",
    "scale_shift",
    "add_rank_one",
    "add_operators",
    "compose_operators",
    "zero_like",
    "truncate",
    "NormBound",
    "operator_norm",
    "BlockTail",
    "block_tail",
    "block_tail_op",
    "operator_to_json",
    "operator_from_json",
    "scalar_to_json",
    "scalar_from_json",
]

DEFAULT_PREFIX = 10_000

# Tolerances: exact-arithmetic identities get 1e-12, anything routed through
# an eigen/singular value decomposition gets 1e-8 of headroom.
UNIT_TOL = 1e-12
RANK_TOL = 1e-13


class OperatorError(Exception):
    """Base class for operator-domain failures."""


class UnboundedOperatorError(OperatorError):
    """Raised when a norm (or similar supremum) provably diverges."""


class InconclusiveError(OperatorError):
    """A quantity could only be bracketed, not certified.

    Carries the best known interval in ``lower`` / ``upper``.
    """

    def __init__(self, message: str, lower: float = math.nan, upper: float = math.nan):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class NotRepresentableError(OperatorError):
    """The requested result falls outside the representable class."""


def _as_scalar(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"scalar must be finite, got {z!r}")
    return z


# ---------------------------------------------------------------------------
# Sparse vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vec:
    """Finite-support vector with 1-based indices.

    ``dim`` is the ambient dimension: an integer for C^n, ``None`` for l2.
    Entries are kept strictly increasing in index with exact zeros dropped,
    so the norm and inner products are computed exactly from the support.
    """

    entries: tuple[tuple[int, complex], ...]
    dim: int | None = None

    def __post_init__(self):
        cleaned = []
        last = 0
        for idx, val in self.entries:
            if not isinstance(idx, (int, np.integer)) or idx < 1:
                raise ValueError(f"indices must be positive integers, got {idx!r}")
            if idx <= last:
                raise ValueError("indices must be strictly increasing")
            last = int(idx)
            val = _as_scalar(val)
            if val != 0:
                cleaned.append((int(idx), val))
        if self.dim is not None:
            if self.dim < 1:
                raise ValueError("dim must be >= 1")
            if cleaned and cleaned[-1][0] > self.dim:
                raise ValueError("entry index exceeds declared dimension")
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def basis(cls, index: int, dim: int | None = None) -> "Vec":
        return cls(((index, 1.0 + 0j),), dim)

    @classmethod
    def from_dense(cls, arr, dim="auto") -> "Vec":
        arr = np.asarray(arr, dtype=complex).ravel()
        if dim == "auto":
            dim = arr.size
        entries = tuple((i + 1, complex(v)) for i, v in enumerate(arr) if v != 0)
        return cls(entries, dim)

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for _, v in self.entries))

    def inner(self, other: "Vec") -> complex:
        """<self, other>, linear in the first argument."""
        other_map = dict(other.entries)
        return sum(v * other_map[i].conjugate() for i, v in self.entries if i in other_map)

    def scale(self, c) -> "Vec":
        c = _as_scalar(c)
        return Vec(tuple((i, c * v) for i, v in self.entries), self.dim)

    def add(self, other: "Vec") -> "Vec":
        dim = _merge_dims(self.dim, other.dim, max(self.max_index, other.max_index))
        acc = dict(self.entries)
        for i, v in other.entries:
            acc[i] = acc.get(i, 0j) + v
        return Vec(tuple(sorted(acc.items())), dim)

    def conj(self) -> "Vec":
        return Vec(tuple((i, v.conjugate()) for i, v in self.entries), self.dim)

    def dense(self, n: int | None = None) -> np.ndarray:
        if n is None:
            n = self.dim if self.dim is not None else self.max_index
        if self.max_index > n:
            raise ValueError("dense target smaller than support")
        out = np.zeros(n, dtype=complex)
        for i, v in self.entries:
            out[i - 1] = v
        return out

    def __add__(self, other):
        return self.add(other)

    def __rmul__(self, c):
        return self.scale(c)


def _merge_dims(a: int | None, b: int | None, needed: int) -> int | None:
    if a is None and b is None:
        return None
    if a is not None and b is not None:
        if a != b:
            raise ValueError(f"dimension mismatch: {a} vs {b}")
        return a
    dim = a if a is not None else b
    if needed > dim:
        raise ValueError("support exceeds finite dimension")
    return dim


# ---------------------------------------------------------------------------
# Declared tail behaviour of lazy diagonal sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergesTo:
    """The entries converge to ``limit``."""

    limit: complex

    def __post_init__(self):
        object.__setattr__(self, "limit", _as_scalar(self.limit))


@dataclass(frozen=True)
class Periodic:
    """The entries are eventually periodic with the given cycle."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(_as_scalar(v) for v in self.values)
        if not vals:
            raise ValueError("periodic cycle must be nonempty")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FiniteRange:
    """The entries take values in a finite set, each recurring infinitely often."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(_as_scalar(v) for v in self.values)
        if not vals:
            raise ValueError("finite range must be nonempty")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class DeclaredAccumulation:
    """Explicit accumulation points, plus a flag for a branch running to infinity."""

    points: tuple[complex, ...]
    diverges_to_infinity: bool = False

    def __post_init__(self):
        pts = _canonical_points(self.points)
        if not pts and not self.diverges_to_infinity:
            raise ValueError("accumulation set may be empty only for divergent sequences")
        object.__setattr__(self, "points", pts)


TailSpec = Union[ConvergesTo, Periodic, FiniteRange, DeclaredAccumulation]


def _canonical_points(points) -> tuple[complex, ...]:
    uniq = {(_as_scalar(p).real, _as_scalar(p).imag) for p in points}
    return tuple(complex(re, im) for re, im in sorted(uniq))


def accumulation_points(tail: TailSpec) -> tuple[complex, ...]:
    """Accumulation points of the sequence, derived from the declaration."""
    if isinstance(tail, ConvergesTo):
        return (tail.limit,)
    if isinstance(tail, (Periodic, FiniteRange)):
        return _canonical_points(tail.values)
    return tail.points


def tail_diverges(tail: TailSpec) -> bool:
    return isinstance(tail, DeclaredAccumulation) and tail.diverges_to_infinity


def map_tail(tail: TailSpec, f, at_infinity=None) -> TailSpec:
    """Push a declared tail through an entrywise map ``f``.

    ``f`` is applied once, to the declared limit or points as a numpy array.
    ``at_infinity`` controls the image of a divergent branch: the string
    ``"diverges"`` keeps it divergent, a scalar declares ``f`` to approach
    that value at infinity, and ``None`` rejects divergent inputs.
    """
    def image(points) -> tuple[complex, ...]:
        return tuple(np.asarray(f(np.array(points, dtype=complex)), dtype=complex).tolist())

    if isinstance(tail, ConvergesTo):
        return ConvergesTo(image([tail.limit])[0])
    if isinstance(tail, (Periodic, FiniteRange)):
        return type(tail)(image(tail.values))
    points = list(image(tail.points))
    diverges = False
    if tail.diverges_to_infinity:
        if at_infinity == "diverges":
            diverges = True
        elif at_infinity is None:
            raise NotRepresentableError("map of a divergent tail needs an image at infinity")
        else:
            points.append(_as_scalar(at_infinity))
    return DeclaredAccumulation(tuple(points), diverges)


# ---------------------------------------------------------------------------
# Lazy diagonal sequences
# ---------------------------------------------------------------------------


# a derived sequence maps its root's entries in blocks of this length, so the
# temporaries of a composed map stay small next to a long prefix
_MAP_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class DiagSeq:
    """Lazy diagonal sequence: entries computed from index arrays, plus a declared tail.

    A root sequence holds ``gen``, which maps an array of 1-based indices to
    the entries there.  A sequence derived by entrywise maps holds its
    ``root`` and ``from_root``, the array map from the root's entries to its
    own, so later combinations of two derived sequences can be carried out
    exactly whenever they share a root.  ``const_value`` marks sequences
    that are constant, which combine with anything.
    """

    tail: TailSpec
    gen: Callable[[np.ndarray], np.ndarray] | None = None
    name: str | None = None
    const_value: complex | None = None
    root: "DiagSeq | None" = None
    from_root: Callable[[np.ndarray], np.ndarray] | None = None

    def root_seq(self) -> "DiagSeq":
        return self.root if self.root is not None else self

    def values(self, n: int) -> np.ndarray:
        """Exact entries 1..n as a complex array."""
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return self.values_at(np.arange(1, n + 1))

    def values_at(self, indices: np.ndarray) -> np.ndarray:
        """Exact entries at a 1-D array of 1-based indices, as a complex array."""
        if self.const_value is not None:
            return np.full(len(indices), self.const_value, dtype=complex)
        # the index array is dropped as soon as it is used: on a long prefix
        # it would otherwise sit beside the generator's temporaries
        if self.root is None:
            vals = self.gen(indices)
            del indices
            return np.asarray(vals, dtype=complex)
        base = self.root.values_at(indices)
        del indices
        out = np.empty(base.size, dtype=complex)
        for lo in range(0, base.size, _MAP_BLOCK):
            out[lo:lo + _MAP_BLOCK] = self.from_root(base[lo:lo + _MAP_BLOCK])
        return out


def diagonal_seq(fn, tail: TailSpec, *, name: str | None = None, vec_fn=None) -> DiagSeq:
    """A primitive lazy diagonal sequence.

    ``fn`` maps a Python int index to its entry.  ``vec_fn``, when given,
    computes the same entries from an index array and is used instead;
    otherwise ``fn`` is lifted once into such an array map.
    """
    if vec_fn is None:
        def vec_fn(indices):
            return np.fromiter(map(fn, indices.tolist()), dtype=complex, count=len(indices))
    return DiagSeq(tail, gen=vec_fn, name=name)


def constant_seq(c) -> DiagSeq:
    c = _as_scalar(c)
    return DiagSeq(ConvergesTo(c), name=f"const:{_format_scalar(c)}", const_value=c)


def map_seq(seq: DiagSeq, f, *, at_infinity=None, tail: TailSpec | None = None) -> DiagSeq:
    """Entrywise map of a sequence, tracking the root generator.

    ``f`` is applied to numpy arrays: to blocks of entries, and to the
    declared tail points and a constant value as arrays of their own.
    """
    new_tail = tail if tail is not None else map_tail(seq.tail, f, at_infinity)
    if seq.const_value is not None:
        c = complex(np.asarray(f(np.array([seq.const_value])), dtype=complex)[0])
        return constant_seq(c) if tail is None else DiagSeq(new_tail, const_value=c)
    prev = seq.from_root
    from_root = f if prev is None else lambda a: f(prev(a))
    return DiagSeq(new_tail, root=seq.root_seq(), from_root=from_root)


def shared_root(a: DiagSeq, b: DiagSeq) -> DiagSeq | None:
    """The common root generator of two sequences, if they have one.

    Roots are shared by identity or by registry name (two lookups of the
    same named generator are pointwise identical).
    """
    ra, rb = a.root_seq(), b.root_seq()
    if ra is rb:
        return ra
    if ra.name is not None and ra.name == rb.name:
        return ra
    return None


def _approach_side(other: TailSpec, h, at_infinity) -> TailSpec:
    # one factor converges, so the combined tail follows the other factor's
    # declared points through h; Periodic and FiniteRange demote to plain
    # accumulation points because the converging side only approaches its
    # limit, it need not hit it
    tail = map_tail(other, h, at_infinity)
    if isinstance(tail, (Periodic, FiniteRange)):
        return DeclaredAccumulation(tail.values, False)
    return tail


def zip_seqs(a: DiagSeq, b: DiagSeq, g, *, at_infinity=None,
             tail: TailSpec | None = None) -> DiagSeq:
    """Combine two sequences entrywise with ``g``, applied to numpy arrays.

    Exact when either sequence is constant or both share a root generator;
    anything else would require joint tail knowledge the declarations do
    not carry, so it is rejected.

    The combined tail honours the operands' own declarations whenever one
    side converges.  Pushing the composite map through the root instead
    would presume continuity at the root's limit, which derived sequences
    such as entrywise phases are allowed to break.
    """
    # a constant operand is broadcast, not written out once per block
    if a.const_value is not None:
        ca = a.const_value
        return map_seq(b, lambda z: g(np.broadcast_to(ca, z.shape), z),
                       at_infinity=at_infinity, tail=tail)
    if b.const_value is not None:
        cb = b.const_value
        return map_seq(a, lambda z: g(z, np.broadcast_to(cb, z.shape)),
                       at_infinity=at_infinity, tail=tail)
    root = shared_root(a, b)
    if root is None:
        raise NotRepresentableError(
            "cannot combine lazy sequences with unrelated generators")
    fa = a.from_root or (lambda z: z)
    fb = b.from_root or (lambda z: z)
    if tail is None and isinstance(a.tail, ConvergesTo):
        ca = a.tail.limit
        tail = _approach_side(b.tail, lambda q: g(np.full(q.shape, ca), q), at_infinity)
    elif tail is None and isinstance(b.tail, ConvergesTo):
        cb = b.tail.limit
        tail = _approach_side(a.tail, lambda p: g(p, np.full(p.shape, cb)), at_infinity)
    return map_seq(root, lambda z: g(fa(z), fb(z)), at_infinity=at_infinity, tail=tail)


def check_tail_consistency(seq: DiagSeq, n: int = DEFAULT_PREFIX, tol: float = 1e-9) -> bool:
    """Heuristic guard against a grossly misdeclared tail.

    For a declared limit or accumulation set the deviations from it must
    shrink: the largest over the last quarter of the prefix may be at most
    0.95 times the largest over the second quarter (plus ``tol``).  They are
    Euclidean, or chordal when a branch diverges, since a chordal deviation
    from a finite point far from 0 is too small to notice.  Periodic and
    finite-range declarations must be realised by the late prefix.
    """
    vals = seq.values(n)
    tail = seq.tail
    if isinstance(tail, (ConvergesTo, DeclaredAccumulation)):
        # merely not growing is not enough: entries settling at a distance
        # from a wrongly declared point keep a nearly constant deviation
        dev = _chordal_window_dev if tail_diverges(tail) else _euclid_window_dev
        q = n // 4
        return dev(vals[n - q:], tail) <= 0.95 * dev(vals[q:2 * q], tail) + tol
    if isinstance(tail, Periodic):
        cycle = np.asarray(tail.values, dtype=complex)
        p = cycle.size
        window = vals[-4 * p:]
        return any(
            np.allclose(window, np.tile(np.roll(cycle, -s), 4)[: window.size], atol=tol)
            for s in range(p)
        )
    pts = np.asarray(tail.values, dtype=complex)
    dist = np.min(np.abs(vals[n // 2:, None] - pts[None, :]), axis=1)
    if np.max(dist) > tol:
        return False
    seen = np.min(np.abs(vals[:, None] - pts[None, :]), axis=0)
    return bool(np.max(seen) <= tol)


# chordal metric on C u {inf}; this is exactly the entrywise gap between
# 1-dimensional multiplication operators, so tail slack computed here is
# directly usable by the gap routes.


def _chordal(a, b):
    """Chordal distance between scalars or arrays (broadcast entrywise)."""
    return np.abs(a - b) / (np.sqrt(1 + np.abs(a) ** 2) * np.sqrt(1 + np.abs(b) ** 2))


def _chordal_to_infinity(z):
    return 1.0 / np.sqrt(1 + np.abs(z) ** 2)


def _chordal_window_dev(values: np.ndarray, tail: TailSpec) -> float:
    if values.size == 0:
        return 0.0
    dists = np.full(values.shape, np.inf)
    for p in accumulation_points(tail):
        dists = np.minimum(dists, _chordal(values, p))
    if tail_diverges(tail):
        dists = np.minimum(dists, _chordal_to_infinity(values))
    return float(np.max(dists))


def _euclid_window_dev(values: np.ndarray, tail: TailSpec) -> float:
    if values.size == 0 or tail_diverges(tail):
        return math.inf if tail_diverges(tail) else 0.0
    pts = accumulation_points(tail)
    dists = np.full(values.shape, np.inf)
    for p in pts:
        dists = np.minimum(dists, np.abs(values - p))
    return float(np.max(dists))


# ---------------------------------------------------------------------------
# Rank-one terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankOneTerm:
    """x  |->  coeff * <x, left> * right, with unit left and right."""

    coeff: complex
    left: Vec
    right: Vec

    def __post_init__(self):
        object.__setattr__(self, "coeff", _as_scalar(self.coeff))
        for label, v in (("left", self.left), ("right", self.right)):
            if abs(v.norm() - 1.0) > UNIT_TOL:
                raise ValueError(f"{label} vector must be unit norm (got {v.norm()!r})")

    @property
    def max_support(self) -> int:
        return max(self.left.max_index, self.right.max_index)

    def apply(self, x: Vec) -> Vec:
        return self.right.scale(self.coeff * x.inner(self.left))

    def adjoint(self) -> "RankOneTerm":
        return RankOneTerm(self.coeff.conjugate(), self.right, self.left)

    def dense(self, n: int) -> np.ndarray:
        return self.coeff * np.outer(self.right.dense(n), self.left.dense(n).conj())


# ---------------------------------------------------------------------------
# Operator representations
# ---------------------------------------------------------------------------


class OperatorRep:
    """Common base for the three representable operator families."""

    @property
    def is_l2(self) -> bool:
        raise NotImplementedError

    def apply(self, x: Vec) -> Vec:
        raise NotImplementedError

    def adjoint(self) -> "OperatorRep":
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class MatrixOp(OperatorRep):
    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix must be 2-dimensional and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def is_l2(self) -> bool:
        return False

    def apply(self, x: Vec) -> Vec:
        if x.max_index > self.cols:
            raise ValueError("vector support exceeds matrix domain")
        return Vec.from_dense(self.array @ x.dense(self.cols), dim=self.rows)

    def adjoint(self) -> "MatrixOp":
        return MatrixOp(self.array.conj().T)

    def __eq__(self, other):
        return isinstance(other, MatrixOp) and np.array_equal(self.array, other.array)


def matrix_op(rows) -> MatrixOp:
    return MatrixOp(np.asarray(rows))


@dataclass(frozen=True, eq=False)
class DiagonalOp(OperatorRep):
    seq: DiagSeq

    @property
    def is_l2(self) -> bool:
        return True

    def apply(self, x: Vec) -> Vec:
        if x.dim is not None:
            raise ValueError("diagonal operators act on l2 vectors (dim=None)")
        entries = self.seq.values_at(np.array([i for i, _ in x.entries], dtype=np.int64))
        return Vec(tuple((i, complex(d) * v) for (i, v), d in zip(x.entries, entries)), None)

    def adjoint(self) -> "DiagonalOp":
        return DiagonalOp(map_seq(self.seq, np.conj, at_infinity="diverges"))


@dataclass(frozen=True, eq=False)
class SumOp(OperatorRep):
    """base + shift*I + sum of rank-one terms.  Base is Matrix or Diagonal."""

    base: OperatorRep
    shift: complex = 0j
    terms: tuple[RankOneTerm, ...] = ()

    def __post_init__(self):
        if not isinstance(self.base, (MatrixOp, DiagonalOp)):
            raise ValueError("sum base must be a matrix or diagonal operator, not a nested sum")
        object.__setattr__(self, "shift", _as_scalar(self.shift))
        object.__setattr__(self, "terms", tuple(self.terms))
        if isinstance(self.base, MatrixOp):
            if self.shift != 0 and self.base.rows != self.base.cols:
                raise ValueError("shift requires a square matrix base")
            n = self.base.cols
            for t in self.terms:
                if t.max_support > n:
                    raise ValueError("rank-one support exceeds matrix base dimension")

    @property
    def is_l2(self) -> bool:
        return self.base.is_l2

    def apply(self, x: Vec) -> Vec:
        out = self.base.apply(x)
        if self.shift != 0:
            out = out.add(x.scale(self.shift))
        for t in self.terms:
            out = out.add(t.apply(x))
        return out

    def adjoint(self) -> "SumOp":
        return SumOp(self.base.adjoint(), self.shift.conjugate(),
                     tuple(t.adjoint() for t in self.terms))


# ---------------------------------------------------------------------------
# Built-in diagonal generator registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, tuple[Callable[[np.ndarray], np.ndarray], TailSpec]] = {
    "one_plus_inv_n": (lambda a: 1.0 + 1.0 / a, ConvergesTo(1.0)),
    "inv_n": (lambda a: 1.0 / a, ConvergesTo(0.0)),
    "alternating01": (lambda a: (a - 1) % 2, Periodic((0.0, 1.0))),
    "linear_n": (lambda a: a.astype(complex),
                 DeclaredAccumulation((), diverges_to_infinity=True)),
}

_SEQ_CACHE: dict[str, DiagSeq] = {}


def named_diagonal(name: str) -> DiagonalOp:
    """Look up a diagonal operator from the generator registry.

    ``const:<value>`` is accepted for constant diagonals, e.g. ``const:0.25``
    or ``const:1j``.  Repeated lookups share one generator object, so
    sequences derived from the same name combine exactly.
    """
    if name.startswith("const:"):
        try:
            c = complex(name[len("const:"):])
        except ValueError as exc:
            raise ValueError(f"bad constant generator {name!r}") from exc
        return DiagonalOp(constant_seq(c))
    if name not in _SEQ_CACHE:
        try:
            gen, tail = _REGISTRY[name]
        except KeyError:
            raise ValueError(f"unknown diagonal generator {name!r}; "
                             f"known: {', '.join(sorted(_REGISTRY))}, const:<value>") from None
        _SEQ_CACHE[name] = DiagSeq(tail, gen=gen, name=name)
    return DiagonalOp(_SEQ_CACHE[name])


def list_generators() -> list[str]:
    return sorted(_REGISTRY) + ["const:<value>"]


# ---------------------------------------------------------------------------
# Block (+) tail canonical form for l2 operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockTail:
    """Exact split of an l2 operator over span{e_i : i in support} (+) its complement.

    ``support`` holds the sorted 1-based coordinates the block acts on;
    ``block`` is the dense operator there, in support order.  On every other
    coordinate the operator multiplies by the entry of ``tail``.  The
    methods below are the only code that maps between block rows, tail
    positions and l2 indices.
    """

    support: tuple[int, ...]
    block: np.ndarray
    tail: DiagSeq

    @property
    def k(self) -> int:
        """Dimension of the block."""
        return len(self.support)

    def tail_blocks(self, stop: int, start: int = 1):
        """``(indices, entries)`` of the tail at start..stop off the support, in blocks.

        A block holds at most ``_MAP_BLOCK`` indices, so a scan of a long
        prefix holds one block at a time; forms on one support pair up.
        """
        support = np.array(self.support, dtype=np.int64)
        for lo in range(start, stop + 1, _MAP_BLOCK):
            hi = min(lo + _MAP_BLOCK, stop + 1)
            indices = np.arange(lo, hi)
            inside = support[(support >= lo) & (support < hi)]
            if inside.size:
                indices = np.delete(indices, inside - lo)
            if indices.size:
                yield indices, self.tail.values_at(indices)

    def embed(self, v: np.ndarray) -> Vec:
        """The l2 vector whose support coordinates are the block vector ``v``."""
        return Vec(tuple(zip(self.support, np.asarray(v, dtype=complex).tolist())), None)

    def widen(self, support) -> "BlockTail":
        """The same operator with its block on ``support``, a sorted superset."""
        support = tuple(support)
        at = np.searchsorted(support, self.support)
        block = np.diag(self.tail.values_at(np.array(support, dtype=np.int64)))
        block[np.ix_(at, at)] = self.block
        return BlockTail(support, block, self.tail)


def block_tail(op: OperatorRep) -> BlockTail:
    """Canonical block-plus-tail form of an l2 operator.

    The block sits on the coordinates the rank-one terms touch; the operator
    reduces over their span and its complement, so the split is exact, not
    an approximation, and its size does not depend on how far out the terms
    sit.
    """
    if isinstance(op, DiagonalOp):
        op = SumOp(op)
    if not (isinstance(op, SumOp) and isinstance(op.base, DiagonalOp)):
        raise NotRepresentableError("block-tail form requires an l2 operator")
    support = tuple(sorted({i for t in op.terms for v in (t.left, t.right)
                            for i, _ in v.entries}))

    def on_support(v: Vec) -> np.ndarray:
        entries = dict(v.entries)
        return np.array([entries.get(i, 0j) for i in support], dtype=complex)

    shift, tail = op.shift, op.base.seq
    if shift != 0:
        tail = map_seq(tail, lambda a: a + shift, at_infinity="diverges")
    block = np.diag(tail.values_at(np.array(support, dtype=np.int64)))
    for t in op.terms:
        block = block + t.coeff * np.outer(on_support(t.right), on_support(t.left).conj())
    return BlockTail(support, block, tail)


def block_tail_op(bt: BlockTail) -> OperatorRep:
    """Rebuild a representable operator from a block-plus-tail form."""
    if bt.k == 0:
        return DiagonalOp(bt.tail)
    diff = bt.block - np.diag(bt.tail.values_at(np.array(bt.support, dtype=np.int64)))
    terms = []
    scale = max(1.0, float(np.max(np.abs(diff))))
    u, s, vh = np.linalg.svd(diff)
    for i, sv in enumerate(s):
        if sv <= RANK_TOL * scale:
            continue
        terms.append(RankOneTerm(sv, bt.embed(vh[i].conj()), bt.embed(u[:, i])))
    return SumOp(DiagonalOp(bt.tail), 0j, tuple(terms)) if terms else DiagonalOp(bt.tail)


def _dense(op: OperatorRep) -> np.ndarray:
    """Materialise a finite-ambient operator."""
    if isinstance(op, MatrixOp):
        return np.array(op.array)
    if isinstance(op, SumOp) and isinstance(op.base, MatrixOp):
        arr = np.array(op.base.array)
        if op.shift != 0:
            arr = arr + op.shift * np.eye(arr.shape[0])
        n = arr.shape[1]
        for t in op.terms:
            arr = arr + t.dense(n)
        return arr
    raise NotRepresentableError("operator has no finite dense form")


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def scale_shift(op: OperatorRep, alpha, beta) -> OperatorRep:
    """alpha*T + beta*I on the same domain."""
    alpha = _as_scalar(alpha)
    beta = _as_scalar(beta)
    if isinstance(op, MatrixOp):
        if beta != 0 and op.rows != op.cols:
            raise ValueError("shift requires a square matrix")
        arr = alpha * op.array
        if beta != 0:
            arr = arr + beta * np.eye(op.rows)
        return MatrixOp(arr)
    if isinstance(op, DiagonalOp):
        if alpha == 0:
            return DiagonalOp(constant_seq(beta))
        return DiagonalOp(map_seq(op.seq, lambda a: alpha * a + beta, at_infinity="diverges"))
    if isinstance(op, SumOp):
        return SumOp(scale_shift(op.base, alpha, 0), alpha * op.shift + beta,
                     tuple(RankOneTerm(alpha * t.coeff, t.left, t.right)
                           for t in op.terms if alpha * t.coeff != 0))
    raise TypeError(f"not an operator: {op!r}")


def add_rank_one(op: OperatorRep, term: RankOneTerm) -> SumOp:
    """Append a rank-one term, flattening into the single allowed sum level."""
    if isinstance(op, SumOp):
        return SumOp(op.base, op.shift, op.terms + (term,))
    if isinstance(op, (MatrixOp, DiagonalOp)):
        return SumOp(op, 0j, (term,))
    raise TypeError(f"not an operator: {op!r}")


def zero_like(op: OperatorRep) -> OperatorRep:
    """The zero operator on the same ambient space."""
    if op.is_l2:
        return DiagonalOp(constant_seq(0.0))
    arr = _dense(op)
    return MatrixOp(np.zeros_like(arr))


def add_operators(a: OperatorRep, b: OperatorRep) -> OperatorRep:
    """Pointwise sum, kept inside the representable class.

    l2 summands must have tails that combine exactly (shared root generator
    or a constant); unrelated lazy tails are rejected rather than guessed.
    """
    if a.is_l2 != b.is_l2:
        raise ValueError("cannot add operators on different ambient spaces")
    if not a.is_l2:
        da, db = _dense(a), _dense(b)
        if da.shape != db.shape:
            raise ValueError("shape mismatch")
        return MatrixOp(da + db)
    bta, btb = _common_support(a, b)
    tail = zip_seqs(bta.tail, btb.tail, np.add, at_infinity="diverges")
    return block_tail_op(BlockTail(bta.support, bta.block + btb.block, tail))


def _common_support(a: OperatorRep, b: OperatorRep) -> tuple[BlockTail, BlockTail]:
    """Block-tail forms of two l2 operators, widened to the union of their supports."""
    bta, btb = block_tail(a), block_tail(b)
    support = sorted(set(bta.support) | set(btb.support))
    return bta.widen(support), btb.widen(support)


def compose_operators(a: OperatorRep, b: OperatorRep, *, at_infinity=None) -> OperatorRep:
    """The composition a(b(x)), kept inside the representable class.

    For l2 operands both split over the union of their supports, so blocks
    multiply densely and tails multiply entrywise.  A divergent root sequence needs
    ``at_infinity`` to say where the product of the two tails heads
    (a scalar or the string ``"diverges"``); bounded roots need nothing.
    """
    if a.is_l2 != b.is_l2:
        raise ValueError("cannot compose operators on different ambient spaces")
    if not a.is_l2:
        da, db = _dense(a), _dense(b)
        if da.shape[1] != db.shape[0]:
            raise ValueError("shape mismatch in composition")
        return MatrixOp(da @ db)
    bta, btb = _common_support(a, b)
    if bta.tail.const_value == 0 or btb.tail.const_value == 0:
        # a zero factor annihilates entrywise, so the product tail is the
        # constant zero even when the other tail is lazy or divergent
        tail = constant_seq(0.0)
    else:
        tail = zip_seqs(bta.tail, btb.tail, np.multiply, at_infinity=at_infinity)
    return block_tail_op(BlockTail(bta.support, bta.block @ btb.block, tail))


def truncate(op: OperatorRep, n: int) -> MatrixOp:
    """The n x n compression P_n T P_n as a dense matrix.

    Rank-one terms reaching beyond index ``n`` are an error; compressions
    never silently drop mass.
    """
    if n < 1:
        raise ValueError("truncation size must be >= 1")
    if isinstance(op, MatrixOp):
        r = min(n, op.rows)
        c = min(n, op.cols)
        out = np.zeros((n, n), dtype=complex)
        out[:r, :c] = op.array[:r, :c]
        return MatrixOp(out)
    if not isinstance(op, (SumOp, DiagonalOp)):
        raise TypeError(f"not an operator: {op!r}")
    for t in getattr(op, "terms", ()):
        if t.max_support > n:
            raise ValueError(f"rank-one support {t.max_support} exceeds truncation size {n}")
    if op.is_l2:
        return MatrixOp(block_tail(op).widen(range(1, n + 1)).block)
    base = truncate(op.base, n).array.copy()
    if op.shift != 0:
        base += op.shift * np.eye(n)
    for t in op.terms:
        base += t.dense(n)
    return MatrixOp(base)


@dataclass(frozen=True)
class NormBound:
    """Operator norm with certified tail slack: the true norm lies in
    [value, value + tail_slack]."""

    value: float
    tail_slack: float = 0.0

    def __float__(self) -> float:
        return self.value


def _spectral_norm(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def operator_norm(op: OperatorRep, *, prefix: int = DEFAULT_PREFIX) -> NormBound:
    """Operator norm; raises :class:`UnboundedOperatorError` on divergent tails.

    Matrices are exact (largest singular value).  For l2 operators the block
    is exact and the diagonal tail is bounded by prefix scan plus declared
    accumulation, with the residual uncertainty reported as ``tail_slack``.
    """
    if not op.is_l2:
        return NormBound(_spectral_norm(_dense(op)), 0.0)
    bt = block_tail(op)
    tail = bt.tail.tail
    if tail_diverges(tail):
        raise UnboundedOperatorError("diagonal entries diverge; operator is unbounded")
    # the deviation is taken over the window past prefix / 2
    top, dev = 0.0, 0.0
    for _, vals in bt.tail_blocks(prefix // 2):
        top = np.maximum(top, np.max(np.abs(vals)))
    for _, vals in bt.tail_blocks(prefix, prefix // 2 + 1):
        top = np.maximum(top, np.max(np.abs(vals)))
        dev = np.maximum(dev, _euclid_window_dev(vals, tail))
    acc_sup = max((abs(p) for p in accumulation_points(tail)), default=0.0)
    value = max(_spectral_norm(bt.block), float(top), acc_sup)
    slack = max(0.0, acc_sup + float(dev) - value)
    return NormBound(value, slack)


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------


def _format_scalar(z: complex) -> str:
    if z.imag == 0:
        return repr(z.real)
    return repr(z)


def scalar_to_json(z) -> Union[float, list]:
    z = _as_scalar(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


def scalar_from_json(obj) -> complex:
    if isinstance(obj, (int, float)):
        return _as_scalar(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return _as_scalar(complex(obj[0], obj[1]))
    raise ValueError(f"bad scalar {obj!r}; expected number or [re, im]")


def _tail_to_json(tail: TailSpec) -> dict:
    if isinstance(tail, ConvergesTo):
        return {"kind": "converges_to", "limit": scalar_to_json(tail.limit)}
    if isinstance(tail, Periodic):
        return {"kind": "periodic", "values": [scalar_to_json(v) for v in tail.values]}
    if isinstance(tail, FiniteRange):
        return {"kind": "finite_range", "values": [scalar_to_json(v) for v in tail.values]}
    return {"kind": "declared", "points": [scalar_to_json(p) for p in tail.points],
            "diverges_to_infinity": tail.diverges_to_infinity}


def tail_from_json(obj: dict) -> TailSpec:
    kind = obj.get("kind")
    if kind == "converges_to":
        return ConvergesTo(scalar_from_json(obj["limit"]))
    if kind == "periodic":
        return Periodic(tuple(scalar_from_json(v) for v in obj["values"]))
    if kind == "finite_range":
        return FiniteRange(tuple(scalar_from_json(v) for v in obj["values"]))
    if kind == "declared":
        return DeclaredAccumulation(tuple(scalar_from_json(p) for p in obj["points"]),
                                    bool(obj.get("diverges_to_infinity", False)))
    raise ValueError(f"unknown tail kind {kind!r}")


def _vec_to_json(v: Vec) -> dict:
    out: dict = {"entries": [[i, scalar_to_json(z)] for i, z in v.entries]}
    if v.dim is not None:
        out["dim"] = v.dim
    return out


def vec_from_json(obj: dict) -> Vec:
    if "basis" in obj:
        return Vec.basis(int(obj["basis"]), obj.get("dim"))
    entries = tuple((int(i), scalar_from_json(z)) for i, z in obj["entries"])
    return Vec(entries, obj.get("dim"))


def operator_to_json(op: OperatorRep) -> dict:
    """JSON document for an operator; diagonal generators must come from
    the registry (derived lazy sequences have no portable form)."""
    if isinstance(op, MatrixOp):
        return {"variant": "matrix",
                "data": [[scalar_to_json(z) for z in row] for row in op.array]}
    if isinstance(op, DiagonalOp):
        if op.seq.name is None:
            raise NotRepresentableError("only registry-named diagonal generators serialise")
        return {"variant": "diagonal", "generator": op.seq.name,
                "tail": _tail_to_json(op.seq.tail)}
    if isinstance(op, SumOp):
        return {"variant": "sum",
                "base": operator_to_json(op.base),
                "shift": scalar_to_json(op.shift),
                "terms": [{"coeff": scalar_to_json(t.coeff),
                           "left": _vec_to_json(t.left),
                           "right": _vec_to_json(t.right)} for t in op.terms]}
    raise TypeError(f"not an operator: {op!r}")


def operator_from_json(obj: dict) -> OperatorRep:
    variant = obj.get("variant")
    if variant == "matrix":
        rows = [[scalar_from_json(z) for z in row] for row in obj["data"]]
        return MatrixOp(np.asarray(rows, dtype=complex))
    if variant == "diagonal":
        op = named_diagonal(obj["generator"])
        if "tail" in obj and obj["tail"] is not None:
            op = DiagonalOp(replace(op.seq, tail=tail_from_json(obj["tail"])))
            if not check_tail_consistency(op.seq):
                raise ValueError(f"declared tail {obj['tail']!r} does not fit the entries "
                                 f"of generator {obj['generator']!r}")
        return op
    if variant == "sum":
        base = operator_from_json(obj["base"])
        terms = tuple(RankOneTerm(scalar_from_json(t["coeff"]),
                                  vec_from_json(t["left"]),
                                  vec_from_json(t["right"]))
                      for t in obj.get("terms", []))
        return SumOp(base, scalar_from_json(obj.get("shift", 0)), terms)
    raise ValueError(f"unknown operator variant {variant!r}")
