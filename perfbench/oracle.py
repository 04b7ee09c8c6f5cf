"""Reference computations made apart from minatt, with numpy only.

Entries of the diagonal operators come from each generator's own formula,
gaps from the sine of the largest principal angle between graph subspaces
that are orthonormalised here, and minimum moduli from singular values.
Nothing in this module calls minatt; it only reads the plain data (terms,
vectors, matrices) of the objects minatt returns.
"""

from __future__ import annotations

import math

import numpy as np

# entry formulas of the registry generators, n = 1, 2, ...
FORMULAS = {
    "one_plus_inv_n": lambda n: 1.0 + 1.0 / n,
    "inv_n": lambda n: 1.0 / n,
    "linear_n": lambda n: n.astype(float),
}
LIMITS = {"one_plus_inv_n": 1.0, "inv_n": 0.0, "linear_n": math.inf}

CHUNK = 1 << 16  # entries per slice, so that checks at N = 1e6 stay small in memory


def _chunks(n: int):
    for start in range(1, n + 1, CHUNK):
        yield start, min(n, start + CHUNK - 1)


class Diag:
    """alpha * g(n) + beta for a registry generator g, with its limit."""

    def __init__(self, generator: str, alpha: complex = 1.0, beta: complex = 0.0):
        self.generator, self.alpha, self.beta = generator, alpha, beta

    def entries(self, stop: int, start: int = 1) -> np.ndarray:
        """Entries start..stop (1-based, inclusive)."""
        idx = np.arange(start, stop + 1)
        return self.alpha * FORMULAS[self.generator](idx) + self.beta

    @property
    def limit(self) -> complex:
        lim = LIMITS[self.generator]
        return lim if math.isinf(lim) else self.alpha * lim + self.beta


def _patched(d: Diag, start: int, stop: int, changes: dict | None) -> np.ndarray:
    vals = d.entries(stop, start).astype(complex)
    for i, v in (changes or {}).items():
        if start <= i <= stop:
            vals[i - start] = v
    return vals


def minimum_modulus_diag(d: Diag, n: int, changes: dict | None = None):
    """(m, first minimising index or None, attained) of a diagonal operator.

    The infimum is over the first n entries and the limit; it is attained
    when some entry reaches at least as low as the limit.
    """
    best, where = math.inf, None
    for start, stop in _chunks(n):
        mags = np.abs(_patched(d, start, stop, changes))
        i = int(np.argmin(mags))
        if mags[i] < best:
            best, where = float(mags[i]), start + i
    tail = abs(d.limit)
    if best <= tail:
        return best, where, True
    return tail, None, False


# ---------------------------------------------------------------------------
# Gaps from principal angles
# ---------------------------------------------------------------------------


def _line(t):
    """Orthonormal basis (2 components) of the graph line {(x, t x)}; inf -> (0, 1)."""
    t = np.asarray(t, dtype=complex)
    inf = ~np.isfinite(t)
    tt = np.where(inf, 0.0, t)
    scale = np.sqrt(1.0 + np.abs(tt) ** 2)
    first = np.where(inf, 0.0, 1.0 / scale)
    second = np.where(inf, 1.0, tt / scale)
    return first, second


def line_gaps(t, s) -> np.ndarray:
    """Per coordinate, the sine of the angle between the graph lines of t and s.

    Computed as the norm of the part of one unit basis vector orthogonal to
    the other, which stays accurate for small angles.
    """
    a0, a1 = _line(t)
    b0, b1 = _line(s)
    ip = np.conj(a0) * b0 + np.conj(a1) * b1
    r0, r1 = b0 - a0 * ip, b1 - a1 * ip
    return np.sqrt(np.abs(r0) ** 2 + np.abs(r1) ** 2)


def diagonal_gap(t: Diag, s: Diag, n: int, changes_t: dict | None = None,
                 changes_s: dict | None = None) -> float:
    """Gap between two diagonal operators: sup over n <= N and the limit pair.

    The graphs split into one line per coordinate, so the gap is the largest
    per-line sine (Kato's direct sum rule).  ``changes_*`` replace single
    entries, as a bump on a basis vector does.
    """
    prefix = 0.0
    for start, stop in _chunks(n):
        g = line_gaps(_patched(t, start, stop, changes_t), _patched(s, start, stop, changes_s))
        prefix = max(prefix, float(np.max(g)))
    lt, ls = t.limit, s.limit
    if math.isinf(abs(lt)) and math.isinf(abs(ls)):
        return prefix
    return max(prefix, float(line_gaps(np.array([lt]), np.array([ls]))[0]))


def graph_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the graph {(x, Ax)} by a QR factorisation made here."""
    n = a.shape[1]
    q, _ = np.linalg.qr(np.vstack([np.eye(n), a]))
    return q


def subspace_sine(q1: np.ndarray, q2: np.ndarray) -> float:
    """Sine of the largest principal angle between two equal-dimension spans."""
    sigma = np.linalg.svd(q1.conj().T @ q2, compute_uv=False)
    smin = min(1.0, float(sigma[-1]))
    return math.sqrt((1.0 - smin) * (1.0 + smin))


def matrix_gap(a: np.ndarray, b: np.ndarray) -> float:
    return subspace_sine(graph_basis(a), graph_basis(b))


def smallest_singular(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[-1])


# ---------------------------------------------------------------------------
# Reading minatt's outputs as plain data
# ---------------------------------------------------------------------------


def dense_vec(vec, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    for i, z in vec.entries:
        out[i - 1] = z
    return out


def finite_part(op) -> tuple[complex, list, list[int]]:
    """(constant diagonal, rank-one terms, sorted support) of an l2 perturbation.

    Every perturbation minatt builds for a diagonal T is a constant diagonal
    plus shift plus finitely many rank-one terms; anything else is reported
    as a ValueError.
    """
    base = getattr(op, "base", op)
    const = getattr(getattr(base, "seq", None), "const_value", None)
    if const is None:
        raise ValueError(f"perturbation base is not a constant diagonal: {op!r}")
    terms = list(getattr(op, "terms", ()))
    support = sorted({i for t in terms for v in (t.left, t.right) for i, _ in v.entries})
    return complex(const + getattr(op, "shift", 0j)), terms, support


def terms_matrix(terms, support: list[int]) -> np.ndarray:
    """sum of coeff * right left^H restricted to the coordinates in ``support``."""
    pos = {i: a for a, i in enumerate(support)}
    out = np.zeros((len(support), len(support)), dtype=complex)
    for t in terms:
        right = np.zeros(len(support), dtype=complex)
        left = np.zeros(len(support), dtype=complex)
        for i, z in t.right.entries:
            right[pos[i]] = z
        for i, z in t.left.entries:
            left[pos[i]] = z
        out += t.coeff * np.outer(right, left.conj())
    return out


def l2_perturbation_facts(t: Diag, s_op, n: int) -> dict:
    """Norm and rank of S, m(T+S) and theta(T+S, T) for a diagonal T.

    S = c I + F with F of finite rank supported on the coordinates I.  A
    diagonal T reduces over span(e_i, i in I) and its complement, so every
    quantity is the worse of a dense |I| x |I| part and a diagonal part
    (Kato's direct sum rule for the gap).  The diagonal part is scanned over
    n <= N plus the limit.
    """
    c, terms, support = finite_part(s_op)
    k = len(support)
    f = terms_matrix(terms, support)
    s_block = f + c * np.eye(k)
    t_block = np.diag(np.array([t.entries(i, i)[0] for i in support], dtype=complex))
    sing = np.linalg.svd(f, compute_uv=False) if k else np.zeros(0)
    rank = int(np.sum(sing > 1e-12 * max(1.0, float(sing[0]) if k else 0.0)))
    norm_s = max(float(np.linalg.norm(s_block, 2)) if k else 0.0, abs(c))

    block_min = smallest_singular(t_block + s_block) if k else math.inf
    gap = matrix_gap(t_block + s_block, t_block) if k else 0.0
    scan_min = math.inf
    for start, stop in _chunks(n):
        vals = t.entries(stop, start)
        keep = ~np.isin(np.arange(start, stop + 1), support)
        scan_min = min(scan_min, float(np.min(np.abs(vals[keep] + c))))
        if c != 0:
            gap = max(gap, float(np.max(line_gaps(vals[keep] + c, vals[keep]))))
    lim = t.limit
    lim_ts = lim if math.isinf(abs(lim)) else lim + c
    if c != 0 and not math.isinf(abs(lim)):
        gap = max(gap, float(line_gaps(np.array([lim_ts]), np.array([lim]))[0]))
    m = min(block_min, scan_min)
    return {"norm": norm_s, "rank": rank, "m": min(m, abs(lim_ts)),
            "attained": m < abs(lim_ts), "gap": gap, "support": support}


def discrete_eigenvalues(d: Diag, n: int, changes: dict | None = None,
                         gap: float = 1e-6) -> np.ndarray:
    """Entries (real parts) more than ``gap`` away from every other entry and the limit.

    The first n entries are written chunk by chunk into one float array and
    sorted in place; neighbours are then compared chunk by chunk, so the
    scan holds 8 bytes per entry plus one chunk of temporaries.
    """
    v = np.empty(n)
    for start, stop in _chunks(n):
        v[start - 1:stop] = _patched(d, start, stop, changes).real
    v.sort()
    essential = d.limit.real
    found = []
    for start, stop in _chunks(n):
        a, b = start - 1, stop  # v[a:b] is the chunk
        before = v[a - 1] if a > 0 else -np.inf
        after = v[b] if b < n else np.inf
        steps = np.diff(np.concatenate([[before], v[a:b], [after]]))
        seg = v[a:b]
        found.append(seg[(steps[:-1] > gap) & (steps[1:] > gap)
                         & (np.abs(seg - essential) > gap)])
    return np.concatenate(found)
