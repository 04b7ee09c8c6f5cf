"""Three independent routes to the gap metric, and how they certify tails.

Run:  python3 demos/gap_routes.py
"""

import numpy as np

from minatt import (
    MatrixOp,
    RankOneTerm,
    SumOp,
    Vec,
    add_operators,
    add_rank_one,
    attainment_perturbation_positive,
    gap_upper_bound_check,
    named_diagonal,
    operator_gap_closed_form,
    operator_gap_diagonal,
    operator_gap_graph,
    subspace_gap,
)

# The gap between operators is the gap between their graphs {(x, Tx)}.
# For subspaces it is the norm distance of the orthogonal projections.
a = np.array([[1.0], [0.0]])
b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
print(f"two lines at 45 degrees: gap = {subspace_gap(a, b).value:.12g}\n")

# Route 1 (graph) and route 2 (defect resolvents, no graph bases) must
# agree to working precision on matrices.
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(50):
    n = int(rng.integers(1, 7))
    s = MatrixOp(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    t = MatrixOp(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    worst = max(worst, abs(operator_gap_graph(s, t).value
                           - operator_gap_closed_form(s, t).value))
print(f"graph vs closed form over 50 random pairs: worst deviation {worst:.3e}\n")

# Route 3 (diagonal) pairs the entries of two aligned diagonals with the
# chordal metric on the extended plane.  On l2 every route splits the pair
# over the union of its supports: its own kernel takes the dense blocks,
# and the diagonal tail past them is scanned over the prefix and certified
# from the declared tails, once for all three routes.  tail_bound brackets
# what the unscanned coordinates can still contribute.
t = named_diagonal("inv_n")
s = SumOp(named_diagonal("inv_n"), 0.25,
          (RankOneTerm(-0.125, Vec.basis(17), Vec.basis(17)),))
for prefix in (100, 10_000):
    for gap in (operator_gap_diagonal, operator_gap_graph, operator_gap_closed_form):
        res = gap(s, t, prefix=prefix)
        print(f"{res.route:>11} route, N = {prefix:>6}: value = {res.value:.12g}, "
              f"certified tail bound = {res.tail_bound:.3g}")
print()

# A block that is not diagonal: x -> 0.3 <x, (e1 + e2)/sqrt(2)> e3 couples
# three coordinates.  The diagonal route refuses the pair; the graph and
# closed-form routes measure it, and agree.
u = Vec(((1, np.sqrt(0.5)), (2, np.sqrt(0.5))), None)
coupled = add_rank_one(t, RankOneTerm(0.3, u, Vec.basis(3)))
for gap in (operator_gap_graph, operator_gap_closed_form):
    res = gap(coupled, t)
    print(f"coupled pair, {res.route:>11} route: value = {res.value:.12g}, "
          f"certified tail bound = {res.tail_bound:.3g}")
try:
    operator_gap_diagonal(coupled, t)
except ValueError as err:
    print(f"coupled pair, diagonal route: refused ({err})")
print()

# The gap never exceeds the norm distance; both sides are measured.
op = named_diagonal("one_plus_inv_n")
res = attainment_perturbation_positive(op, 0.5)
rep = gap_upper_bound_check(add_operators(op, res.perturbation), op)
print(f"theta(T+S, T) = {rep.gap.value:.6g} <= ||S|| = {rep.diff_norm.value:.6g} "
      f"(slack {rep.margin:.6g}, holds = {rep.holds})")
