"""Walk through every way an operator is made minimum-attaining.

Run:  python3 demos/make_attaining.py
"""

import numpy as np

from minatt import (
    MatrixOp,
    attainment_perturbation,
    attainment_perturbation_positive,
    bounded_below_perturbation,
    minimum_modulus,
    named_diagonal,
    scale_shift,
    verify_perturbation,
)


def show(title, op, res, verification):
    # the result holds the construction's predictions, the verification
    # the numbers certified from T and S alone
    w = verification.attainment
    print(f"--- {title}")
    print(f"    case tag        {res.case.value}")
    print(f"    ||S||           {verification.norm_value:.12g}  (budget {res.epsilon})")
    where = f"index {w.witness_index}" if w.witness_index is not None else "a non-basis vector"
    print(f"    m(T+S)          {w.value:.12g}  attained at {where}"
          f"  (predicted {res.witness.value:.12g})")
    print(f"    gap(T+S, T)     {verification.gap_value:.12g}  via {verification.gap_route}"
          f"  (predicted bound {res.gap_bound:.12g})")
    print(f"    verified        {verification.passed}")
    print()


# A bounded-below diagonal: entries 1 + 1/n decrease to 1 and the infimum is
# never reached.  One negative rank-one cap on a near-minimizing coordinate
# pulls the minimum down to a place where it *is* reached.
t = named_diagonal("one_plus_inv_n")
print(f"before: m(T) = {minimum_modulus(t).value}, attained = {minimum_modulus(t).attained}\n")
res = attainment_perturbation_positive(t, 0.5)
show("bounded below, rank-one drop", t, res, verify_perturbation(t, res))

# A kernel direction means nothing needs doing: S = 0.
t = named_diagonal("alternating01")
res = attainment_perturbation_positive(t, 0.5)
show("null direction already attains", t, res, verify_perturbation(t, res))

# Injective with vanishing minimum: entries 1/n sink to 0 without reaching
# it.  Shift everything up by eps/2, then cap one coordinate back down by
# eps/4; the budget spent is eps/2 <= eps.
t = named_diagonal("inv_n")
res = attainment_perturbation_positive(t, 0.5)
show("injective, vanishing minimum", t, res, verify_perturbation(t, res))

# A non-positive operator goes through its polar decomposition T = V |T|:
# the positive construction runs on |T| and S = V A composes the answer.
t = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
res = attainment_perturbation(t, 0.3)
show("general route through T = V |T|", t, res, verify_perturbation(t, res))

# Matrices work the same way; m(T) is the smallest singular value.
t = MatrixOp(np.array([[1.0, 1.0], [0.0, 1.0]]))
res = attainment_perturbation(t, 0.3)
show("non-normal matrix", t, res, verify_perturbation(t, res))

# When T is bounded below the perturbation can stay rank one even through
# the polar composition, preserving closed range.
t = scale_shift(named_diagonal("one_plus_inv_n"), -1.0, 0.0)
res = bounded_below_perturbation(t, 0.5)
show("bounded below, rank one preserved", t, res, verify_perturbation(t, res))
