#!/usr/bin/env python3
"""The chord gap, its exact decompositions, and certified brackets.

For a weighted point set A on [a, b], the chord gap is A(f(g)) minus the
chord of f through the endpoints evaluated at the mean A(g); it is
nonpositive for convex f.  The decompositions split it into endpoint
divided-difference terms plus a remainder whose sign is readable from
parity, which is what turns identities into one- and two-sided bounds.
"""

import math

from elrbounds import (
    CONCAVE,
    CONVEX,
    DiscreteFunctional,
    FunctionModel,
    bound,
    decompose_lemma21,
    decompose_lemma22,
    lr_difference,
    n3_closed_form,
)

cube = FunctionModel.from_polynomial([0, 0, 0, 1], (0.0, 2.0), name="t^3")
A = DiscreteFunctional((0.5, 1.5), (0.5, 0.5), (0.0, 2.0))

print("== the running example: f(t)=t^3, points {0.5, 1.5}, weights 1/2 ==")
print("lr =", lr_difference(cube, A), "  (A(f(g)) = 1.75, chord at A(g)=1 is 4)")

print()
print("== both decompositions are exact identities ==")
for label, decompose in (("left-anchored", decompose_lemma21), ("right-anchored", decompose_lemma22)):
    for m in (1, 2):
        terms, remainder = decompose(cube, A, 3, m)
        total = math.fsum(terms) + remainder
        print(f"  {label} m={m}: terms={terms} remainder={remainder:+.4f} -> sum={total}")

print()
print("== the n=3 bracket: -3 <= lr <= -1.5 ==")
r23 = bound("TM23", cube, A, 3, None, CONVEX)
r24 = bound("TM24", cube, A, 3, None, CONVEX)
print("TM23:", r23.to_dict())
print("TM24 agrees bit for bit:", (r23.lower, r23.upper) == (r24.lower, r24.upper))
print("closed form at n=3:", n3_closed_form(cube, A))

print()
print("== parity drives the direction: f(t)=t^5 is 5-convex on [0, 2] ==")
quintic = FunctionModel.from_polynomial([0, 0, 0, 0, 0, 1], (0.0, 2.0), name="t^5")
up = bound("TM21", quintic, A, 5, 4, CONVEX)   # n, m of different parity: upper
low = bound("TM21", quintic, A, 5, 3, CONVEX)  # equal parity: lower
print(f"  n=5, m=4: lr={up.lr:+.4f} <= upper={up.upper:+.4f}")
print(f"  n=5, m=3: lower={low.lower:+.4f} <= lr={low.lr:+.4f}")
right = bound("TM22", quintic, A, 5, 3, CONVEX)  # odd m: upper
print(f"  right-anchored, m=3 odd: lr={right.lr:+.4f} <= upper={right.upper:+.4f}")

print()
print("== pairing the two one-sided bounds gives the odd-n bracket ==")
rep = bound("COR21", quintic, A, 5, 3, CONVEX)
print(f"  {rep.lower:+.4f} <= {rep.lr:+.4f} <= {rep.upper:+.4f}   valid={rep.direction_valid}")

print()
print("== negating f flips every direction and negates every value exactly ==")
neg = bound("TM23", -cube, A, 3, None, CONCAVE)
print("  -f bracket:", (neg.lower, neg.upper), "  lr:", neg.lr)
