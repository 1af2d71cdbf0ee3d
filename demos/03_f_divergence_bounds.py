#!/usr/bin/env python3
"""Generalized f-divergences and their certified two-sided bounds.

The divergence of p from q under a generator f is sum q_i f(p_i / q_i).
Feeding the ratios p_i/q_i as points with weights q_i into the chord-gap
machinery (the mean is then exactly 1) bounds the divergence against the
chord of f over the ratio range.  A report is returned only when each side
lies on its side of lr by more than a stated bound on the rounding error of
both; a side within that bound of lr is refused.
"""

from elrbounds import (
    CONCAVE,
    DiscreteFunctional,
    GeneratorSpec,
    ProbabilityVector,
    classify,
    divergence_bounds,
    f_divergence,
    bound,
    make_generator,
    ratio_range,
)

p = ProbabilityVector((0.2, 0.5, 0.3))
q = ProbabilityVector((0.4, 0.3, 0.3))
rr = ratio_range(p, q)
print("p =", p.values)
print("q =", q.values)
print(f"ratio range: [{rr.a:.4f}, {rr.b:.4f}]  (always straddles 1)")

print()
print("== divergence values for the built-in generators ==")
for name in ("kl", "hellinger", "harmonic", "jeffreys"):
    f = make_generator(GeneratorSpec(name, domain=(rr.a, rr.b)))
    print(f"  {name:10s} {f_divergence(f, p, q):+.6f}")

print()
print("== a bracket for the jeffreys generator, order 3 ==")
spec = GeneratorSpec("jeffreys", domain=(rr.a, rr.b))
verdict = classify(spec, 3)
print("order-3 class on the ratio range:", verdict)
f = make_generator(spec)
rep = divergence_bounds(f, p, q, n=3, theorem="tm24", convexity=verdict)
print(f"  {rep.lower:+.6f} <= lr = {rep.lr:+.6f} <= {rep.upper:+.6f}")
print("  (lr is the divergence minus the chord of f at 1; each side lies")
print("   on its side of lr by more than the rounding error of both)")

print()
print("== tight case: a generator of low polynomial degree ==")
quad = GeneratorSpec("poly", domain=(rr.a, rr.b), coeffs=(0.5, -1.0, 0.8))
lin = make_generator(quad)
A = DiscreteFunctional([pi / qi for pi, qi in zip(p.values, q.values)], q.values, (rr.a, rr.b))
rep = bound("tm23", lin, A, 3, None, classify(quad, 3))
print(f"  degree 2 <= n-1: lower={rep.lower:+.6f} = lr={rep.lr:+.6f} = upper={rep.upper:+.6f}")
try:
    divergence_bounds(lin, p, q, n=3, theorem="tm23", convexity=classify(quad, 3))
except RuntimeError as refusal:
    print(f"  divergence_bounds refuses sides equal to lr: {refusal}")

print()
print("== zero-entry conventions ==")
hell = make_generator(GeneratorSpec("hellinger", domain=(0.25, 4.0)))
p0 = ProbabilityVector((0.3, 0.7))
q0 = ProbabilityVector((0.0, 1.0))
print("  q_i = 0 entry uses the declared slope at infinity:",
      f_divergence(hell, p0, q0))
kl = make_generator(GeneratorSpec("kl", domain=(0.25, 4.0)))
print("  same pair under kl diverges:", f_divergence(kl, p0, q0))
