#!/usr/bin/env python3
"""Zipf-Mandelbrot laws and the end-to-end bound pipeline.

The law with parameters (N, q, s) has pmf proportional to (i + q)^(-s) on
{1..N}.  For two same-N laws the pmf ratio extrema give the enclosing
interval, and the divergence bounds apply directly to the materialized
distributions; the pipeline output is bit-identical to running the vector
path by hand.
"""

from elrbounds import (
    GeneratorSpec,
    ZipfMandelbrotParams,
    divergence_bounds,
    f_divergence,
    classify,
    make_generator,
    normalizer,
    pmf_vector,
    ratio_range,
    zm_divergence_bounds,
)

P = ZipfMandelbrotParams(N=8, q=0.0, s=1.2)
Q = ZipfMandelbrotParams(N=8, q=2.7, s=1.5)
print("P:", P)
print("Q:", Q)
print("normalizers:", normalizer(P), normalizer(Q))

p = pmf_vector(P)
q = pmf_vector(Q)
print()
print(" i    pmf_P       pmf_Q       ratio")
for i, (pi, qi) in enumerate(zip(p.values, q.values), start=1):
    print(f"{i:2d}   {pi:.6f}    {qi:.6f}    {pi / qi:.4f}")

rr = ratio_range(p, q)
print(f"ratio extrema: [{rr.a:.6f}, {rr.b:.6f}]")

print()
print("== order-3 bracket for the kl generator ==")
rep = zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=3, theorem="tm23")
print(f"  class: {rep.convexity}   (kl is concave at odd orders)")
print(f"  {rep.lower:+.6f} <= lr = {rep.lr:+.6f} <= {rep.upper:+.6f}")

f = make_generator(GeneratorSpec("kl", domain=(rr.a, rr.b)))
print("  divergence itself:", f_divergence(f, p, q))

print()
print("== the pipeline is pure delegation ==")
by_hand = divergence_bounds(
    f, p, q, n=3, theorem="tm23",
    convexity=classify(GeneratorSpec("kl", domain=(rr.a, rr.b)), 3),
    interval=(rr.a, rr.b),
)
print("  bit-identical to the materialized call:", rep == by_hand)

print()
print("== plain Zipf laws are the q = 0 special case ==")
Z1 = ZipfMandelbrotParams(N=5, q=0.0, s=1.0)
Z2 = ZipfMandelbrotParams(N=5, q=0.0, s=2.0)
print("  Zipf s=1 pmf:", tuple(round(v, 4) for v in pmf_vector(Z1).values))
print("  Zipf s=2 pmf:", tuple(round(v, 4) for v in pmf_vector(Z2).values))
print("  ratio extrema:", ratio_range(pmf_vector(Z1), pmf_vector(Z2)))
