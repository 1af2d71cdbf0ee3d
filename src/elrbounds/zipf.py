"""Zipf and Zipf-Mandelbrot laws and their divergence-bound pipeline.

The law with parameters (N, q, s) puts mass proportional to (i + q)^(-s) on
i = 1..N; q = 0 recovers the plain Zipf law.  `ratio_extrema` scans the
materialized pmf ratios of two same-N laws (the ratio need not be monotone in
i for general parameter pairs, and N is small, so the scan is exhaustive),
and `zm_divergence_bounds` feeds the materialized vectors straight into
`divergence_bounds`, so its output is bit-identical to calling that function
on the vectors directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bounds import BoundReport
from .divergence import ProbabilityVector, RatioRange, divergence_bounds, ratio_range
from .divided_diff import FunctionModel
from .generators import INDEFINITE, GeneratorSpec, classify, make_generator

__all__ = [
    "ZipfMandelbrotParams",
    "normalizer",
    "pmf",
    "pmf_vector",
    "ratio_extrema",
    "zm_divergence_bounds",
]


@dataclass(frozen=True)
class ZipfMandelbrotParams:
    """Support {1..N}, shift q >= 0, exponent s > 0."""

    N: int
    q: float = 0.0
    s: float = 1.0

    def __post_init__(self) -> None:
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        if not self.q >= 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if not self.s > 0:
            raise ValueError(f"s must be > 0, got {self.s}")
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "s", float(self.s))


def _term(i: int, params: ZipfMandelbrotParams) -> float:
    # i + q >= 1, so (i+q)^(-s) lies in (0, 1]: no overflow is possible and a
    # plain power (which underflows gracefully to 0.0) is the accurate choice.
    return (i + params.q) ** -params.s


def normalizer(params: ZipfMandelbrotParams) -> float:
    """H = sum over i = 1..N of (i + q)^(-s)."""
    h = math.fsum(_term(i, params) for i in range(1, params.N + 1))
    if not h > 0.0:
        raise ValueError(f"normalizer underflowed to {h} for {params}")
    return h


def pmf(i: int, params: ZipfMandelbrotParams) -> float:
    """(i + q)^(-s) / H for 1 <= i <= N."""
    if not 1 <= i <= params.N:
        raise ValueError(f"i = {i} outside support 1..{params.N}")
    return _term(i, params) / normalizer(params)


def pmf_vector(params: ZipfMandelbrotParams) -> ProbabilityVector:
    """The full pmf as a probability vector."""
    h = normalizer(params)
    return ProbabilityVector(tuple(_term(i, params) / h for i in range(1, params.N + 1)))


def ratio_extrema(P: ZipfMandelbrotParams, Q: ZipfMandelbrotParams) -> RatioRange:
    """Extremes of pmf_P(i) / pmf_Q(i) over the shared support."""
    if P.N != Q.N:
        raise ValueError(f"laws must share N, got {P.N} and {Q.N}")
    return ratio_range(pmf_vector(P), pmf_vector(Q))


def zm_divergence_bounds(
    P: ZipfMandelbrotParams,
    Q: ZipfMandelbrotParams,
    generator: GeneratorSpec | FunctionModel,
    *,
    n: int,
    theorem: str,
    m: int | None = None,
    convexity: str | None = None,
    interval: tuple[float, float] | None = None,
) -> BoundReport:
    """Materialize both laws, take the ratio extrema as [a, b], and delegate.

    A `GeneratorSpec` is rebuilt on the computed interval and, when
    `convexity` is omitted, classified there; a ready `FunctionModel` is used
    as-is and requires an explicit convexity class.
    """
    if P.N != Q.N:
        raise ValueError(f"laws must share N, got {P.N} and {Q.N}")
    p = pmf_vector(P)
    q = pmf_vector(Q)
    rr = ratio_range(p, q)
    if interval is None:
        if rr.is_degenerate:
            raise ValueError(
                "identical laws give a degenerate ratio range; supply a wider interval"
            )
        a, b = rr.a, rr.b
    else:
        a, b = float(interval[0]), float(interval[1])
    if isinstance(generator, GeneratorSpec):
        spec = replace(generator, domain=(a, b))
        f = make_generator(spec)
        if convexity is None:
            convexity = classify(spec, n)
            if convexity == INDEFINITE:
                raise ValueError(
                    f"{spec.name} has indefinite order-{n} convexity on [{a}, {b}]; "
                    "pass an explicit convexity"
                )
    else:
        f = generator
        if convexity is None:
            raise ValueError("a plain FunctionModel needs an explicit convexity class")
    return divergence_bounds(
        f, p, q, n=n, m=m, theorem=theorem, convexity=convexity, interval=(a, b)
    )
