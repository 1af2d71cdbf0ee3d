"""Zipf and Zipf-Mandelbrot laws and their divergence-bound pipeline.

The law with parameters (N, q, s) puts mass proportional to (i + q)^(-s) on
i = 1..N; q = 0 recovers the plain Zipf law.  `ratio_extrema` scans the
materialized pmf ratios of two same-N laws (the ratio need not be monotone in
i for general parameter pairs, and N is small, so the scan is exhaustive),
and `zm_divergence_bounds` checks that the laws share N and hands the
materialized vectors and the generator to `divergence_bounds`, which
resolves the interval, the generator and the convexity class; its output is
therefore bit-identical to calling that function on the vectors directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .divergence import ProbabilityVector, RatioRange, divergence_bounds, ratio_range
from .divided_diff import FunctionModel
from .generators import GeneratorSpec

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


def _weights(params: ZipfMandelbrotParams) -> tuple[np.ndarray, float]:
    """(i + q)^(-s) for i = 1..N, and their sum H."""
    # i + q >= 1, so (i+q)^(-s) lies in (0, 1]: no overflow is possible and a
    # plain power (which underflows gracefully to 0.0) is the accurate choice.
    # `np.float_power` is libm `pow`, the same bits as float `**` per term.
    terms = np.float_power(np.arange(1, params.N + 1, dtype=float) + params.q, -params.s)
    h = math.fsum(memoryview(terms))
    if not h > 0.0:
        raise ValueError(f"normalizer underflowed to {h} for {params}")
    return terms, h


def normalizer(params: ZipfMandelbrotParams) -> float:
    """H = sum over i = 1..N of (i + q)^(-s)."""
    return _weights(params)[1]


def pmf(i: int, params: ZipfMandelbrotParams) -> float:
    """(i + q)^(-s) / H for 1 <= i <= N."""
    if not 1 <= i <= params.N:
        raise ValueError(f"i = {i} outside support 1..{params.N}")
    terms, h = _weights(params)
    return float(terms[i - 1]) / h


def pmf_vector(params: ZipfMandelbrotParams) -> ProbabilityVector:
    """The full pmf as a probability vector; each (i + q)^(-s) is computed once."""
    terms, h = _weights(params)
    return ProbabilityVector(terms / h)


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
    """Materialize both laws and delegate to `divergence_bounds`.

    [a, b] defaults to the ratio extrema; a `GeneratorSpec` is rebuilt on it
    and, when `convexity` is omitted, classified there; a ready
    `FunctionModel` is used as-is and requires an explicit convexity class.
    """
    if P.N != Q.N:
        raise ValueError(f"laws must share N, got {P.N} and {Q.N}")
    return divergence_bounds(
        generator, pmf_vector(P), pmf_vector(Q), n=n, m=m, theorem=theorem,
        convexity=convexity, interval=interval,
    )
