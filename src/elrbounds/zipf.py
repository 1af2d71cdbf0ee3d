"""Zipf and Zipf-Mandelbrot laws and their divergence-bound pipeline.

The law with parameters (N, q, s) puts mass proportional to (i + q)^(-s) on
i = 1..N; q = 0 recovers the plain Zipf law.  `zm_divergence_bounds` checks
that the laws share N and hands the materialized vectors (`pmf_vector`) and
the generator to `divergence_bounds`, which resolves the interval, the
generator and the convexity class; its output is therefore bit-identical to
calling that function on the vectors directly.  The interval defaults to the
`ratio_range` of the two vectors, a scan of every ratio: the ratio need not
be monotone in i for general parameter pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .divergence import ProbabilityVector, divergence_bounds
from .divided_diff import FunctionModel, _integer, _sum
from .functional import _unit_sum
from .generators import GeneratorSpec

__all__ = [
    "ZipfMandelbrotParams",
    "normalizer",
    "pmf_vector",
    "zm_divergence_bounds",
]


@dataclass(frozen=True)
class ZipfMandelbrotParams:
    """Support {1..N}, finite shift q >= 0, finite exponent s > 0."""

    N: int
    q: float = 0.0
    s: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer(self.N, "N", 1))
        if not self.q >= 0:
            raise ValueError(f"q must be >= 0, got {self.q}")
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")
        if not self.s > 0:
            raise ValueError(f"s must be > 0, got {self.s}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "s", float(self.s))


def _weights(params: ZipfMandelbrotParams) -> tuple[np.ndarray, float]:
    """(i + q)^(-s) for i = 1..N, and their sum H."""
    # i + q >= 1, so (i+q)^(-s) lies in (0, 1]: no overflow is possible and a
    # plain power (which underflows gracefully to 0.0) is the accurate choice.
    # `np.float_power` is libm `pow`, the same bits as float `**` per term.
    terms = np.float_power(np.arange(1, params.N + 1, dtype=float) + params.q, -params.s)
    h = _sum(terms)
    if not h > 0.0:
        raise ValueError(f"normalizer underflowed to {h} for {params}")
    return terms, h


def normalizer(params: ZipfMandelbrotParams) -> float:
    """H = sum over i = 1..N of (i + q)^(-s)."""
    return _weights(params)[1]


def pmf_vector(params: ZipfMandelbrotParams) -> ProbabilityVector:
    """The full pmf as a probability vector; each (i + q)^(-s) is computed once."""
    terms, h = _weights(params)
    # Built by the store step, without the [0, 1] scan (h = fsum(terms) is at
    # least every term) or a copy; the unit sum is still checked.
    v = terms / h
    return object.__new__(ProbabilityVector)._store(v, _unit_sum(v, "probabilities"))


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

    [a, b] defaults to the ratio range of the two pmfs; a `GeneratorSpec` is
    rebuilt on it and, when `convexity` is omitted, classified there; a ready
    `FunctionModel` is used as-is and requires an explicit convexity class.
    """
    if P.N != Q.N:
        raise ValueError(f"laws must share N, got {P.N} and {Q.N}")
    return divergence_bounds(
        generator, pmf_vector(P), pmf_vector(Q), n=n, m=m, theorem=theorem,
        convexity=convexity, interval=interval,
    )
