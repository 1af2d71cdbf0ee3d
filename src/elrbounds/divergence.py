"""Generalized f-divergence over finite probability vectors and its bounds.

`f_divergence` evaluates sum of q_i * f(p_i / q_i) with the usual limit
conventions at zero entries: a q_i = 0, p_i = 0 pair contributes nothing,
q_i = 0 with p_i > 0 contributes p_i times the generator's declared slope at
infinity, and p_i = 0 uses the generator's declared limit at 0+.

`divergence_bounds` is the one path from a pair of distributions to a bound
report.  It resolves the enclosing interval [a, b] once (the ratio range, or
a caller's wider interval), builds a `GeneratorSpec` on it and takes the
n-convexity class from `generators.classify` unless the caller passes one;
a ready `FunctionModel` is used as-is and needs an explicit class.  It then
forms the weighted-point functional with points p_i / q_i and weights q_i
(whose mean is exactly 1), delegates to the requested bound family, and
re-evaluates every bound value through the probability-sum form of the
moments

    sum_i (p_i - a q_i)^j (p_i - b q_i)^k / q_i^(j + k - 1)

as an independent transcription check; the two routes must agree to 1e-12
and share each side's endpoint table, built once.
On large point sets each route reads its moments from its own power table
(the functional's, freed before the crosscheck starts, and one the crosscheck
builds per call), bit-identical to the point-by-point sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import bounds as _bounds
from .bounds import CONVEX, BoundReport, _family, _terms
from .divided_diff import FunctionModel
from .functional import (
    _TABLE_MIN_POINTS, DiscreteFunctional, _first_outside, _float_array, _Powers,
)
from .generators import GeneratorSpec, definite_class, make_generator

__all__ = [
    "ProbabilityVector",
    "RatioRange",
    "f_divergence",
    "ratio_range",
    "divergence_bounds",
    "direct_bound_values",
]

_PROB_SUM_TOL = 1e-12
_CROSSCHECK_TOL = 1e-12


@dataclass(frozen=True)
class ProbabilityVector:
    """Finite probability distribution: entries in [0, 1] summing to 1.

    `values` is a tuple; the same entries are kept as a float64 array for the
    array passes (ratios, power tables).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        v = _float_array(self.values)
        if not len(v):
            raise ValueError("probability vector must not be empty")
        if (i := _first_outside(v, 0.0, 1.0)) is not None:
            raise ValueError(f"values[{i}] = {float(v[i])} outside [0, 1]")
        vals = v.tolist()
        total = math.fsum(vals)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, more than 1e-12 away from 1")
        object.__setattr__(self, "values", tuple(vals))
        object.__setattr__(self, "_v", v)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @classmethod
    def of(cls, values: Iterable[float]) -> "ProbabilityVector":
        return cls(tuple(values))


@dataclass(frozen=True)
class RatioRange:
    """Range of the ratios p_i / q_i; always straddles 1 for positive q.

    A degenerate range (a == b, identical distributions) is representable but
    rejected wherever a bound interval is built from it.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not a <= b:
            raise ValueError(f"ratio range needs a <= b, got ({a}, {b})")
        if a > 1.0 + _PROB_SUM_TOL or b < 1.0 - _PROB_SUM_TOL:
            raise ValueError(f"ratio range ({a}, {b}) does not straddle 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_degenerate(self) -> bool:
        return not self.a < self.b


def _check_pair(p: ProbabilityVector, q: ProbabilityVector) -> None:
    if len(p) != len(q):
        raise ValueError(f"p has {len(p)} entries but q has {len(q)}")


def f_divergence(f: FunctionModel, p: ProbabilityVector, q: ProbabilityVector) -> float:
    """sum of q_i f(p_i / q_i) with limit conventions at zero entries."""
    _check_pair(p, q)
    terms = []
    for i, (pi, qi) in enumerate(zip(p, q)):
        if qi == 0.0:
            if pi == 0.0:
                continue
            if f.slope_at_infinity is None:
                raise ValueError(
                    f"entry {i}: q_i = 0 with p_i > 0 needs a declared "
                    f"slope-at-infinity limit on {f.name!r}"
                )
            terms.append(pi * f.slope_at_infinity)
        elif pi == 0.0:
            v = f.zero_limit if f.zero_limit is not None else float(f(0.0))
            if math.isnan(v):
                raise ValueError(f"entry {i}: p_i = 0 needs a declared 0+ limit on {f.name!r}")
            terms.append(qi * v)
        else:
            terms.append(qi * float(f(pi / qi)))
    return math.fsum(terms)


def _ratios(p: ProbabilityVector, q: ProbabilityVector) -> np.ndarray:
    """p_i / q_i for each entry; every q_i must be positive."""
    if not np.minimum.reduce(q._v) > 0.0:
        i = int((q._v > 0.0).argmin())
        raise ValueError(f"entry {i}: q_i = {q.values[i]} must be positive for ratio bounds")
    with np.errstate(over="ignore"):  # p_i / q_i overflows to inf, as in float division
        return p._v / q._v


def ratio_range(p: ProbabilityVector, q: ProbabilityVector) -> RatioRange:
    """(min p_i/q_i, max p_i/q_i); every q_i must be positive."""
    _check_pair(p, q)
    ratios = _ratios(p, q)
    return RatioRange(float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios)))


def _pq_moment(
    p: ProbabilityVector, q: ProbabilityVector, a: float, b: float, j: int, k: int
) -> float:
    """sum_i (p_i - a q_i)^j (p_i - b q_i)^k / q_i^(j+k-1), a summand whose
    q_i^(j+k-1) underflows to 0 as q_i ((p_i - a q_i)/q_i)^j ((p_i - b q_i)/q_i)^k."""
    return math.fsum(
        (pi - a * qi) ** j * (pi - b * qi) ** k / d if (d := qi ** (j + k - 1))
        else qi * ((pi - a * qi) / qi) ** j * ((pi - b * qi) / qi) ** k
        for pi, qi in zip(p, q)
    )


def _pq_moments(p: ProbabilityVector, q: ProbabilityVector, a: float, b: float):
    """moment(x, y, j, k) = `_pq_moment(p, q, x, y, j, k)` for x, y in {a, b}.

    From `_TABLE_MIN_POINTS` points on, every moment is read from one power
    table of p_i - a q_i, p_i - b q_i and q_i, built for these four arguments
    and bit-identical to `_pq_moment`, errors included.
    """
    if len(q) < _TABLE_MIN_POINTS:
        return lambda x, y, j, k: _pq_moment(p, q, x, y, j, k)
    with np.errstate(all="ignore"):
        U = {x: _Powers(p._v - x * q._v) for x in (a, b)}
    D = _Powers(q._v)

    def moment(x: float, y: float, j: int, k: int) -> float:
        try:
            d = D[j + k - 1]
            if not np.all(d):  # an underflowing q_i^(j+k-1) takes _pq_moment's form
                return _pq_moment(p, q, x, y, j, k)
            with np.errstate(all="ignore"):
                terms = U[x][j] * U[y][k] / d
        except ArithmeticError:
            # As in `DiscreteFunctional.moment`: the point-by-point sum reports
            # its first error in point order.
            return _pq_moment(p, q, x, y, j, k)
        return math.fsum(memoryview(terms))

    return moment


def direct_bound_values(
    f: FunctionModel,
    p: ProbabilityVector,
    q: ProbabilityVector,
    a: float,
    b: float,
    n: int,
    theorem: str,
    m: int | None = None,
    convexity: str = CONVEX,
    *, _tables: dict | None = None,
) -> tuple[float | None, float | None]:
    """Bound sides evaluated through probability sums instead of functional moments.

    Shares the term layout and the divided-difference factors with the
    delegated route but none of the moment arithmetic, so a slip in either
    route's moments shows up as disagreement (layout slips are the identity
    audit's job).  Returns (lower, upper) arranged by the same parity rule.
    The private `_tables` holds the delegated route's endpoint tables, if any.
    """
    family = _family(theorem)
    moment = _pq_moments(p, q, a, b)

    def side(anchor: str, k: int) -> float:
        x, y = (a, b) if anchor == "a" else (b, a)
        return math.fsum(_terms(f, x, y, n, k, partial(moment, x, y), lambda: 1.0, _tables))

    values = [side(x, k) for x, k in family.resolve(n, m)]
    return family.arrange(n, m, convexity, values)[:2]


def divergence_bounds(
    generator: GeneratorSpec | FunctionModel,
    p: ProbabilityVector,
    q: ProbabilityVector,
    *,
    n: int,
    theorem: str,
    m: int | None = None,
    convexity: str | None = None,
    interval: tuple[float, float] | None = None,
) -> BoundReport:
    """Bound report for the chord gap of the ratio functional.

    The functional has points p_i / q_i, weights q_i and mean exactly 1, so
    the reported `lr` equals f_divergence(f, p, q) minus the chord of f
    through (a, f(a)), (b, f(b)) evaluated at 1.  `interval` may widen the
    enclosing [a, b] (it must contain every ratio); identical distributions
    produce a degenerate range and require it.  A `GeneratorSpec` is rebuilt
    on [a, b] and, when `convexity` is omitted, classified there; a plain
    `FunctionModel` needs an explicit convexity class.
    """
    _check_pair(p, q)
    theorem = _family(theorem).tag
    ratios = _ratios(p, q)
    rr = RatioRange(float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios)))
    if interval is None:
        a, b = rr.a, rr.b
    else:
        a, b = float(interval[0]), float(interval[1])
        if a > rr.a or b < rr.b:
            raise ValueError(
                f"interval [{a}, {b}] does not contain the ratio range [{rr.a}, {rr.b}]"
            )
    if not a < b:
        raise ValueError(
            f"degenerate ratio interval [{a}, {b}]; supply a wider enclosing interval"
        )
    if isinstance(generator, GeneratorSpec):
        spec = replace(generator, domain=(a, b))
        f = make_generator(spec)
        if convexity is None:
            convexity = definite_class(spec, n)
    else:
        f = generator
        if convexity is None:
            raise ValueError("a plain FunctionModel needs an explicit convexity class")
    # The ratios and the functional with its power table are freed before
    # the crosscheck builds its own; it reuses the delegated endpoint tables.
    A = DiscreteFunctional(points=ratios, weights=q._v, interval=(a, b))
    del ratios
    tables: dict = {}
    report = _bounds.bound(theorem, f, A, n, m, convexity, _tables=tables)
    del A
    direct = direct_bound_values(f, p, q, a, b, n, theorem, m, convexity, _tables=tables)
    for side, delegated, direct_v in zip(("lower", "upper"), (report.lower, report.upper), direct):
        if (delegated is None) != (direct_v is None):
            raise RuntimeError(f"{theorem} {side}: delegated and direct sides disagree in shape")
        if delegated is not None and abs(delegated - direct_v) > _CROSSCHECK_TOL:
            raise RuntimeError(
                f"{theorem} {side}: delegated value {delegated!r} and direct value "
                f"{direct_v!r} differ by more than {_CROSSCHECK_TOL}"
            )
    return report
