"""Generalized f-divergence over finite probability vectors and its bounds.

`f_divergence` evaluates sum of q_i * f(p_i / q_i) with the usual limit
conventions at zero entries: a q_i = 0, p_i = 0 pair contributes nothing,
q_i = 0 with p_i > 0 contributes p_i times the generator's declared slope at
infinity, and p_i = 0 uses the generator's declared limit at 0+.  f is
evaluated once, by `_values`, at the other entries' ratios: one array pass.

`divergence_bounds` is the one path from a pair of distributions to a bound
report.  It resolves the enclosing interval [a, b] once (the ratio range, or
a caller's wider interval), builds a `GeneratorSpec` on it and takes the
n-convexity class from `generators.classify` unless the caller passes one;
a ready `FunctionModel` is used as-is and needs an explicit class.  It then
forms the weighted-point functional with points p_i / q_i and weights q_i
(whose mean is exactly 1), delegates to the requested bound family, and
returns the report only when every side it carries is certified: it lies on
the side of lr that its parity sign predicts by more than a stated bound on
the rounding error of both, read from the one evaluation the report was
computed from (`bounds._evaluate`, judged by `bounds._certify`).  Otherwise
a RuntimeError names the side: "contradicted by lr" (on the wrong side by
more than that), "within rounding of lr", or "is not finite".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as _bounds
from .bounds import BoundReport, _family
from .divided_diff import FunctionModel, _checked_interval, _sum, _values
from .functional import _SUM_TOL, DiscreteFunctional, _first_outside, _float_array, _lazy_tuples, _unit_sum
from .generators import GeneratorSpec, definite_class, make_generator

__all__ = [
    "ProbabilityVector",
    "RatioRange",
    "f_divergence",
    "ratio_range",
    "divergence_bounds",
]


@_lazy_tuples(values="_v")
@dataclass(frozen=True)
class ProbabilityVector:
    """Finite probability distribution: entries in [0, 1] summing to 1.

    The entries are kept as a read-only float64 array, with their fsum, for
    the array passes (ratios, moment chains); the `values` tuple is built from
    it on first read.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        v = _float_array(self.values)
        if not len(v):
            raise ValueError("probability vector must not be empty")
        if (i := _first_outside(v, 0.0, 1.0)) is not None:
            raise ValueError(f"values[{i}] = {float(v[i])} outside [0, 1]")
        self._store(v, _unit_sum(v, "probabilities"))

    def _store(self, v: np.ndarray, total: float) -> "ProbabilityVector":
        """Keep the valid entries v, read-only, and their fsum `total`."""
        v.setflags(write=False)
        vars(self).pop("values", None)
        vars(self).update(_v=v, _total=total)
        return self

    def __getstate__(self):  # what copies and pickles keep: no cached tuple
        return self._v, self._total

    def __setstate__(self, state):
        self._store(*state)

    def __len__(self) -> int:
        return len(self._v)

    def __iter__(self):
        return iter(self.values)


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
        if a > 1.0 + _SUM_TOL or b < 1.0 - _SUM_TOL:
            raise ValueError(f"ratio range ({a}, {b}) does not straddle 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _check_pair(p: ProbabilityVector, q: ProbabilityVector) -> None:
    if len(p) != len(q):
        raise ValueError(f"p has {len(p)} entries but q has {len(q)}")


def f_divergence(f: FunctionModel, p: ProbabilityVector, q: ProbabilityVector) -> float:
    """sum of q_i f(p_i / q_i): first each zero entry's limit convention, in entry order, then f at
    the other ratios by `_values`; `_sum` adds the terms in entry order (a p_i = q_i = 0 pair has none)."""
    _check_pair(p, q)
    pv, qv = p._v, q._v
    live, terms = (pv > 0.0) & (qv > 0.0), np.zeros(len(q))
    for i in np.flatnonzero(~live).tolist():
        pi, qi = float(pv[i]), float(qv[i])
        if qi == 0.0 and pi > 0.0:
            if f.slope_at_infinity is None:
                raise ValueError(
                    f"entry {i}: q_i = 0 with p_i > 0 needs a declared "
                    f"slope-at-infinity limit on {f.name!r}"
                )
            terms[i] = pi * f.slope_at_infinity
        elif qi > 0.0:
            v = f.zero_limit if f.zero_limit is not None else float(f(0.0))
            if math.isnan(v):
                raise ValueError(f"entry {i}: p_i = 0 needs a declared 0+ limit on {f.name!r}")
            terms[i] = qi * v
    with np.errstate(over="ignore"):  # p_i / q_i overflows to inf, as in float division
        ratios = pv[live] / qv[live]
    terms[live] = qv[live] * _values(f, ratios)
    return _sum(terms[(pv > 0.0) | (qv > 0.0)])


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
    `FunctionModel` needs an explicit convexity class.  A report whose sides
    are not all certified is refused with a RuntimeError: `bounds._certify`
    judges them from the tables, moments, terms and f values that
    `bounds._evaluate` summed them from.
    """
    _check_pair(p, q)
    family = _family(theorem)
    ratios = _ratios(p, q)
    rr = RatioRange(float(np.minimum.reduce(ratios)), float(np.maximum.reduce(ratios)))
    if interval is None:
        a, b = rr.a, rr.b
        if b == math.inf:
            i = int(np.isinf(ratios).argmax())
            raise ValueError(
                f"entry {i}: ratio p_i / q_i = {float(p._v[i])!r} / {float(q._v[i])!r} "
                f"overflows; ratio range [{a}, {b}] is not finite"
            )
    else:
        a, b = float(interval[0]), float(interval[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            _checked_interval((a, b), "interval")  # raises its "must be finite" text
        if a > rr.a or b < rr.b:
            raise ValueError(
                f"interval [{a}, {b}] does not contain the ratio range [{rr.a}, {rr.b}]"
            )
    if not a < b:
        raise ValueError(
            f"degenerate ratio interval [{a}, {b}]; supply a wider enclosing interval"
        )
    f = generator
    if isinstance(generator, GeneratorSpec):
        spec = replace(generator, domain=(a, b))
        f = make_generator(spec)
    elif convexity is None:
        raise ValueError("a plain FunctionModel needs an explicit convexity class")
    sides = family.resolve(n, m)  # its n and m texts come before the class's
    if convexity is None:
        convexity = definite_class(spec, n)
    # Built by the store step alone, which skips the checks that hold here: no
    # copy (the ratios are new, q's array is read-only), no sign or sum check
    # of q's entries as weights (q kept their fsum), and no [a, b] scan (a and
    # b are the ratios' extremes or a checked enclosing interval).
    A = object.__new__(DiscreteFunctional)._store(ratios, q._v, q._total, (a, b))
    return _bounds._certify(_bounds._evaluate(family, sides, f, A, n, m, convexity), f, A)
