"""Discrete positive normalized linear functionals and the chord-gap value.

A `DiscreteFunctional` is a weighted point set: nonnegative weights summing
to one and points inside a stored closed interval [a, b].  It realizes a
positive linear functional A with A(1) = 1 applied to point values.
`lr_difference` evaluates A(f(g)) minus the chord of f through (a, f(a)) and
(b, f(b)) taken at A(g) - the quantity every bound in this package brackets.

Points and weights are validated and kept as float64 arrays (their public
`points`/`weights` stay tuples).  Moments of large point sets are read from a
power table (`_Powers`) that raises each base to each exponent once, and a
generator from `make_generator` is evaluated on all points in one call; both
reproduce the point-by-point sums bit for bit, so results never depend on
which path ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .divided_diff import FunctionModel

__all__ = ["DiscreteFunctional", "lr_difference"]

_WEIGHT_SUM_TOL = 1e-12

# Smallest point set whose moments come from a power table.  Below it the
# point-by-point sums are faster, because numpy's per-call overhead outweighs
# the powers the table saves.  Measured on `divergence_bounds` (kl, TM23 n=9
# and COR21 n=7, Dirichlet pairs; 2 vCPU x86-64, Python 3.11, numpy 2.4), an
# op with tables took 1.40x the scalar time at 8 points, 1.02x at 32, 0.90x
# at 48 and 64 and 0.72x at 128; the gate sits at twice the break-even.
_TABLE_MIN_POINTS = 64


def _float_power(base, e: float):
    """base ** e per element, bit for bit as Python's float `**`: `np.float_power`
    calls libm `pow` as `**` does, while `np.power` may take a SIMD pow that
    differs in the last bit.  As with `**`, a finite base whose power
    overflows raises OverflowError."""
    with np.errstate(all="ignore"):
        out = np.float_power(base, e)
    if not np.isfinite(out).all() and (np.isinf(out) & np.isfinite(base)).any():
        raise OverflowError(34, "Numerical result out of range")
    return out


class _Powers:
    """base ** e as float64 arrays, each integer exponent raised once, on first use.

    Every power is `_float_power`, bit for bit (errors included) the float
    `**` of the scalar sums; `np.power` and repeated products round
    differently in the last bit.  Exponent 0 is 1.0 and exponent 1 the base
    itself, as `**` gives them.
    """

    def __init__(self, base: np.ndarray):
        self._arrays = {1: base}

    def __getitem__(self, e: int):
        if e == 0:
            return 1.0
        if e not in self._arrays:
            self._arrays[e] = _float_power(self._arrays[1], float(e))
        return self._arrays[e]


def _float_array(values) -> np.ndarray:
    """`values` (any iterable of numbers) as a new 1-D float64 array."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise TypeError(f"expected a flat sequence of numbers, got shape {arr.shape}")
    return arr


def _first_outside(v: np.ndarray, lo: float, hi: float) -> int | None:
    """Index of the first entry of `v` outside [lo, hi] or NaN, or None.

    Two reductions (NaN propagates through both) settle the common case; only
    a failing array pays for the elementwise mask.
    """
    if np.minimum.reduce(v) >= lo and np.maximum.reduce(v) <= hi:
        return None
    return int(((v >= lo) & (v <= hi)).argmin())


@dataclass(frozen=True)
class DiscreteFunctional:
    """Points x_i in [a, b] with nonnegative weights w_i, sum w_i = 1.

    The interval is stored, not inferred: the bounds depend on the chosen
    enclosing [a, b], which may be strictly wider than the point range.
    Weight sums within 1e-12 of one are renormalized exactly; zero-weight
    points are kept.  From `_TABLE_MIN_POINTS` points on, `moment` keeps a
    power table of g - a and g - b for the functional's lifetime: 8 bytes per
    point for each exponent raised.
    """

    points: tuple[float, ...]
    weights: tuple[float, ...]
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        x = _float_array(self.points)
        w = _float_array(self.weights)
        if len(x) != len(w) or not len(x):
            raise ValueError(
                f"points ({len(x)}) and weights ({len(w)}) must have equal length >= 1"
            )
        a, b = (float(self.interval[0]), float(self.interval[1]))
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"interval must be finite with a < b, got [{a}, {b}]")
        if not np.minimum.reduce(w) >= 0.0:
            i = int((w >= 0.0).argmin())
            raise ValueError(f"weights[{i}] = {float(w[i])} is negative")
        wts = w.tolist()
        total = math.fsum(wts)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, more than 1e-12 away from 1")
        if total != 1.0:
            w = w / total
            wts = w.tolist()
        if (i := _first_outside(x, a, b)) is not None:
            raise ValueError(f"points[{i}] = {float(x[i])} outside interval [{a}, {b}]")
        object.__setattr__(self, "points", tuple(x.tolist()))
        object.__setattr__(self, "weights", tuple(wts))
        object.__setattr__(self, "interval", (a, b))
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_w", w)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def mean(self) -> float:
        """A(g) = sum of w_i x_i."""
        return math.fsum(memoryview(self._w * self._x))

    def apply(self, h: Callable[[float], float]) -> float:
        """A(h(g)) = sum of w_i h(x_i).

        A generator from `make_generator` is evaluated once, by its array form,
        on the point array (its values are the point-by-point ones, bit for
        bit); any other callable is called once per point, in point order.
        """
        array_fn = getattr(h, "_array_fn", None)
        if array_fn is None:
            return math.fsum(w * float(h(x)) for w, x in zip(self.weights, self.points))
        y = array_fn(self._x)
        with np.errstate(invalid="ignore"):  # 0 * inf is nan silently, as in float arithmetic
            return math.fsum(memoryview(self._w * y))

    def moment(self, j: int, k: int) -> float:
        """A[(g - a)^j (g - b)^k] for the stored interval endpoints."""
        if j < 0 or k < 0:
            raise ValueError(f"moment orders must be nonnegative, got ({j}, {k})")
        if len(self.points) < _TABLE_MIN_POINTS:
            return _moment_sum(self.weights, self.points, *self.interval, j, k)
        w, P, Q = self._powers
        try:
            with np.errstate(all="ignore"):  # inf and nan pass silently, as in float arithmetic
                terms = w * P[j] * Q[k]
        except OverflowError:
            # The table raises every power before summing; the point-by-point
            # sum reports its first error in point order (maybe fsum's own).
            return _moment_sum(self.weights, self.points, *self.interval, j, k)
        return math.fsum(memoryview(terms))

    @cached_property
    def _powers(self) -> tuple[np.ndarray, _Powers, _Powers]:
        """The weights and the power tables of g - a and g - b."""
        a, b = self.interval
        with np.errstate(all="ignore"):
            return self._w, _Powers(self._x - a), _Powers(self._x - b)

    def to_dict(self) -> dict:
        return {
            "points": list(self.points),
            "weights": list(self.weights),
            "interval": list(self.interval),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteFunctional":
        try:
            return cls(
                points=tuple(data["points"]),
                weights=tuple(data["weights"]),
                interval=(data["interval"][0], data["interval"][1]),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"functional JSON needs points/weights/interval: {exc}") from exc


def _moment_sum(weights, points, a: float, b: float, j: int, k: int) -> float:
    """sum of w_i (x_i - a)^j (x_i - b)^k point by point: the power table's reference."""
    return math.fsum(w * (x - a) ** j * (x - b) ** k for w, x in zip(weights, points))


def lr_difference(f: FunctionModel, A: DiscreteFunctional) -> float:
    """A(f(g)) - ((b - A(g)) f(a) + (A(g) - a) f(b)) / (b - a).

    Nonpositive whenever f is convex (the chord lies above the function).
    """
    a, b = A.interval
    lo, hi = f.domain
    if a < lo or b > hi:
        raise ValueError(
            f"functional interval [{a}, {b}] not contained in domain [{lo}, {hi}] of {f.name!r}"
        )
    mean = A.mean
    return (
        A.apply(f)
        - (b - mean) / (b - a) * float(f(a))
        - (mean - a) / (b - a) * float(f(b))
    )
