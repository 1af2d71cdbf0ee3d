"""Discrete positive normalized linear functionals and the chord-gap value.

A `DiscreteFunctional` is a weighted point set: nonnegative weights summing
to one and points inside a stored closed interval [a, b].  It realizes a
positive linear functional A with A(1) = 1 applied to point values.
`lr_difference` evaluates A(f(g)) minus the chord of f through (a, f(a)) and
(b, f(b)) taken at A(g) - the quantity every bound in this package brackets.

Points and weights are validated and kept as read-only float64 arrays; the
public `points`/`weights` tuples are built from them on first read, so the
array paths never pay for them, and copies and pickles are rebuilt from the
arrays alone.  A function that accepts the point array is evaluated on all
points in one call, bit for bit.  `_moments` makes one `_batched` call, the one
sum and rerun of moments: below `_TABLE_MIN_POINTS` points its rows are one 2-D
pass of libm pows, the point-by-point sums' bits; from there on (the one gate,
which `_store` records as `_chains`) they are multiply-chain products of the keys
not yet summed, each summed once per functional within a stated bound of the
scalar sums, which rerun where a power may overflow or a term is not finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .divided_diff import _SUM_MIN_LEN, FunctionModel, _checked_interval, _integer, _sum, _values

__all__ = ["DiscreteFunctional", "lr_difference"]

_SUM_TOL = 1e-12
_CHAIN_MAX = 2.0**1020  # powers and sums of multiply chains stay below it, far from overflow

# Smallest point set whose moments come from multiply chains.
# Against the batched libm sums (`_batched`) the chains break even near 150
# points: `divergence_bounds` with the gate at 1 took this much of its time
# with the gate at 10^9 (kl, TM23 n=9 and COR21 n=7 m=4, 20 Dirichlet(0.5)
# pairs per size, best of 7, three runs; 2 vCPU x86-64, Python 3.11, numpy
# 2.4): 1.7x at 8 points, 1.5-1.7x at 16, 1.2-1.3x at 64, 1.03-1.07x at 128,
# 0.9x at 192, 0.7x at 512.  It stays at 64 (set at twice the break-even of
# the old generator sums), since moving it moves reports' last bits.
_TABLE_MIN_POINTS = 64


def _chain_table(base: np.ndarray) -> Callable[[int], np.ndarray | float]:
    """e -> base^e as a float64 array by repeated multiplication: one multiply per
    exponent, each power kept (a list, not a self-referencing cache, so nothing
    outlives the caller's last reference)."""
    powers = [1.0, base]

    def power(e: int) -> np.ndarray | float:
        while len(powers) <= e:
            powers.append(powers[-1] * base)
        return powers[e]

    return power


@lru_cache(maxsize=256)  # a table's keys share their exponents
def _pow_below(base: float, e: int, limit: float) -> bool:
    """base**e < limit by libm `pow`: the float `**`'s bits, inf where `**` raises, so a gate that cannot raise."""
    return np.float_power(base, e) < limit


@lru_cache(maxsize=256)
def _exponents(keys: tuple) -> np.ndarray:
    """The exponent columns J, K of `keys`, a tuple of (j, k) pairs, as one (2, len, 1) array."""
    return np.array(keys, dtype=float).reshape(-1, 2, 1).transpose(1, 0, 2)


def _batched(keys: tuple, rows, scalar) -> list[float]:
    """The moments of `keys`, the one sum and rerun of moments: `rows` gives each key its terms (a 2-D libm pass's
    row, a chain product) or None; a key declined, or whose fsum raises or is not finite, reruns `scalar(*key)`."""
    out = []
    if listed := type(rows) is np.ndarray and rows.shape[1] < _SUM_MIN_LEN:  # fsum reads a small pass fastest as lists
        rows = rows.tolist()
    for key, row in zip(keys, rows):
        try:
            total = math.nan if row is None else math.fsum(row) if listed else _sum(row)
        except (ArithmeticError, ValueError):  # fsum raises ValueError on opposite infinities
            total = math.nan
        out.append(total if math.isfinite(total) else scalar(*key))
    return out


def _float_array(values) -> np.ndarray:
    """`values` (any iterable of numbers) as a new 1-D float64 array."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise TypeError(f"expected a flat sequence of numbers, got shape {arr.shape}")
    return arr


def _lazy_tuples(**arrays: str):
    """Class decorator, after `dataclass`: each tuple field (name -> array attribute)
    becomes a cached property, built on first read and then kept (a `__getattr__`
    would slow down every other attribute read)."""
    def decorate(cls):
        for name, array in arrays.items():
            prop = cached_property(lambda self, array=array: tuple(getattr(self, array).tolist()))
            prop.__set_name__(cls, name)
            setattr(cls, name, prop)
        return cls
    return decorate


def _unit_sum(values: np.ndarray, what: str) -> float:
    """fsum of the float64 array `values`, which must lie within `_SUM_TOL` of 1
    (`what` names them)."""
    total = _sum(values)
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, more than {_SUM_TOL} away from 1")
    return total


def _first_outside(v: np.ndarray, lo: float, hi: float) -> int | None:
    """Index of the first entry of `v` outside [lo, hi] or NaN, or None.

    Two reductions (NaN propagates through both) settle the common case; only
    a failing array pays for the elementwise mask.
    """
    if np.minimum.reduce(v) >= lo and np.maximum.reduce(v) <= hi:
        return None
    return int(((v >= lo) & (v <= hi)).argmin())


@_lazy_tuples(points="_x", weights="_w")
@dataclass(frozen=True)
class DiscreteFunctional:
    """Points x_i in [a, b] with nonnegative weights w_i, sum w_i = 1.

    The interval is stored, not inferred: the bounds depend on the chosen
    enclosing [a, b], which may be strictly wider than the point range.
    Weight sums within 1e-12 of one are renormalized exactly; zero-weight
    points are kept.  From `_TABLE_MIN_POINTS` points on, `moment` keeps
    multiply chains of g - a and g - b, and each moment it has summed, for
    the functional's lifetime: each chain holds every power up to the
    largest exponent read, 8 bytes per point each.
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
        a, b = _checked_interval(self.interval, "interval")
        if (i := _first_outside(w, 0.0, math.inf)) is not None:
            raise ValueError(f"weights[{i}] = {float(w[i])} is negative")
        total = _unit_sum(w, "weights")
        if (i := _first_outside(x, a, b)) is not None:
            raise ValueError(f"points[{i}] = {float(x[i])} outside interval [{a}, {b}]")
        self._store(x, w, total, (a, b))

    def _store(self, x: np.ndarray, w: np.ndarray, total: float, interval) -> "DiscreteFunctional":
        """Keep valid points x, weights w of fsum `total` (renormalized here) and a checked interval, the
        arrays read-only; `_chains`: moments by multiply chains, from `_TABLE_MIN_POINTS` points on."""
        if total != 1.0:
            w = w / total
        for arr in (x, w):
            arr.setflags(write=False)
        for name in ("points", "weights"):
            vars(self).pop(name, None)
        vars(self).update(interval=interval, _x=x, _w=w, _chains=len(x) >= _TABLE_MIN_POINTS)
        return self

    def __getstate__(self):  # what copies and pickles keep: no cached value
        return self._x, self._w, 1.0, self.interval  # the weights are normalized

    def __setstate__(self, state):
        self._store(*state)

    def __len__(self) -> int:
        return len(self._x)

    @cached_property
    def mean(self) -> float:
        """A(g) = sum of w_i x_i, evaluated once."""
        return _sum(self._w * self._x)

    def apply(self, h: Callable[[float], float]) -> float:
        """A(h(g)) = fsum of w_i h(x_i), h evaluated at the points by `_values`."""
        return self._dot(_values(h, self._x))

    def _dot(self, y: np.ndarray) -> float:
        """fsum of w_i y_i, in point order, for the values y at the points."""
        with np.errstate(invalid="ignore"):  # 0 * inf is nan silently, as in float arithmetic
            return _sum(self._w * y)

    def moment(self, j: int, k: int) -> float:
        """A[(g - a)^j (g - b)^k] for the stored interval endpoints."""
        return self._moments(((_integer(j, "moment order j", 0), _integer(k, "moment order k", 0)),))[0]

    def _moments(self, keys: tuple) -> list[float]:
        """[A[(g - a)^j (g - b)^k] for (j, k) in keys] by one `_batched` call on the terms w X^j Y^k (X = x - a,
        Y = x - b): one 2-D pass of libm pows, `_moment_sum`'s bits; with `_chains`, the chain products of the
        keys not yet summed, one at a time, None where (b - a)^j or (b - a)^k is not below `_CHAIN_MAX`."""
        (a, b), w, x = self.interval, self._w, self._x
        scalar = lambda j, k: _moment_sum(w.tolist(), x.tolist(), a, b, j, k)  # noqa: E731
        with np.errstate(all="ignore"):  # inf and nan pass silently, as in float arithmetic
            if not self._chains:
                J, K = _exponents(keys)
                return _batched(keys, w * np.float_power(x - a, J) * np.float_power(x - b, K), scalar)
            X, Y, summed = self._chain_moments
            new = tuple(dict.fromkeys(key for key in keys if key not in summed))
            rows = (w * X(j) * Y(k) if _pow_below(b - a, j, _CHAIN_MAX) and _pow_below(b - a, k, _CHAIN_MAX)
                    else None for j, k in new)
            summed.update(zip(new, _batched(new, rows, scalar)))
        return [summed[key] for key in keys]

    @cached_property
    def _chain_moments(self) -> tuple:
        """(X, Y, summed): `_chain_table`s of X = x - a and Y = x - b and the moments summed, by key; no self
        (no cycle).  moment(j, k) = `_sum` of t_i = w_i X_i^j Y_i^k is within g sum|t| + alpha, rounded up,
        of `_moment_sum` (faithful libm pows): g = (gamma_ch + gamma_ref) / (1 - max of the two) + 3u for the
        chains' j-1 + k-1 + 2 roundings per term and the reference's 2((j>1) + (k>1)) + 2, and alpha =
        4 N eta ((j + k + 6) max(1, max|X|)^j max(1, max|Y|)^k + 1) below the normal range."""
        (a, b), x = self.interval, self._x
        return _chain_table(x - a), _chain_table(x - b), {}

    def to_dict(self) -> dict:
        return {
            "points": self._x.tolist(),
            "weights": self._w.tolist(),
            "interval": list(self.interval),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscreteFunctional":
        try:
            points, weights, interval = (
                _json_numbers(data[key], f"functional JSON {key}") for key in ("points", "weights", "interval")
            )
            if isinstance(interval, list) and len(interval) > 2:
                raise ValueError(f"functional JSON interval: expected two numbers, got {len(interval)}")
            return cls(points, weights, (interval[0], interval[1]))
        except (KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"functional JSON needs points/weights/interval: {exc}") from exc


def _json_numbers(values, what: str):
    """`values` as given, unless a string stands for the array or, like a boolean,
    for one of its entries (`float` reads both as numbers): a ValueError naming `what`."""
    if isinstance(values, str):
        raise ValueError(f"{what}: expected an array of numbers, got a string")
    for i, v in enumerate(values if isinstance(values, list) else ()):
        if isinstance(v, (str, bool)):
            raise ValueError(f"{what}: entry {i} is not a number: {json.dumps(v)}")
    return values


def _moment_sum(weights, points, a: float, b: float, j: int, k: int) -> float:
    """sum of w_i (x_i - a)^j (x_i - b)^k point by point: the chain table's reference."""
    return math.fsum(w * (x - a) ** j * (x - b) ** k for w, x in zip(weights, points))


def lr_difference(f: FunctionModel, A: DiscreteFunctional) -> float:
    """A(f(g)) - ((b - A(g)) f(a) + (A(g) - a) f(b)) / (b - a).

    Nonpositive whenever f is convex (the chord lies above the function).
    """
    return _lr(f, A)[0]


def _lr(f: FunctionModel, A: DiscreteFunctional) -> tuple[float, tuple]:
    """(lr_difference(f, A), (f(g), f(a), f(b))): the chord gap and f at the points and ends it read."""
    a, b = A.interval
    lo, hi = f.domain
    if a < lo or b > hi:
        raise ValueError(
            f"functional interval [{a}, {b}] not contained in domain [{lo}, {hi}] of {f.name!r}"
        )
    mean = A.mean
    fg, fa, fb = _values(f, A._x), float(f(a)), float(f(b))
    return A._dot(fg) - (b - mean) / (b - a) * fa - (mean - a) / (b - a) * fb, (fg, fa, fb)
