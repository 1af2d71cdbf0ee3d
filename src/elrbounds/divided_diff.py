"""Confluent divided differences and two-point Hermite interpolation.

Divided differences over a node multiset are evaluated with the confluent
Newton table: the multiset is flattened in ascending order with equal nodes
adjacent, a cell spanning a run of j+1 copies of the same node t equals
f^(j)(t)/j!, and every other cell uses the quotient recursion
(`endpoint_table` fills every f[x x i; y x j] of two nodes at once).  On top
of the table sit the Newton form (coefficients are divided differences over
node prefixes), the two-point form matching m derivative orders at the left
endpoint and n-m at the right one, and the remainder evaluation that makes
f(t) = P(t) + R(t) an identity, at one point or, bit for bit the same, at
every point of an array in one pass over the table cells that hold t.

Derivatives are always supplied analytically through `FunctionModel`; nothing
in this module differentiates numerically.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "FunctionModel",
    "NodeMultiset",
    "NewtonForm",
    "divided_difference",
    "endpoint_table",
    "newton_interpolant",
    "hermite_mn",
    "remainder_R",
]

# Distinct nodes closer than this (relative to node scale) are rejected:
# merging them silently would change the interpolation problem, and keeping
# them makes the quotient table ill-conditioned.
_NEAR_NODE_REL = 1e-13


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


# Shortest array `_sum` extracts; shorter ones go straight to `math.fsum`.  An
# extraction pass costs a few numpy calls (about 9 us at 256 elements) on top
# of its passes over the data, while fsum's cost grows with the number of
# partials it keeps, least on smooth positive terms.  Micro-timed, best of 7
# interleaved rounds (2 vCPU x86-64, Python 3.11, numpy 2.4), extraction over
# fsum: on ZM pmf terms 1.70x at 256 elements, 0.89x at 512, 0.73x at 1024,
# 0.35x at 2048, 0.22x at 4096 and 0.11x at 20,000; on wide-range terms (|x|
# over e^+-200, mixed signs) 0.50x at 256, 0.10x at 1024 and 0.02x at 20,000.
# The gate sits at twice the smooth break-even (just under 512); from it on,
# extraction is never slower.
_SUM_MIN_LEN = 1024

_U = 2.0**-53  # unit roundoff of float64
_SUM_PASSES = 3  # extraction passes `_extracted_sum` makes before it gives up

# The certifying gate's error model (`bounds._certify`): _ETA, the subnormal spacing, bounds the
# error of an operation whose result underflows; _UP exceeds gamma_k for every k below 8e6, so one
# factor of it rounds a bound up past its second-order terms and its own plain sums; _ULPS is the
# relative error, in units of u, taken for f and f^(k) of a model that states none (`_error_of`), and
# _TINY (1 + |t|) bounds what an underflowing result adds to f^(k)(t)'s (each built-in formula
# scales one by less than 2^31 (1 + |t|); `power` and `poly` state their own).
_ETA, _UP, _ULPS = 5e-324, 1.0 + 2.0**-30, 16.0
_TINY = 2.0**31 * _ETA


def _error_of(f: FunctionModel):
    """error(k, t, v): a bound on |v - f^(k)(t)| (k = 0: f itself) for the value v that f's model
    returned at t, floats or arrays, but for _TINY (1 + |t|), which a caller adds (summed over
    points, it is one term, and per point a subnormal array is slow): the bound f's `deriv_fn`
    states as `_error`, else _ULPS u |v|."""
    return getattr(f.deriv_fn, "_error", None) or (lambda k, t, v: _ULPS * _U * abs(v))


class _TableOverflow(OverflowError):
    """An endpoint table's border f^(k) overflowed (not a moment)."""


def _is_integer(value) -> bool:
    """True for an integral real number that is not a bool: 3, 3.0, np.int64(3)."""
    # The exact-int test first: it is the common case, and an ABC `isinstance` is slow.
    return type(value) is int or (
        isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
        and value % 1 == 0  # numpy warns on inf % 1, so the finite test comes first
    )


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """`value` as an int when `_is_integer` and in low.. (or low..high), else a
    ValueError naming it: the one rule for integer arguments."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    if _is_integer(value) and low <= value and (high is None or value <= high):
        return int(value)
    limits = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValueError(f"{name} must be an integer {limits}, got {value!r}")


def _check_orders(n: int, m: int | None) -> tuple[int, int | None]:
    """The n/m rule: n an integer >= 2 and m, unless None, an integer in
    1..n-1.  Returns them as ints, so 4.0 reads as 4."""
    n = _integer(n, "n", 2)
    return n, None if m is None else _integer(m, "m", 1, n - 1)


def _checked_interval(interval, name: str) -> tuple[float, float]:
    """`interval` as two floats a < b, both finite, else a ValueError naming it."""
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"{name} must be finite with a < b, got [{a}, {b}]")
    return a, b


def _sum(x: np.ndarray) -> float:
    """`math.fsum(x)` of a contiguous 1-D float64 array, bit for bit, errors included.

    From `_SUM_MIN_LEN` elements on, `_extracted_sum` tries numpy first; where
    it cannot certify its result, and below the gate, `math.fsum` runs.
    """
    if len(x) >= _SUM_MIN_LEN and (r := _extracted_sum(x)) is not None:
        return r
    return math.fsum(memoryview(x))


def _extracted_sum(x: np.ndarray) -> float | None:
    """The correctly rounded sum of x (so `math.fsum(x)`), or None when not proven.

    Extraction (Rump, Ogita & Oishi, "Accurate floating-point summation,
    part I", 2008): with n = len(x), mu = max |x| < 2^e, 2^M >= n + 2 and
    sigma = 2^(M+e), the pass q = fl(fl(sigma + x) - sigma), p = fl(x - q)
    splits x = q + p exactly, with |p| <= u sigma and each q a multiple of
    u sigma with |q| <= 2^-M sigma.  So every partial sum of q is a multiple
    of u sigma below sigma in magnitude, and tau = fl(sum q) is exact in any
    order.  A next pass splits p alike with sigma <- 2^M u sigma, so after k
    passes S = sum(x) = tau_1 + ... + tau_k + sum p exactly.

    Certificate (u = 2^-53, gamma_k = k u / (1 - k u); Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 4):
    - A pass needs fl(sigma + x) <= 1.5 sigma finite and the multiples of
      u sigma to be floats: 2^-1021 <= sigma <= 2^1023.  Every partial sum,
      here and in fsum, then stays below sum |x| < sigma <= 2^1023.
    - lo = fl(sum p) in numpy's order has |lo - sum p| <= gamma_{n-1} n u sigma
      (additions near underflow are exact).
    - r = fsum(taus + [lo]), and ex = fsum(taus + [lo, -r]) is within u |ex|
      (or 2^-1075, below the normal range) of tau_1 + ... + lo - r, so
      |S - r - ex| <= delta = 2 n^2 u^2 sigma + u |ex| + 2^-1074, which covers
      both bounds for n u < 0.1 and the rounding of delta's own operations.
    - r is the correctly rounded S when r != 0 and S - r, which lies within
      delta of ex, stays strictly inside r's rounding interval: less than
      ulp(r)/2 away from zero, and less than ulp(r)/2 toward zero, or
      ulp(r)/4 at a power of two (where the spacing below halves).  Strict
      tests never accept a tie, and evaluating ex +- delta in floating point
      cannot make a test pass, since rounding is monotone and the limits are
      floats.
    Inf, NaN, mu = 0 and a sigma beyond its limits return None, as does an r
    not proven after `_SUM_PASSES` passes (an exact zero, whose fsum is 0.0
    and never -0.0, is never proven).
    """
    n = len(x)
    mu = float(np.maximum.reduce(np.abs(x)))
    if not 0.0 < mu < math.inf:  # NaN fails too
        return None
    M = (n + 1).bit_length()
    sigma_exp = M + math.frexp(mu)[1]
    if sigma_exp > 1023:
        return None
    sigma, step = math.ldexp(1.0, sigma_exp), math.ldexp(_U, M)
    p, taus = x, []
    for _ in range(_SUM_PASSES):
        if sigma < 2.0**-1021:
            return None
        q = p + sigma
        q -= sigma
        taus.append(float(np.add.reduce(q)))
        p = np.subtract(p, q, out=q)  # never writes x
        lo = float(np.add.reduce(p))
        r = math.fsum([*taus, lo])
        if r:
            ex = math.fsum([*taus, lo, -r])
            delta = (2.0 * n * n * _U) * (_U * sigma) + _U * abs(ex) + 5e-324
            away = ex if r > 0.0 else -ex  # S - r, measured away from zero, is away +- delta
            half = math.ulp(r) / 2.0
            toward = half / 2.0 if math.frexp(r)[0] in (0.5, -0.5) else half
            if away + delta < half and delta - away < toward:
                return r
        sigma *= step
    return None


def _values(f: Callable, x: np.ndarray, each: Callable | None = None) -> np.ndarray:
    """f at each element of the float64 array x: the one call f(x) if it returns
    a finite float64 array of x's shape, else (also when it raises) one call per
    element of `each` (default f), in order, on Python floats, with that call's
    values and errors."""
    try:
        y = f(x)
        if (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == x.shape
                and np.isfinite(y).all()):
            return y
    except Exception:
        pass
    each = each or f
    return np.array([float(each(t)) for t in x.ravel().tolist()]).reshape(x.shape)


@dataclass(frozen=True)
class FunctionModel:
    """A scalar function with an analytic derivative stack on a closed interval.

    `fn(t)` evaluates the function and `deriv_fn(k, t)` its k-th derivative,
    1 <= k <= `max_order`.  Both must be defined everywhere on `domain`.  An
    `fn` that accepts a float64 array must return f at each element (the
    package's own models do, bit for bit).
    `zero_limit` and `slope_at_infinity` are optional declared limits
    (lim f(t) as t -> 0+ and lim f(t)/t as t -> inf) consumed by the
    divergence conventions; they play no role in interpolation.
    """

    fn: Callable[[float], float]
    deriv_fn: Callable[[int, float], float]
    domain: tuple[float, float]
    max_order: int = 12
    name: str = "f"
    zero_limit: float | None = None
    slope_at_infinity: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", _checked_interval(self.domain, "domain"))
        object.__setattr__(self, "max_order", _integer(self.max_order, "max_order", 0))

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, order: int, t):
        """k-th derivative at t; `order` must be an integer in 1..max_order."""
        if type(order) is not int:  # the exact-int test first: every table border calls this
            order = _integer(order, "derivative order", 1)
        if not 1 <= order <= self.max_order:
            raise ValueError(
                f"derivative order {order} outside 1..{self.max_order} "
                f"declared by {self.name!r}"
            )
        return self.deriv_fn(order, t)

    def __neg__(self) -> "FunctionModel":
        fn, dfn = self.fn, self.deriv_fn

        def neg(k, t):
            return -dfn(k, t)
        if stated := getattr(dfn, "_error", None):  # -f is off by as much as f
            neg._error = lambda k, t, v: stated(k, t, -v)
        return dataclasses.replace(
            self,
            fn=lambda t: -fn(t),
            deriv_fn=neg,
            name=f"-({self.name})",
            zero_limit=None if self.zero_limit is None else -self.zero_limit,
            slope_at_infinity=(
                None if self.slope_at_infinity is None else -self.slope_at_infinity
            ),
        )

    @classmethod
    def from_polynomial(
        cls,
        coeffs: Sequence[float],
        domain: tuple[float, float],
        name: str | None = None,
        max_order: int = 12,
    ) -> "FunctionModel":
        """Polynomial c0 + c1*t + ... with exact derivatives of every order.

        Its stated error (`_error`) is Horner's gamma_2d sum |c_i| |t|^i (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., §5.1) for the derivative's d + 1 coefficients,
        each rounded up to `order` times, summed by Horner again (gamma_k <= (k + 1) u for k u <
        1/k), plus eta for each step whose product underflows, times the |t|^i after it."""
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(map(math.isfinite, cs)):
            raise ValueError(f"polynomial coefficients must be finite, got {cs}")

        def dv(order, t, _cs=cs):
            acc = 0.0
            for c in reversed(_poly_deriv_coeffs(_cs, order) if order else _cs):
                acc = acc * t + c
            return acc

        def error(order, t, v, _cs=cs):
            coeffs = _poly_deriv_coeffs(_cs, order) if order else _cs
            size = tail = 0.0  # sum |c_i| |t|^i, and 2 sum |t|^i for the steps that underflow
            for c in reversed(coeffs):
                size, tail = size * abs(t) + abs(c), tail * abs(t) + 2.0
            return (4 * len(coeffs) + order + 1) * _U * size + _ETA * tail

        dv._error = error
        return cls(
            fn=functools.partial(dv, 0),
            deriv_fn=dv,
            domain=domain,
            max_order=max_order,
            name=name or "poly(" + ",".join(repr(c) for c in cs) + ")",
        )


def _poly_deriv_coeffs(coeffs: tuple[float, ...], order: int) -> tuple[float, ...]:
    if order >= len(coeffs):
        return (0.0,)
    out = []
    for j in range(len(coeffs) - order):
        c = coeffs[j + order]
        for i in range(j + 1, j + order + 1):
            c *= i
        out.append(c)
    return tuple(out)


def _check_gap(u: float, v: float) -> None:
    if v - u < _NEAR_NODE_REL * max(1.0, abs(u), abs(v)):
        raise ValueError(
            f"nodes {u!r} and {v!r} are distinct but closer than "
            f"{_NEAR_NODE_REL} relative; merge or separate them explicitly"
        )


def _check_support(f: FunctionModel, nodes: Iterable[float], mult: int) -> None:
    """Every node inside f's domain, then the derivative order a run of `mult` equal nodes needs."""
    lo, hi = f.domain
    for v in nodes:
        if not lo <= v <= hi:  # NaN fails too
            raise ValueError(f"node {v!r} outside domain [{lo}, {hi}] of {f.name!r}")
    if mult - 1 > f.max_order:
        raise ValueError(
            f"multiplicity {mult} requires derivative order "
            f"{mult - 1}, but {f.name!r} declares max_order {f.max_order}"
        )


@dataclass(frozen=True)
class NodeMultiset:
    """Interpolation nodes with multiplicities, kept sorted and exactly merged.

    Entries with equal node values (0.0 and -0.0 alike) are merged (multiplicities summed).
    Distinct nodes closer than 1e-13 relative to their magnitude are rejected
    rather than merged.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        merged: dict[float, int] = {}
        for raw_node, raw_mult in self.entries:
            node = float(raw_node)
            if not math.isfinite(node):
                raise ValueError(f"node {raw_node!r} is not finite")
            mult = _integer(raw_mult, "multiplicity", 1)
            merged[node] = merged.get(node, 0) + mult
        if not merged:
            raise ValueError("node multiset must not be empty")
        items = tuple(sorted(merged.items()))
        for (u, _), (v, _) in zip(items, items[1:]):
            _check_gap(u, v)
        object.__setattr__(self, "entries", items)

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "NodeMultiset":
        """Each point once, as a float: the constructor counts exact duplicates."""
        return cls(tuple((float(p), 1) for p in points))

    @property
    def max_multiplicity(self) -> int:
        return max(m for _, m in self.entries)

    def flatten(self) -> tuple[float, ...]:
        return tuple(v for v, m in self.entries for _ in range(m))


@dataclass(frozen=True)
class NewtonForm:
    """Newton-basis polynomial: coefficient j is the divided difference over
    the first j+1 flattened nodes."""

    nodes: tuple[float, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.coeffs):
            raise ValueError("nodes and coeffs must have equal length")

    def __call__(self, t: float) -> float:
        return self._horner(0, t)

    def deriv(self, order: int, t: float) -> float:
        """The derivative of integer order >= 1 at t."""
        return self._horner(_integer(order, "derivative order", 1), t)

    def _horner(self, order: int, t: float) -> float:
        """Row `order` of the Horner recurrence carried with all lower orders: row 0 is the value."""
        d = [float(self.coeffs[-1])] + [0.0] * order
        for c, node in zip(self.coeffs[-2::-1], self.nodes[-2::-1]):
            dt = t - node
            d = [c + dt * d[0]] + [j * d[j - 1] + dt * d[j] for j in range(1, order + 1)]
        return float(d[order])

    def to_dict(self) -> dict:
        return {"nodes": list(self.nodes), "coeffs": list(self.coeffs)}


def _confluent_table(f: FunctionModel, nodes: NodeMultiset) -> list[list[float]]:
    """Columns of the confluent table; cols[j][i] = f over flattened nodes i..i+j."""
    _check_support(f, (v for v, _ in nodes.entries), nodes.max_multiplicity)
    z = nodes.flatten()
    cols = [[float(f(v)) for v in z]]
    for j in range(1, len(z)):
        prev = cols[-1]
        fact = math.factorial(j)
        col = []
        for i in range(len(z) - j):
            if z[i + j] == z[i]:
                col.append(float(f.deriv(j, z[i])) / fact)
            else:
                col.append((prev[i + 1] - prev[i]) / (z[i + j] - z[i]))
        cols.append(col)
    return cols


def divided_difference(f: FunctionModel, nodes: NodeMultiset) -> float:
    """Divided difference of f over the node multiset.

    A run of j+1 equal nodes contributes f^(j)/j!; the result does not depend
    on the order distinct nodes were supplied in.
    """
    return float(_confluent_table(f, nodes)[-1][0])


def endpoint_table(f: FunctionModel, x: float, y: float, rows: int, cols: int) -> list[list[float]]:
    """Two-point divided differences T[i][j] = f[x x i; y x j], i <= rows, j <= cols (both >= 1).

    Borders f^(k)/k! at x (column 0) and y (row 0), other cells
    (T[i-1][j] - T[i][j-1]) / (y - x) with the nodes in ascending order: bit
    for bit the confluent table's cells, with its errors in the order a row of
    cells meets them (gap, domain, f[x, x], f^(k)(x), then a run of y too long).  A border
    f^(k) whose float `**` overflows raises `_TableOverflow`, an OverflowError.
    """
    rows, cols = _integer(rows, "rows", 1), _integer(cols, "cols", 1)
    u, v = sorted((x, y))
    _check_gap(u, v)
    _check_support(f, (u, v), min(rows, 2))
    fact = math.factorial
    try:
        table = [[0.0], [float(f(x))]] + [[float(f.deriv(k, x)) / fact(k)] for k in range(1, rows)]
        _check_support(f, (), min(cols, f.max_order + 2))
        table[0] += [float(f(y))] + [float(f.deriv(k, y)) / fact(k) for k in range(1, cols)]
    except OverflowError as exc:
        raise _TableOverflow(*exc.args) from exc
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            up, left = table[i - 1][j], table[i][j - 1]  # drop one x, drop one y
            table[i].append((up - left) / (v - u) if x < y else (left - up) / (v - u))
    return table


def newton_interpolant(f: FunctionModel, nodes: NodeMultiset) -> NewtonForm:
    """Newton form over the flattened multiset (ascending, equal nodes adjacent).

    At each node of multiplicity mu the form reproduces f and its derivatives
    up to order mu-1.
    """
    cols = _confluent_table(f, nodes)
    z = nodes.flatten()
    return NewtonForm(nodes=z, coeffs=tuple(cols[j][0] for j in range(len(z))))


def hermite_mn(f: FunctionModel, a: float, b: float, m: int, n: int) -> NewtonForm:
    """Two-point form on {a x m, b x (n-m)}: matches f^(i)(a) for i < m and
    f^(i)(b) for i < n-m."""
    n, m = _check_orders(n, m)
    a, b = _checked_interval((a, b), "endpoints")
    return newton_interpolant(f, NodeMultiset(((a, m), (b, n - m))))


def remainder_R(
    f: FunctionModel, a: float, b: float, m: int, n: int, t: float | np.ndarray,
    *, _table: list[list[float]] | None = None,
) -> float | np.ndarray:
    """Interpolation remainder (t-a)^m (t-b)^(n-m) * f[t; a x m; b x (n-m)].

    With a and b swapped it is the mirror remainder of lemma 2.2,
    (t-b)^m (t-a)^(n-m) * f[t; b x m; a x (n-m)].  Exactly zero when t
    coincides with a or b (the prefactor vanishes, so the confluent table is
    never formed there).

    `t` may also be a 1-D float64 array: the result is then the array whose
    element i is bit for bit `remainder_R(f, a, b, m, n, t[i])`, from one
    endpoint table and one pass of the table's cells over all points
    (`_remainder_cells`) or, by `_values`' rule, from the scalar call at each
    point with its errors.  The private `_table` is that pass's
    `endpoint_table(f, a, b, m, n - m)` when the caller already holds it.
    """
    n, m = _check_orders(n, m)
    if not (isinstance(t, np.ndarray) and t.ndim == 1):
        return _remainder_at(f, a, b, m, n, float(t))
    return _values(lambda s: _remainder_cells(f, float(a), float(b), m, n, s, _table), t,
                   lambda s: _remainder_at(f, a, b, m, n, s))


def _remainder_at(f: FunctionModel, a: float, b: float, m: int, n: int, t: float) -> float:
    w = (t - a) ** m * (t - b) ** (n - m)
    if w == 0.0:
        return 0.0
    nodes = NodeMultiset(((t, 1), (float(a), m), (float(b), n - m)))
    return float(w * divided_difference(f, nodes))


def _remainder_cells(
    f: FunctionModel, a: float, b: float, m: int, n: int, t: np.ndarray, T=None
) -> np.ndarray | None:
    """The remainder at all points of t at once, or None where a point needs the scalar path.

    With u < v the sorted endpoints, a point strictly between them has the
    flattened nodes [u x p, t, v x q].  Cells without t are the borders
    f[u x alpha] and f[v x beta] of one `endpoint_table` (T, if given); the cell over
    u x alpha, t, v x beta is
        D[alpha][0]    = (D[alpha-1][0] - f[u x alpha]) / (t - u)
        D[0][beta]     = (f[v x beta] - D[0][beta-1]) / (v - t)
        D[alpha][beta] = (D[alpha-1][beta] - D[alpha][beta-1]) / (v - u),
    the confluent table's operands and IEEE operations, so every element has
    the scalar call's bits.  Points whose prefactor is 0.0 are 0.0 without a
    table, as in the scalar call.  None when a point with a nonzero prefactor
    lies outside (u, v) or within `_NEAR_NODE_REL` of an endpoint.  A libm `pow`
    prefactor that overflows, like a non-finite f(t), makes its result non-finite.
    """
    with np.errstate(all="ignore"):
        w = np.float_power(t - a, float(m)) * np.float_power(t - b, float(n - m))
        live = w != 0.0
        out = np.zeros(len(t))
        if not live.any():
            return out
        s = t[live]
        (u, p), (v, q) = sorted(((a, m), (b, n - m)))
        su, vs = s - u, v - s
        # Inside (u, v), and as far from both ends as `_check_gap` asks (NaN fails).
        scale = np.maximum(1.0, np.abs(s))
        near_u, near_v = (_NEAR_NODE_REL * np.maximum(scale, abs(e)) for e in (u, v))
        if not ((su >= near_u) & (vs >= near_v)).all():
            return None
        if T is None:
            T = endpoint_table(f, a, b, m, n - m)
        fu, fv = ([row[0] for row in T], T[0]) if a < b else (T[0], [row[0] for row in T])
        row = [_values(f, s)]
        for beta in range(1, q + 1):
            row.append((fv[beta] - row[-1]) / vs)
        for alpha in range(1, p + 1):
            nxt = [(row[0] - fu[alpha]) / su]
            for beta in range(1, q + 1):
                nxt.append((row[beta] - nxt[-1]) / (v - u))
            row = nxt
        out[live] = w[live] * row[q]
    return out
