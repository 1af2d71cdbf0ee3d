"""Confluent divided differences and two-point Hermite interpolation.

Divided differences over a node multiset are evaluated with the confluent
Newton table: the multiset is flattened in ascending order with equal nodes
adjacent, a cell spanning a run of j+1 copies of the same node t equals
f^(j)(t)/j!, and every other cell uses the quotient recursion
(`endpoint_table` fills every f[x x i; y x j] of two nodes at once).  On top
of the table sit the Newton form (coefficients are divided differences over
node prefixes), the two-point form matching m derivative orders at the left
endpoint and n-m at the right one, and the two remainder evaluations that
make f(t) = P(t) + R(t) an identity.

Derivatives are always supplied analytically through `FunctionModel`; nothing
in this module differentiates numerically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "FunctionModel",
    "NodeMultiset",
    "NewtonForm",
    "divided_difference",
    "endpoint_table",
    "newton_interpolant",
    "hermite_mn",
    "remainder_R",
    "remainder_Rstar",
]

# Distinct nodes closer than this (relative to node scale) are rejected:
# merging them silently would change the interpolation problem, and keeping
# them makes the quotient table ill-conditioned.
_NEAR_NODE_REL = 1e-13


@dataclass(frozen=True)
class FunctionModel:
    """A scalar function with an analytic derivative stack on a closed interval.

    `fn(t)` evaluates the function and `deriv_fn(k, t)` its k-th derivative,
    1 <= k <= `max_order`.  Both must be defined everywhere on `domain`.
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
        a, b = self.domain
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"domain must be finite, got [{a}, {b}]")
        if not a < b:
            raise ValueError(f"domain must satisfy a < b, got [{a}, {b}]")
        object.__setattr__(self, "domain", (a, b))
        if int(self.max_order) < 0:
            raise ValueError("max_order must be nonnegative")
        object.__setattr__(self, "max_order", int(self.max_order))

    def __call__(self, t):
        return self.fn(t)

    def deriv(self, order: int, t):
        """k-th derivative at t; `order` must be in 1..max_order."""
        if not 1 <= order <= self.max_order:
            raise ValueError(
                f"derivative order {order} outside 1..{self.max_order} "
                f"declared by {self.name!r}"
            )
        return self.deriv_fn(order, t)

    def __neg__(self) -> "FunctionModel":
        fn, dfn = self.fn, self.deriv_fn
        return dataclasses.replace(
            self,
            fn=lambda t: -fn(t),
            deriv_fn=lambda k, t: -dfn(k, t),
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
        """Polynomial c0 + c1*t + ... with exact derivatives of every order."""
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")

        def ev(t, _cs=cs):
            acc = 0.0
            for c in reversed(_cs):
                acc = acc * t + c
            return acc

        def dv(order, t, _cs=cs):
            acc = 0.0
            for c in reversed(_poly_deriv_coeffs(_cs, order)):
                acc = acc * t + c
            return acc

        return cls(
            fn=ev,
            deriv_fn=dv,
            domain=(float(domain[0]), float(domain[1])),
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
        if v < lo or v > hi:
            raise ValueError(f"node {v!r} outside domain [{lo}, {hi}] of {f.name!r}")
    if mult - 1 > f.max_order:
        raise ValueError(
            f"multiplicity {mult} requires derivative order "
            f"{mult - 1}, but {f.name!r} declares max_order {f.max_order}"
        )


@dataclass(frozen=True)
class NodeMultiset:
    """Interpolation nodes with multiplicities, kept sorted and exactly merged.

    Entries with bitwise-equal node values are merged (multiplicities summed).
    Distinct nodes closer than 1e-13 relative to their magnitude are rejected
    rather than merged.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        merged: dict[float, int] = {}
        for raw_node, raw_mult in self.entries:
            node = float(raw_node)
            mult = int(raw_mult)
            if not math.isfinite(node):
                raise ValueError(f"node {raw_node!r} is not finite")
            if mult < 1 or mult != raw_mult:
                raise ValueError(f"multiplicity must be a positive integer, got {raw_mult!r}")
            merged[node] = merged.get(node, 0) + mult
        if not merged:
            raise ValueError("node multiset must not be empty")
        items = tuple(sorted(merged.items()))
        for (u, _), (v, _) in zip(items, items[1:]):
            _check_gap(u, v)
        object.__setattr__(self, "entries", items)

    @classmethod
    def from_points(cls, points: Iterable[float]) -> "NodeMultiset":
        """Count exact duplicates in a flat point list."""
        counts: dict[float, int] = {}
        for p in points:
            v = float(p)
            counts[v] = counts.get(v, 0) + 1
        return cls(tuple(counts.items()))

    @property
    def total_count(self) -> int:
        return sum(m for _, m in self.entries)

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
        acc = self.coeffs[-1]
        for i in range(len(self.coeffs) - 2, -1, -1):
            acc = self.coeffs[i] + (t - self.nodes[i]) * acc
        return float(acc)

    def deriv(self, order: int, t: float) -> float:
        """Derivative via the Horner recurrence carried with all lower orders."""
        if order < 1:
            raise ValueError("derivative order must be >= 1")
        d = [0.0] * (order + 1)
        d[0] = float(self.coeffs[-1])
        for i in range(len(self.coeffs) - 2, -1, -1):
            dt = t - self.nodes[i]
            new = [0.0] * (order + 1)
            for j in range(order, 0, -1):
                new[j] = j * d[j - 1] + dt * d[j]
            new[0] = self.coeffs[i] + dt * d[0]
            d = new
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
    cells meets them (gap, domain, f[x, x], f^(k)(x), then a run of y too long).
    """
    u, v = sorted((x, y))
    _check_gap(u, v)
    _check_support(f, (u, v), min(rows, 2))
    fact = math.factorial
    table = [[0.0], [float(f(x))]] + [[float(f.deriv(k, x)) / fact(k)] for k in range(1, rows)]
    _check_support(f, (), min(cols, f.max_order + 2))
    table[0] += [float(f(y))] + [float(f.deriv(k, y)) / fact(k) for k in range(1, cols)]
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
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    if not a < b:
        raise ValueError(f"endpoints must satisfy a < b, got a={a}, b={b}")
    return newton_interpolant(f, NodeMultiset(((float(a), m), (float(b), n - m))))


def remainder_R(f: FunctionModel, a: float, b: float, m: int, n: int, t: float) -> float:
    """Interpolation remainder (t-a)^m (t-b)^(n-m) * f[t; a x m; b x (n-m)].

    Exactly zero when t coincides with a or b (the prefactor vanishes, so the
    confluent table is never formed there).
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    t = float(t)
    w = (t - a) ** m * (t - b) ** (n - m)
    if w == 0.0:
        return 0.0
    nodes = NodeMultiset(((t, 1), (float(a), m), (float(b), n - m)))
    return float(w * divided_difference(f, nodes))


def remainder_Rstar(f: FunctionModel, a: float, b: float, m: int, n: int, t: float) -> float:
    """Mirror remainder (t-b)^m (t-a)^(n-m) * f[t; b x m; a x (n-m)]: remainder_R with a, b swapped."""
    return remainder_R(f, b, a, m, n, t)
