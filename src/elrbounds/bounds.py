"""Chord-gap decompositions and directional bounds for n-convex functions.

Two exact decomposition families split the chord gap LR(f, g, a, b, A) into
endpoint divided-difference terms plus a remainder: `decompose_lemma21`
anchors the node block at the left endpoint a (remainder weight
(g-a)^m (g-b)^(n-m)), `decompose_lemma22` mirrors it at b (remainder weight
(g-b)^m (g-a)^(n-m)), with one shared term layout.  Dropping the remainder
and reading off its sign from the parity of the exponents and the
n-convexity class of f turns each identity into a certified one-sided bound;
pairing two such sides yields a two-sided bracket.

`FAMILIES` registers the bound families by tag: TM21, TM22 (one-sided,
m >= 3), COR21 (bracket from the TM21 and TM22 sides, odd n) and TM23, TM24
(brackets from the m = 1, 2 sides); `bound` evaluates any of them from the
terms alone, each side reading its divided differences from one
`endpoint_table`; only the decompositions evaluate the remainder.  No closed
forms are hard-coded; convexity classification is an input.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import cache, partial

from .divided_diff import (
    FunctionModel, _check_orders, _check_support, _integer, endpoint_table, remainder_R,
)
from .functional import DiscreteFunctional, lr_difference

__all__ = [
    "CONVEX",
    "CONCAVE",
    "FAMILIES",
    "THEOREMS",
    "BoundReport",
    "decompose_lemma21",
    "decompose_lemma22",
    "bound",
    "n3_closed_form",
]

CONVEX = "n-convex"
CONCAVE = "n-concave"


@dataclass(frozen=True)
class _Family:
    """A bound family: its sides and the labels of their CLI term rows.

    A side (anchor, m) is the term sum of decompose_lemma21 (anchor "a") or
    decompose_lemma22 (anchor "b") at m; m None stands for the caller's m,
    which must be >= 3.
    """

    tag: str
    sides: tuple[tuple[str, int | None], ...]
    labels: tuple[str, ...]

    @property
    def takes_m(self) -> bool:
        return any(k is None for _, k in self.sides)

    @property
    def min_n(self) -> int:
        return 4 if self.takes_m else 1 + max(k for _, k in self.sides)

    def resolve(self, n: int, m: int | None) -> list[tuple[str, int]]:
        """The sides with the caller's m filled in; `_terms` checks m against n."""
        n = _integer(n, "n", 2)
        if self.takes_m:
            if m is None or (m := _integer(m, "m", 1)) < 3:
                raise ValueError(f"{self.tag} requires m >= 3, got m={m}")
        elif n < self.min_n:
            raise ValueError(f"{self.tag} requires n >= {self.min_n}, got n={n}")
        return [(x, m if k is None else k) for x, k in self.sides]

    def terms(
        self, f: FunctionModel, interval: tuple[float, float], n: int, m: int | None,
        moment, mean: float, tables=None,
    ) -> Iterator[list[float]]:
        """Yield each side's `_terms` in turn; the remainders they drop are never
        evaluated.  A side anchored at one endpoint of `interval` has x there and
        y at the other, and `moment(x, y, keys)` returns A[(g-x)^j (g-y)^k] for each
        (j, k) of a side's keys, in one call: every route to a side's terms is this loop.
        """
        a, b = interval
        for anchor, k in self.resolve(n, m):
            x, y = (a, b) if anchor == "a" else (b, a)
            yield _terms(f, x, y, n, k, partial(moment, x, y), mean, tables)

    def signs(self, n: int, m: int | None, convexity: str) -> list[int]:
        """Sign of the remainder each side drops: the parity rule.

        With sigma = +1 for n-convex and -1 for n-concave f, the remainder
        dropped by side (anchor, m) has the sign sigma (-1)^(n-m) at anchor a
        and sigma (-1)^m at anchor b.  A side whose sign is +1 bounds LR from
        below, one whose sign is -1 from above.
        """
        _check_convexity(convexity)
        sigma = 1 if convexity == CONVEX else -1
        sides = self.resolve(n, m)  # accepts n as an integer, so int(n) is exact
        return [sigma * (-1) ** (int(n) - k if x == "a" else k) for x, k in sides]

    def arrange(
        self, n: int, m: int | None, convexity: str, values: list[float]
    ) -> tuple[float | None, float | None, bool]:
        """(lower, upper, direction_valid) for the side values.

        In a bracket the second side fixes the arrangement, and the bracket is
        certified only when the two sides' signs differ.
        """
        signs = self.signs(n, m, convexity)
        if len(signs) == 1:
            return (values[0], None, True) if signs[0] > 0 else (None, values[0], True)
        first, second = values
        lower, upper = (second, first) if signs[1] > 0 else (first, second)
        return lower, upper, signs[0] != signs[1]


FAMILIES = {
    family.tag: family
    for family in (
        _Family("TM21", (("a", None),), ("bound",)),
        _Family("TM22", (("b", None),), ("bound",)),
        _Family("COR21", (("a", None), ("b", None)), ("tm21", "tm22")),
        _Family("TM23", (("a", 1), ("a", 2)), ("m1", "m2")),
        _Family("TM24", (("b", 1), ("b", 2)), ("m1", "m2")),
    )
}
THEOREMS = tuple(FAMILIES)


@dataclass(frozen=True)
class BoundReport:
    """Chord-gap value with its certified side(s).

    n, m (None for a family with fixed sides) and `convexity` are the case
    the sides were oriented for.  `direction_valid` is False when that case
    falls outside the parity hypotheses (the values are still reported).
    """

    lr: float
    lower: float | None
    upper: float | None
    theorem: str
    n: int
    m: int | None
    convexity: str
    direction_valid: bool

    def violation(self) -> float:
        """Largest amount by which lr escapes the certified side(s); 0 if contained."""
        v = 0.0
        if self.lower is not None:
            v = max(v, self.lower - self.lr)
        if self.upper is not None:
            v = max(v, self.lr - self.upper)
        return v

    def to_dict(self) -> dict:
        return asdict(self)


def _check_convexity(convexity: str) -> None:
    if convexity not in (CONVEX, CONCAVE):
        raise ValueError(f"convexity must be {CONVEX!r} or {CONCAVE!r}, got {convexity!r}")


def _family(tag: str) -> _Family:
    if tag.upper() not in FAMILIES:
        raise ValueError(f"unknown theorem tag {tag.upper()!r}; choose from {THEOREMS}")
    return FAMILIES[tag.upper()]


@cache
def _layout(n: int, m: int) -> tuple[tuple, tuple]:
    """(cells, keys): the side's moment term i is the endpoint table's T[cell i] times
    A[(g-x)^j (g-y)^k] at key i = (j, k), after the lead term of m >= 3.

    m = 1:  f[x; y x k] * A[(g-x)(g-y)^(k-1)], k = 2..n-1 (a k = 1 term would
            break the polynomial-equality property, see tests).
    m = 2:  f[x,x; y] * A[(g-x)(g-y)] then f[x,x; y x k] * A[(g-x)^2 (g-y)^(k-1)].
    m >= 3: (A(g)-x)(f[x,x] - f[x,y]), then f^(k)(x)/k! * A[(g-x)^k] for
            k = 2..m-1, then f[x x m; y x k] * A[(g-x)^m (g-y)^(k-1)].
    """
    head = [((2, 1), (1, 1))] if m == 2 else [((k + 1, 0), (k, 0)) for k in range(2, m)]
    return tuple(zip(*head, *[((m, k), (m, k - 1)) for k in range(1 + (m < 3), n - m + 1)])) or ((), ())


def _terms(
    f: FunctionModel, x: float, y: float, n: int, m: int, moment, mean: float, tables=None
) -> list[float]:
    """Endpoint terms of the decomposition anchored at x, the other endpoint being y.

    `moment(keys)` returns A[(g-x)^i (g-y)^j] for each key of `_layout(n, m)` and
    `mean` is A(g), which only m >= 3 reads.  `tables`, a dict local to one f, n
    and [a, b], holds the endpoint table by (x, m): a side found there is not
    built again.  The table's errors come before the moments'.
    """
    n, m = _check_orders(n, m)
    if m >= 3:  # this layout reads f[x, x] first: its errors come first
        _check_support(f, (x,), 2)
    T = (tables or {}).get((x, m)) or endpoint_table(f, x, y, m, n - m)
    if tables is not None:
        tables[x, m] = T
    cells, keys = _layout(n, m)
    terms = [T[i][j] * v for (i, j), v in zip(cells, moment(keys))]
    if m < 3:
        return terms
    # Anchored at b the lead reads (b - A(g))(f[a,b] - f[b,b]), which keeps
    # lemma 2.2's signed zero when A(g) == b.
    f_xx, f_xy = T[2][0], T[1][1]
    return [(mean - x) * (f_xx - f_xy) if x < y else (x - mean) * (f_xy - f_xx)] + terms


def _moments(A: DiscreteFunctional):
    """A's moments as the `moment(x, y, keys)` of `_Family.terms`; anchored at b the
    keys swap, not the factors: A[(g-b)^j (g-a)^k] is A's (k, j) moment."""
    a = A.interval[0]
    return lambda x, y, keys: A._moments(keys if x == a else tuple((k, j) for j, k in keys))


def _decompose(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int, x: float, y: float
) -> tuple[list[float], float]:
    """The terms of the side anchored at x (other endpoint y) and the remainder
    A(R(g)) they leave out, R evaluated on all of A's points in one array call
    that reads the terms' endpoint table (that call already reruns point by
    point on error)."""
    n, m = _check_orders(n, m)
    tables: dict = {}
    terms = _terms(f, x, y, n, m, partial(_moments(A), x, y), A.mean, tables)
    return terms, A._dot(remainder_R(f, x, y, m, n, A._x, _table=tables[x, m]))


def decompose_lemma21(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int
) -> tuple[list[float], float]:
    """Split LR(f, A) into left-anchored terms plus the exact remainder.

    The terms are those of `_terms` with x = a, y = b; with A(R_m(g)) added
    they reproduce lr_difference exactly (up to rounding).
    """
    return _decompose(f, A, n, m, *A.interval)


def decompose_lemma22(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int
) -> tuple[list[float], float]:
    """Mirror of decompose_lemma21 with the node block anchored at b.

    The terms are those of `_terms` with x = b, y = a; the remainder is the
    mirror remainder (g-b)^m (g-a)^(n-m) f[g; b x m; a x (n-m)].
    """
    return _decompose(f, A, n, m, *reversed(A.interval))


def bound(
    tag: str, f: FunctionModel, A: DiscreteFunctional, n: int, m: int | None, convexity: str,
    *, _tables: dict | None = None,
) -> BoundReport:
    """Bound report of family `tag` (any letter case) for LR(f, A).

    Each side is its decomposition's term sum (no remainder), placed by the
    parity rule of `FAMILIES[tag]`.  Families with fixed sides ignore m.
    The private `_tables` dict collects each side's endpoint table (`_terms`).
    """
    family = _family(tag)
    _check_convexity(convexity)
    sides = family.terms(f, A.interval, n, m, _moments(A), A.mean, _tables)
    lower, upper, valid = family.arrange(n, m, convexity, [math.fsum(t) for t in sides])
    n, m = _check_orders(n, m if family.takes_m else None)
    return BoundReport(lr_difference(f, A), lower, upper, family.tag, n, m, convexity, valid)


def n3_closed_form(f: FunctionModel, A: DiscreteFunctional) -> tuple[float, float]:
    """Order-3 bracket with the lower side in closed form.

    Lower: A[(g-a)(g-b)] / (b-a) * (f'(b) - f[a, b]), which equals
    f[a; b, b] * A[(g-a)(g-b)].  Upper: the algorithmic f[a,a; b] term,
    identical to the TM23 upper side at n = 3.
    """
    a, b = A.interval
    T = endpoint_table(f, a, b, 2, 1)
    M = A.moment(1, 1)
    return M / (b - a) * (float(f.deriv(1, b)) - T[1][1]), T[2][1] * M
