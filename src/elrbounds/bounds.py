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
from dataclasses import dataclass

from .divided_diff import FunctionModel, NodeMultiset, divided_difference, remainder_R
from .divided_diff import _check_support, endpoint_table
from .functional import DiscreteFunctional, lr_difference

__all__ = [
    "CONVEX",
    "CONCAVE",
    "FAMILIES",
    "THEOREMS",
    "ParityCase",
    "BoundReport",
    "decompose_lemma21",
    "decompose_lemma22",
    "bound",
    "bound_tm21",
    "bound_tm22",
    "bracket_cor21",
    "bracket_tm23",
    "bracket_tm24",
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
        if self.takes_m:
            if m is None or m < 3:
                raise ValueError(f"{self.tag} requires m >= 3, got m={m}")
        elif n < self.min_n:
            raise ValueError(f"{self.tag} requires n >= {self.min_n}, got n={n}")
        return [(x, m if k is None else k) for x, k in self.sides]

    def terms(
        self, f: FunctionModel, A: DiscreteFunctional, n: int, m: int | None, tables=None
    ) -> Iterator[list[float]]:
        """Yield each side's terms in turn; the remainders they drop are never evaluated."""
        for x, k in self.resolve(n, m):
            yield _side_terms(f, A, n, x, k, tables)

    def signs(self, n: int, m: int | None, convexity: str) -> list[int]:
        """Sign of the remainder each side drops: the parity rule.

        With sigma = +1 for n-convex and -1 for n-concave f, the remainder
        dropped by side (anchor, m) has the sign sigma (-1)^(n-m) at anchor a
        and sigma (-1)^m at anchor b.  A side whose sign is +1 bounds LR from
        below, one whose sign is -1 from above.
        """
        _check_convexity(convexity)
        sigma = 1 if convexity == CONVEX else -1
        return [sigma * (-1) ** (n - k if x == "a" else k) for x, k in self.resolve(n, m)]

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
class ParityCase:
    """The (n, m, convexity class) triple a bound direction is dispatched on."""

    n: int
    m: int | None
    convexity: str

    def __post_init__(self) -> None:
        if int(self.n) < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.m is not None:
            if not 1 <= int(self.m) <= self.n - 1:
                raise ValueError(f"m must be in 1..{self.n - 1}, got {self.m}")
            object.__setattr__(self, "m", int(self.m))
        _check_convexity(self.convexity)


@dataclass(frozen=True)
class BoundReport:
    """Chord-gap value with its certified side(s).

    `direction_valid` is False when the requested case falls outside the
    parity hypotheses (the values are still reported).
    """

    lr: float
    lower: float | None
    upper: float | None
    theorem: str
    case: ParityCase
    direction_valid: bool

    def contains(self, rel_tol: float = 1e-9) -> bool:
        """lower <= lr <= upper up to rel_tol * (1 + |lr|), missing sides ignored."""
        tol = rel_tol * (1.0 + abs(self.lr))
        if self.lower is not None and self.lr < self.lower - tol:
            return False
        if self.upper is not None and self.lr > self.upper + tol:
            return False
        return True

    def violation(self) -> float:
        """Largest amount by which lr escapes the certified side(s); 0 if contained."""
        v = 0.0
        if self.lower is not None:
            v = max(v, self.lower - self.lr)
        if self.upper is not None:
            v = max(v, self.lr - self.upper)
        return v

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "lower": self.lower,
            "upper": self.upper,
            "theorem": self.theorem,
            "n": self.case.n,
            "m": self.case.m,
            "convexity": self.case.convexity,
            "direction_valid": self.direction_valid,
        }


def _check_convexity(convexity: str) -> None:
    if convexity not in (CONVEX, CONCAVE):
        raise ValueError(f"convexity must be {CONVEX!r} or {CONCAVE!r}, got {convexity!r}")


def _check_case(n: int, m: int) -> None:
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if int(m) != m or not 1 <= m <= n - 1:
        raise ValueError(f"m must be an integer in 1..{n - 1}, got {m}")


def _family(tag: str) -> _Family:
    if tag.upper() not in FAMILIES:
        raise ValueError(f"unknown theorem tag {tag.upper()!r}; choose from {THEOREMS}")
    return FAMILIES[tag.upper()]


def _terms(
    f: FunctionModel, x: float, y: float, n: int, m: int, moment, mean, tables=None
) -> list[float]:
    """Endpoint terms of the decomposition anchored at x, the other endpoint being y.

    `moment(i, j)` returns A[(g-x)^i (g-y)^j] and `mean()` returns A(g), which
    only m >= 3 reads.  `tables`, a dict local to one f, n and [a, b], holds
    the endpoint table by (x, m): a side found there is not built again.

    m = 1:  f[x; y x k] * A[(g-x)(g-y)^(k-1)], k = 2..n-1 (a k = 1 term would
            break the polynomial-equality property, see tests).
    m = 2:  f[x,x; y] * A[(g-x)(g-y)] then f[x,x; y x k] * A[(g-x)^2 (g-y)^(k-1)].
    m >= 3: (A(g)-x)(f[x,x] - f[x,y]), then f^(k)(x)/k! * A[(g-x)^k] for
            k = 2..m-1, then f[x x m; y x k] * A[(g-x)^m (g-y)^(k-1)].
    """
    _check_case(n, m)
    if m >= 3:  # this layout reads f[x, x] first: its errors come first
        _check_support(f, (x,), 2)
    T = (tables or {}).get((x, m)) or endpoint_table(f, x, y, m, n - m)
    if tables is not None:
        tables[x, m] = T
    if m == 1:
        return [T[1][k] * moment(1, k - 1) for k in range(2, n)]
    if m == 2:
        return [T[2][1] * moment(1, 1)] + [T[2][k] * moment(2, k - 1) for k in range(2, n - 1)]
    # Anchored at b the lead reads (b - A(g))(f[a,b] - f[b,b]), which keeps
    # lemma 2.2's signed zero when A(g) == b.
    f_xx, f_xy = T[2][0], T[1][1]
    lead = (mean() - x) * (f_xx - f_xy) if x < y else (x - mean()) * (f_xy - f_xx)
    return (
        [lead]
        + [T[k + 1][0] * moment(k, 0) for k in range(2, m)]
        + [T[m][k] * moment(m, k - 1) for k in range(1, n - m + 1)]
    )


def _side_terms(
    f: FunctionModel, A: DiscreteFunctional, n: int, anchor: str, m: int, tables=None
) -> list:
    """`_terms` anchored at A's endpoint `anchor` ("a" or "b"), with A's moments."""
    a, b = A.interval
    if anchor == "a":
        return _terms(f, a, b, n, m, A.moment, lambda: A.mean, tables)
    return _terms(f, b, a, n, m, lambda i, j: A.moment(j, i), lambda: A.mean, tables)


def decompose_lemma21(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int
) -> tuple[list[float], float]:
    """Split LR(f, A) into left-anchored terms plus the exact remainder.

    The terms are those of `_terms` with x = a, y = b; with A(R_m(g)) added
    they reproduce lr_difference exactly (up to rounding).
    """
    a, b = A.interval
    return _side_terms(f, A, n, "a", m), A.apply(lambda t: remainder_R(f, a, b, m, n, t))


def decompose_lemma22(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int
) -> tuple[list[float], float]:
    """Mirror of decompose_lemma21 with the node block anchored at b.

    The terms are those of `_terms` with x = b, y = a; the remainder is the
    mirror remainder (g-b)^m (g-a)^(n-m) f[g; b x m; a x (n-m)].
    """
    a, b = A.interval
    return _side_terms(f, A, n, "b", m), A.apply(lambda t: remainder_R(f, b, a, m, n, t))


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
    values = [math.fsum(terms) for terms in family.terms(f, A, n, m, _tables)]
    lower, upper, valid = family.arrange(n, m, convexity, values)
    return BoundReport(
        lr=lr_difference(f, A),
        lower=lower,
        upper=upper,
        theorem=family.tag,
        case=ParityCase(n, m if family.takes_m else None, convexity),
        direction_valid=valid,
    )


def bound_tm21(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int, convexity: str
) -> BoundReport:
    """One-sided bound from the left-anchored terms at m >= 3."""
    return bound("TM21", f, A, n, m, convexity)


def bound_tm22(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int, convexity: str
) -> BoundReport:
    """One-sided bound from the right-anchored terms at m >= 3."""
    return bound("TM22", f, A, n, m, convexity)


def bracket_cor21(
    f: FunctionModel, A: DiscreteFunctional, n: int, m: int, convexity: str
) -> BoundReport:
    """Bracket pairing the TM21 and TM22 sides; certified only for odd n."""
    return bound("COR21", f, A, n, m, convexity)


def bracket_tm23(f: FunctionModel, A: DiscreteFunctional, n: int, convexity: str) -> BoundReport:
    """Bracket from the m = 1 and m = 2 left-anchored term sums, n >= 3."""
    return bound("TM23", f, A, n, None, convexity)


def bracket_tm24(f: FunctionModel, A: DiscreteFunctional, n: int, convexity: str) -> BoundReport:
    """Bracket from the m = 1 and m = 2 right-anchored term sums, n >= 3."""
    return bound("TM24", f, A, n, None, convexity)


def n3_closed_form(f: FunctionModel, A: DiscreteFunctional) -> tuple[float, float]:
    """Order-3 bracket with the lower side in closed form.

    Lower: A[(g-a)(g-b)] / (b-a) * (f'(b) - f[a, b]), which equals
    f[a; b, b] * A[(g-a)(g-b)].  Upper: the algorithmic f[a,a; b] term,
    identical to the TM23 upper side at n = 3.
    """
    a, b = A.interval
    f_ab = divided_difference(f, NodeMultiset(((a, 1), (b, 1))))
    lower = A.moment(1, 1) / (b - a) * (float(f.deriv(1, b)) - f_ab)
    upper = divided_difference(f, NodeMultiset(((a, 2), (b, 1)))) * A.moment(1, 1)
    return lower, upper
