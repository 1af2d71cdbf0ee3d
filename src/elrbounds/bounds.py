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
from functools import cache, cached_property, partial

import numpy as np

from .divided_diff import (
    _ETA, _TINY, _U, _UP, FunctionModel, _check_orders, _check_support, _error_of, _integer, endpoint_table,
    remainder_R,
)
from .functional import DiscreteFunctional, _lr

__all__ = [
    "CONVEX",
    "CONCAVE",
    "FAMILIES",
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

    @cached_property
    def takes_m(self) -> bool:
        return any(k is None for _, k in self.sides)

    @cached_property
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

    def arrange(self, n: int, m: int | None, convexity: str, values: list) -> tuple:
        """`_arrange` of the side values by the `_signs` of `resolve(n, m)`."""
        _check_convexity(convexity)
        return _arrange(_signs(self.resolve(n, m), n, convexity), values)


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
        """Largest amount by which lr escapes the certified side(s); 0 if contained, NaN if lr or
        a side is NaN (or lr and a side are infinities of the bound's sign)."""
        v = 0.0
        if self.lower is not None:
            v = _worst(v, self.lower - self.lr)
        if self.upper is not None:
            v = _worst(v, self.lr - self.upper)
        return v

    def to_dict(self) -> dict:
        return asdict(self)


def _worst(a: float, b: float) -> float:
    """max(a, b), but NaN if either is: a NaN residual must show, and fail every check."""
    return a if math.isnan(a) or a >= b else b


def _check_convexity(convexity: str) -> None:
    if convexity not in (CONVEX, CONCAVE):
        raise ValueError(f"convexity must be {CONVEX!r} or {CONCAVE!r}, got {convexity!r}")


def _signs(sides: list, n: int, convexity: str) -> list[int]:
    """Each resolved side's sign by the parity rule: with sigma = +1 for n-convex and -1 for
    n-concave f, the remainder dropped by side (anchor, m) has the sign sigma (-1)^(n-m) at anchor
    a and sigma (-1)^m at anchor b (`resolve` accepted n as an integer, so int(n) is exact)."""
    _check_convexity(convexity)
    sigma = 1 if convexity == CONVEX else -1
    return [sigma * (-1) ** (int(n) - k if x == "a" else k) for x, k in sides]


def _arrange(signs: list[int], values: list) -> tuple:
    """(lower, upper, direction_valid) for the side values: a side of sign +1 bounds LR from below,
    of sign -1 from above.  In a bracket the second side fixes the arrangement, and the bracket is
    certified only when the two sides' signs differ."""
    if len(signs) == 1:
        return (values[0], None, True) if signs[0] > 0 else (None, values[0], True)
    first, second = values
    lower, upper = (second, first) if signs[1] > 0 else (first, second)
    return lower, upper, signs[0] != signs[1]


def _family(tag: str) -> _Family:
    if tag.upper() not in FAMILIES:
        raise ValueError(f"unknown theorem tag {tag.upper()!r}; choose from {tuple(FAMILIES)}")
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
    f: FunctionModel, x: float, y: float, n: int, m: int, moment, mean: float
) -> tuple[list, list, list[float]]:
    """(T, M, terms): the endpoint table, the moments and the endpoint terms of the decomposition
    anchored at x, the other endpoint being y.

    `moment(keys)` returns A[(g-x)^i (g-y)^j] for each key of `_layout(n, m)` and
    `mean` is A(g), which only m >= 3 reads.  The table's errors come before the moments'.
    """
    n, m = _check_orders(n, m)
    if m >= 3:  # this layout reads f[x, x] first: its errors come first
        _check_support(f, (x,), 2)
    T = endpoint_table(f, x, y, m, n - m)
    cells, keys = _layout(n, m)
    M = moment(keys)
    terms = [T[i][j] * v for (i, j), v in zip(cells, M)]
    if m >= 3:
        # Anchored at b the lead reads (b - A(g))(f[a,b] - f[b,b]), which keeps
        # lemma 2.2's signed zero when A(g) == b.
        f_xx, f_xy = T[2][0], T[1][1]
        terms.insert(0, (mean - x) * (f_xx - f_xy) if x < y else (x - mean) * (f_xy - f_xx))
    return T, M, terms


def _side_terms(f: FunctionModel, sides: list, interval: tuple, n: int, moment, mean: float) -> Iterator[tuple]:
    """Each resolved side's (x, y, m, T, M, terms, value): x its anchor's end of `interval`, y the
    other, `_terms`' table, moments and terms, and their fsum.  `moment(x, y, keys)` returns
    A[(g-x)^j (g-y)^k] for each (j, k) of a side's keys, in one call.  Every route to a side's
    terms is this loop, and none evaluates the remainder that the terms drop."""
    a, b = interval
    for anchor, k in sides:
        x, y = (a, b) if anchor == "a" else (b, a)
        T, M, terms = _terms(f, x, y, n, k, partial(moment, x, y), mean)
        yield x, y, k, T, M, terms, math.fsum(terms)


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
    T, _, terms = _terms(f, x, y, n, m, partial(_moments(A), x, y), A.mean)
    return terms, A._dot(remainder_R(f, x, y, m, n, A._x, _table=T))


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


def _evaluate(
    family: _Family, sides: list, f: FunctionModel, A: DiscreteFunctional, n: int, m: int | None, convexity: str
) -> tuple[BoundReport, list[tuple], list[int], tuple]:
    """(report, sides, signs, f_values): `family`'s report for LR(f, A) from its resolved `sides`
    (`_Family.resolve`), with all it was computed from: each side's `_side_terms`, their parity
    `_signs`, and f at A's points, at a and at b (`functional._lr`).  `_certify` and the CLI's
    term rows read these; nothing is evaluated twice."""
    evaluated = list(_side_terms(f, sides, A.interval, n, _moments(A), A.mean))
    signs = _signs(sides, n, convexity)
    lower, upper, valid = _arrange(signs, [value for *_, value in evaluated])
    n, m = _check_orders(n, m if family.takes_m else None)
    lr, f_values = _lr(f, A)
    return BoundReport(lr, lower, upper, family.tag, n, m, convexity, valid), evaluated, signs, f_values


def bound(tag: str, f: FunctionModel, A: DiscreteFunctional, n: int, m: int | None, convexity: str) -> BoundReport:
    """Bound report of family `tag` (any letter case) for LR(f, A).

    Each side is its decomposition's term sum (no remainder), placed by the
    parity rule of `FAMILIES[tag]`.  Families with fixed sides ignore m.
    """
    family = _family(tag)
    return _evaluate(family, family.resolve(n, m), f, A, n, m, convexity)[0]


def _not_finite(tag: str, report: dict) -> str | None:
    """The refusal text for the first of a report's lr, lower and upper that is not
    finite, such as `TM23 lr is not finite: -Infinity`; None when all are finite."""
    for key in ("lr", "lower", "upper"):
        if (v := report[key]) is not None and not math.isfinite(v):
            return f"{tag} {key} is not finite: {'NaN' if math.isnan(v) else 'Infinity' if v > 0 else '-Infinity'}"


def _certify(evaluation: tuple, f: FunctionModel, A: DiscreteFunctional) -> BoundReport:
    """The report of `evaluation` (`_evaluate` on A, points >= 0) if each side it carries lies on
    the side of lr that its parity sign predicts (for direction-invalid pairs too) by more than
    E_side + E_lr, read from the tables, moments and f values the evaluation kept: then the float
    side bounds A's exact lr as the paper's exact side does.  Else a RuntimeError: a value that is
    not finite (`_not_finite`), then a side on the wrong side by more than that, "TM23 lower:
    contradicted by lr", then any other, "TM23 lower: within rounding of lr".  Every comparison
    fails on NaN."""
    report, sides, signs, f_values = evaluation
    tag, n = report.theorem, report.n
    if text := _not_finite(tag, vars(report)):
        raise RuntimeError(text)
    error = _error_of(f)
    with np.errstate(all="ignore"):  # a bound that overflows is inf, and certifies nothing
        e_lr = _lr_error(error, A, report.lr, *f_values)
        judged = [(sign, v, _side_error(error, A, x, y, n, k, T, M, v)) for sign, (x, y, k, T, M, _, v) in zip(signs, sides)]
    refusals = []  # (not contradicted, text): contradicted first, then lower before upper
    for name, side in zip(("lower", "upper"), _arrange(signs, judged)[:2]):
        if side is None:
            continue
        sign, value, e = side
        gap, margin = sign * (report.lr - value), _UP * (e + e_lr)
        if not gap > margin:
            wrong = -gap > margin
            refusals.append((not wrong, f"{tag} {name}: {'contradicted by' if wrong else 'within rounding of'} lr"))
    if refusals:
        raise RuntimeError(min(refusals)[1])
    return report


# k! as a float for k <= 170 (171! overflows): float arithmetic with the int k! rounds it to this
# float first, so a product or quotient by _FACTORIALS[k] keeps its bits.
_FACTORIALS = [float(math.factorial(k)) for k in range(171)]


def _product_error(x: float, e_x: float, y: float, e_y: float) -> float:
    """A bound on the error of fl(x y), x and y off by e_x and e_y (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.3, a running error bound)."""
    return abs(x) * e_y + e_x * abs(y) + e_x * e_y + _U * abs(x * y) + _ETA


def _lr_error(error, A: DiscreteFunctional, lr: float, fg, fa: float, fb: float) -> float:
    """A bound on |lr - A's exact chord gap| from f at the points and ends as `lr_difference`
    used them: f's stated `error` (`_error_of`), the products and fsum of A(f(g)), A(g)'s
    2u A(g) (points >= 0), the chord's quotients, products and differences.  Plain sums:
    `_certify` rounds up."""
    (a, b), w, u, mean = A.interval, A._w, _U, A.mean
    size = float(np.add.reduce(w * np.abs(fg)))  # sum w |f(g)| >= |A(f(g))|
    err = float(np.add.reduce(w * error(0, A._x, fg))) + _TINY * (1.0 + mean)  # sum w_i _TINY (1 + g_i)
    err += 2 * u * size + len(w) * _ETA + u * (size + abs(lr))
    for num, x, fx in ((b - mean, a, fa), (mean - a, b, fb)):  # the chord's terms num / (b - a) * f(x)
        r = num / (b - a)
        e_r = (2 * u * mean + u * abs(num)) / (b - a) + 2 * u * abs(r)
        err += _product_error(r, e_r, fx, error(0, x, fx) + _TINY * (1.0 + abs(x))) + u * abs(r * fx)
    return err


def _side_error(
    error, A: DiscreteFunctional, x: float, y: float, n: int, m: int, T, M, side: float
) -> float:
    """E_side: a bound on the distance of `side`, the fsum of a side's terms, from A's exact side,
    from the endpoint table T and moments M that `_terms` formed the terms from.  A border
    f^(k)/k! is off by f's stated `error` (`_error_of`) over k! plus u of itself, an interior
    cell by (e_up + e_left)/h + 3u of itself (the difference, h = |y - x|, the quotient).  A moment A[(g-x)^J (g-y)^K] sums
    terms of one sign (the points lie in [a, b]), so it is off by gamma_(2(J+K)+3) |M| (the bases,
    a chain or a faithful pow each, two products, the fsum; gamma_k as k u, which _UP covers) plus
    N eta (J + K + 2)(1 + B^J + B^K), B = max(1, h), for underflow.  Each term T_i M_i and the
    lead (A(g) - x)(f[x, x] - f[x, y]) of m >= 3 (A(g) off by 2u A(g)) then carries its product's
    error (`_product_error`), and the fsum u |side|.
    """
    u, u3, h, cols, fact = _U, 3 * _U, abs(y - x), n - m, _FACTORIALS
    tiny_x, tiny_y = _TINY * (1.0 + abs(x)), _TINY * (1.0 + abs(y))
    E = [[0.0] + [float(error(k, y, c * fact[k]) + tiny_y) / fact[k] + u * abs(c)
                  for k, c in enumerate(T[0][1:])]]
    for i in range(1, m + 1):
        above, cells = E[-1], T[i]
        e = float(error(i - 1, x, cells[0] * fact[i - 1]) + tiny_x) / fact[i - 1] + u * abs(cells[0])
        row = [e]
        for j in range(1, cols + 1):
            e = (above[j] + e) / h + u3 * abs(cells[j])
            row.append(e)
        E.append(row)
    powers = [2.0**-500]  # 2^-500 B^e by products: eta B^e = 2^-574 powers[e], in the normal range
    while len(powers) < n:
        powers.append(powers[-1] * max(1.0, h))
    err = under = 0.0  # under: the underflow terms over N 2^-574
    for (i, j), (J, K), v in zip(*_layout(n, m), M):
        at, e_t, av = abs(T[i][j]), E[i][j], abs(v)
        e_m = (2 * (J + K) + 3) * u * av
        err += at * e_m + e_t * (av + e_m) + u * at * av
        under += (at + e_t) * (J + K + 2) * (powers[0] + powers[J] + powers[K])
    if m >= 3:
        d, f_d = A.mean - x, T[2][0] - T[1][1]
        err += _product_error(d, 2 * u * A.mean + u * abs(d), f_d, E[2][0] + E[1][1] + u * abs(f_d))
    return err + u * abs(side) + len(A) * under * 2.0**-574 + (len(M) + 1) * _ETA


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
