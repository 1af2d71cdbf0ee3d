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

as an independent transcription check; the two routes share each side's
endpoint table, built once.  The libm route, `direct_bound_values`, sums
a side's moments in one 2-D pass of libm `pow`s (`_pq_moments`), bit for
bit `_pq_moment`'s point-by-point sums.  Below `_TABLE_MIN_POINTS` each side
the report carries must agree with it to 1e-12.

From the gate on, a chain stage decides first (`_chain_bound_values`): the
same sums from powers built by repeated multiplication (`_batched` sums both),
each side c with a stated bound E on its distance from the libm route's side
(the error model is `_chain_moments`').  It decides when every side the report
carries has E < |c| and |delegated - c| <= 1e-12 + E, or when a side has
|delegated - c| > 1e-12 + E, which the libm route refuses too.  Otherwise (a
NaN difference among them) the op is handed on as below the gate, its report
rebuilt from the point-by-point sums' bits.  One loop then ends every op: each
side the report carries must lie within 1e-12 + E of the deciding stage's c,
or within 1e-12 of the libm route's side.  So the stage only turns a refusal
that its own rounding explains, on a side it fixes, into the report.  The
functional and its chains are freed before the crosscheck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds as _bounds
from .bounds import CONVEX, BoundReport, _family
from .divided_diff import _U, FunctionModel, _checked_interval
from .functional import (
    _CHAIN_MAX, _SUM_TOL, _TABLE_MIN_POINTS, DiscreteFunctional, _batched, _chain_table, _exponents,
    _first_outside, _float_array, _lazy_tuples, _moment_reader, _point_by_point, _pow_below, _unit_sum,
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

_CROSSCHECK_TOL = 1e-12

# The chain stage's error model (see `_chain_moments`).  _ETA, the subnormal
# spacing, bounds the absolute error of a product, quotient or faithful pow
# whose result falls below the normal range; _UP rounds each stated bound up
# past the (1 + k u) factors it leaves out and the rounding of its own
# arithmetic; _CHAIN_MAX keeps every sum the two routes form below overflow.
_ETA = 5e-324
_UP = 1.0 + 2.0**-30


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


def _pq_moments(p: ProbabilityVector, q: ProbabilityVector, a: float, b: float, keys: tuple) -> list[float]:
    """[`_pq_moment` of each key], bit for bit, for keys with j + k >= 1 (every layout's;
    then q^(j+k-1) <= 1): the terms U^j V^k / q^(j+k-1), U = p - a q, V = p - b q, in one
    `_batched` pass, each term whose denominator underflows to 0 as q (U/q)^j (V/q)^k."""
    def rows(block):
        (J, K), p_, q_ = _exponents(block), p._v, q._v
        U, V, d = p_ - a * q_, p_ - b * q_, np.float_power(q_, J + K - 1.0)
        t = np.float_power(U, J) * np.float_power(V, K) / d
        return t if d.all() else np.where(d == 0.0, q_ * np.float_power(U / q_, J) * np.float_power(V / q_, K), t)
    return _batched(keys, len(q), rows, partial(_pq_moment, p, q, a, b))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error of k roundings (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., lemma 3.1)."""
    return k * _U / (1.0 - k * _U)


def _chain_moments(p: ProbabilityVector, q: ProbabilityVector, a: float, b: float):
    """(moment, error) for x, y in {a, b}: `_pq_moment`'s sums from multiply chains.

    moment(x, y, j, k) is `_sum` of the terms t_i = X_i^j Y_i^k / q_i^d, with
    d = j + k - 1 and X, Y the bases p - x q and p - y q, which both routes
    round alike; error(x, y, j, k) bounds its distance from `_pq_moment`'s.
    Per term, the chains round j-1, k-1 and d-1 times and the product and
    quotient twice; each libm pow of exponent >= 2 is faithful (< 1 ulp), two
    roundings.  Both sums are correctly rounded, so the error is
    g sum|t| + alpha, rounded up, with g = (gamma_ch + gamma_ref) / (1 -
    gamma_ch) + 3u, sum|t| one more array pass, and alpha the absolute part of
    the underflow model (Higham, §2.1: a result below the normal range is off
    by at most _ETA), carried through the largest powers and the smallest
    denominator.

    A moment and its error read NaN where a term is not finite or near
    overflow, where a power's largest element is within a factor 2 of
    overflow (libm would raise; `_pow_below` does not), or where a q_i^d may
    leave the normal range (the libm route takes `_pq_moment`'s underflow
    form there): the chains decline the key, and its rerun is NaN.
    """
    points = len(q)
    with np.errstate(all="ignore"):
        bases = {x: p._v - x * q._v for x in (a, b)}
    top = {x: max(float(np.maximum.reduce(v)), -float(np.minimum.reduce(v))) for x, v in bases.items()}
    q_min = float(np.minimum.reduce(q._v))
    X = {x: _chain_table(v) for x, v in bases.items()}
    D = _chain_table(q._v)
    errors: dict = {}

    def table(x: float, y: float, j: int, k: int) -> np.ndarray | None:
        d = j + k - 1
        if _pow_below(q_min, d, 2.0**-1021) or not (
                _pow_below(top[x], j, 2.0**1023) and _pow_below(top[y], k, 2.0**1023)):
            return None
        t = X[x](j) * X[y](k)  # a new array (j + k >= 1): divided in place
        t /= D(d)
        size = float(np.add.reduce(np.abs(t)))
        if not size < _CHAIN_MAX:  # NaN fails too
            return None
        chain = max(j - 1, 0) + max(k - 1, 0) + max(d - 1, 0) + 2
        ref = 2 * ((j > 1) + (k > 1) + (d > 1)) + 2
        g = (_gamma(chain) + _gamma(ref)) / (1.0 - _gamma(chain)) + 3 * _U
        spread = max(1.0, top[x]) ** j * max(1.0, top[y]) ** k / q_min**d
        alpha = 4 * points * _ETA * ((j + k + 6) * spread + 1)
        errors[x, y, j, k] = _UP * (g * size * (1 + 2 * points * _U) + alpha)
        return t

    return _moment_reader(table, lambda *key: math.nan), lambda *key: errors.get(key, math.nan)


def _chain_bound_values(
    f: FunctionModel, p: ProbabilityVector, q: ProbabilityVector, a: float, b: float,
    n: int, theorem: str, m: int | None, convexity: str, tables: dict,
) -> tuple:
    """((lower, upper), (lower bound, upper bound)), the sides arranged as
    `direct_bound_values` arranges them: each side c from `_chain_moments`, and
    a bound E on |c - the side of `direct_bound_values`|; None when a side's
    terms are not finite or near overflow.

    A side c = fsum(T_i M_i) over endpoint-table cells T_i (shared by both
    routes) and moments M_i with |M_i - libm M_i| <= e_i, so |c - libm side|
    <= sum |T_i| e_i + 3u sum |T_i M_i| + 2u |c| plus _ETA per rounding near
    underflow, rounded up.  The terms evaluated with the errors as moments
    give T_i e_i, after the m >= 3 lead, which reads no moment and is the
    same float on both routes.
    """
    family = _family(theorem)
    moment, error = _chain_moments(p, q, a, b)

    def sides(moment):  # read key by key
        return family.terms(f, (a, b), n, m, lambda x, y, keys: [moment(x, y, *key) for key in keys], 1.0, tables)

    values, bounds = [], []
    for terms, errs in zip(sides(moment), sides(error)):
        size = sum(map(abs, terms))  # plain sums: fsum raises on opposite infinities
        if not size < _CHAIN_MAX:
            return None
        values.append(math.fsum(terms))
        carried = sum(map(abs, errs[family.takes_m:]))  # an m >= 3 side's lead comes first
        slack = 3 * _U * size + 2 * _U * abs(values[-1]) + (3 * len(terms) + 2) * _ETA
        bounds.append(_UP * (carried + slack))
    return tuple(family.arrange(n, m, convexity, v)[:2] for v in (values, bounds))


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
    sides = family.terms(f, (a, b), n, m, partial(_pq_moments, p, q), 1.0, _tables)
    return family.arrange(n, m, convexity, [math.fsum(t) for t in sides])[:2]


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
    if isinstance(generator, GeneratorSpec):
        spec = replace(generator, domain=(a, b))
        f = make_generator(spec)
        if convexity is None:
            convexity = definite_class(spec, n)
    else:
        f = generator
        if convexity is None:
            raise ValueError("a plain FunctionModel needs an explicit convexity class")
    # The ratios and the functional with its chains are freed before
    # the crosscheck builds its chains; it reuses the delegated endpoint tables.
    # Built by the store step alone, which skips the checks that hold here: no
    # copy (the ratios are new, q's array is read-only), no sign or sum check
    # of q's entries as weights (q kept their fsum), and no [a, b] scan (a and
    # b are the ratios' extremes or a checked enclosing interval).
    A = object.__new__(DiscreteFunctional)._store(
        ratios, q._v, q._total, _checked_interval((a, b), "interval"))
    del ratios
    tables: dict = {}
    report = _bounds.bound(theorem, f, A, n, m, convexity, _tables=tables)
    del A
    delegated, chained = (report.lower, report.upper), None
    if len(q) >= _TABLE_MIN_POINTS:
        chained = _chain_bound_values(f, p, q, a, b, n, theorem, m, convexity, tables)
        if chained is not None:  # it decides when it accepts, or proves a refusal:
            # |c - libm side| <= e, so a side off by more than 1e-12 + e is refused on both routes.
            carried = [(d, c, e) for d, c, e in zip(delegated, *chained) if d is not None]
            if not (all(e < abs(c) and abs(d - c) <= _CROSSCHECK_TOL + e for d, c, e in carried)
                    or any(abs(d - c) > _CROSSCHECK_TOL + e for d, c, e in carried)):
                chained = None  # neither, as when a difference is NaN
        if chained is None:  # handed on, as below the gate: the libm route checks the point-by-point report
            report = _bounds.bound(theorem, f, _point_by_point(_ratios(p, q), q._v, q._total, (a, b)),
                                   n, m, convexity, _tables=tables)
            delegated = report.lower, report.upper
    direct, slack = chained or (
        direct_bound_values(f, p, q, a, b, n, theorem, m, convexity, _tables=tables), (0.0, 0.0))
    for side, d, direct_v, e in zip(("lower", "upper"), delegated, direct, slack):
        if d is not None and abs(d - direct_v) > _CROSSCHECK_TOL + e:
            raise RuntimeError(
                f"{theorem} {side}: delegated value {d!r} and direct value "
                f"{direct_v!r} differ by more than {_CROSSCHECK_TOL}"
            )
    return report
