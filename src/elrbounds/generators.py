"""Built-in divergence generators with analytic derivative stacks.

Four named generators cover the classical divergences:

  kl         t*log(t)            even orders convex, odd orders concave
  hellinger  (1 - sqrt(t))^2 / 2 even orders convex, odd orders concave
  harmonic   2t / (1 + t)        odd orders convex, even orders concave (t > -1)
  jeffreys   (t - 1)*log(t)      even orders convex, odd orders concave

`exp`, `poly` and `power` are included as test fodder for arbitrary orders.
Each model's `fn` also takes a float64 array and returns the point-by-point
bits (hellinger's square and power's `t**p` go through `np.float_power`,
libm `pow` like float `**`), so the chord gap evaluates all points in one call.
Every built-in is one row of `_MODELS`: the open lower limit of its domain,
a builder of its functions and limits from the spec, and its exact class
(closed-form derivative signs, exact Bernstein signs for a poly).  Each
derivative function states the rounding error of its formulas (`_error`),
which the certifying gate of `divergence_bounds` reads.  Derivatives are
closed forms; the stack is capped at order 12, past which double precision
gives the formulas little meaning.  `classify` reads the class column,
building no model and evaluating no derivative: it is the class source of
every bound path and of the bracket audit (`definite_class` is the same
verdict with INDEFINITE as a ValueError).  A spec is checked when it is
built, a poly's coefficients and a power's exponent included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import CONCAVE, CONVEX
from .divided_diff import _ETA, _U, FunctionModel, _checked_interval, _float_power, _integer

__all__ = [
    "INDEFINITE",
    "BUILTIN_NAMES",
    "GeneratorSpec",
    "make_generator",
    "classify",
    "definite_class",
    "parse_function_spec",
]

INDEFINITE = "indefinite"

_DERIV_CAP = 12
_BISECTIONS = 6


@dataclass(frozen=True)
class GeneratorSpec:
    """Name plus parameters plus the closed interval the generator lives on.

    `coeffs` is used by `poly` (ascending powers), `exponent` by `power`.
    """

    name: str
    domain: tuple[float, float] = (0.5, 2.0)
    coeffs: tuple[float, ...] = ()
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.name not in BUILTIN_NAMES:
            raise ValueError(f"unknown generator {self.name!r}; choose from {BUILTIN_NAMES}")
        a, b = _checked_interval(self.domain, "domain")
        if not a > (floor := _MODELS[self.name][0]):
            raise ValueError(f"{self.name} requires a domain inside ({floor:g}, inf), got [{a}, {b}]")
        if self.name == "poly" and not self.coeffs:
            raise ValueError("poly generator needs at least one coefficient")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "exponent", float(self.exponent))
        if self.name == "power" and not math.isfinite(self.exponent):
            raise ValueError(f"power exponent must be finite, got {self.exponent}")
        if self.name == "poly" and not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {self.coeffs}")


# Each derivative function states the rounding error of its formulas as `_error(k, t, v)`, a bound
# on |v - f^(k)(t)| for the value v it returns (k = 0: f), which `divided_diff._error_of` reads.  In
# units of u = 2^-53: + - * / and sqrt round once, and libm log, exp and pow are taken to be within
# 4 ulps (8u).


def _kl_deriv(k, t):
    # f = t log t: log and a product, 9u.  f' = log t + 1: log's 8u |log t| <= 8u (|v| + 1) and the
    # sum's u |v|.  f^(k) = +-(k-2)! t^(1-k): pow and a product, 9u.
    if k == 1:
        return np.log(t) + 1.0
    sign = -1.0 if k % 2 else 1.0
    return sign * math.factorial(k - 2) * t ** (1.0 - k)


def _hellinger_error(k, t, v):
    # f = (1 - sqrt t)^2 / 2: d = 1 - sqrt t, |d| = sqrt(2|v|), is off by e <= u (sqrt t + |d|) <= u (1 + 2|d|),
    # so f by e (|d| + e) <= u (|d| + 4|v|) + u^2 (2 + 16|v|), plus pow's 8u |v| (the half is exact).
    # f' = (1 - r) / 2 with r = t^-1/2 = 1 - 2v: pow's 8u r, halved, and the difference's u |v|.
    # f^(k) = +-(2k-3)!! / 2^k t^(1/2 - k), the constant exact: pow and a product, 9u.
    if k == 0:
        return _U * np.sqrt(2.0 * (m := abs(v))) + (12.0 + 16.0 * _U) * _U * m + 2.0 * _U * _U
    if k == 1:
        return _U * (4.0 * abs(1.0 - 2.0 * v) + abs(v))
    return 9.0 * _U * abs(v)


def _hellinger_deriv(k, t):
    if k == 1:
        return 0.5 * (1.0 - t ** -0.5)
    sign = -1.0 if k % 2 else 1.0
    odd = math.prod(range(2 * k - 3, 1, -2))  # (2k-3)!!
    return sign * odd / 2.0**k * t ** (-(2.0 * k - 1.0) / 2.0)


def _harmonic_deriv(k, t):
    # f = 2t / (1 + t): the sum and the quotient, 2u.  f^(k) = +-2 k! (1 + t)^-(k+1): the sum's u
    # raised to the power k + 1, pow and a product, (k + 10)u.
    sign = 1.0 if k % 2 else -1.0
    return 2.0 * sign * math.factorial(k) * (1.0 + t) ** (-(k + 1.0))


def _jeffreys_error(k, t, v):
    # f = (t - 1) log t: the difference, log and a product, 10u.  f' = log t + 1 - 1/t: log's
    # 8u |log t|, the sum's u (|log t| + 1), the quotient's u / t and the difference's u |v|.
    # f^(k) = +-(k-2)! t^-k (t + k - 1): pow, two products, and 3u for t + k - 1 (t > 0, k >= 2), 13u.
    if k == 1:
        return _U * (9.0 * abs(np.log(t)) + 1.0 + 1.0 / t + abs(v))
    return (10.0 if k == 0 else 13.0) * _U * abs(v)


def _jeffreys_deriv(k, t):
    if k == 1:
        return np.log(t) + 1.0 - 1.0 / t
    sign = -1.0 if k % 2 else 1.0
    return sign * math.factorial(k - 2) * t ** (-1.0 * k) * (t + k - 1.0)


def _exp_deriv(k, t):
    return np.exp(t)


_kl_deriv._error = lambda k, t, v: _U * (9.0 * abs(v) + 8.0) if k == 1 else 9.0 * _U * abs(v)
_hellinger_deriv._error, _jeffreys_deriv._error = _hellinger_error, _jeffreys_error
_harmonic_deriv._error = lambda k, t, v: (2.0 if k == 0 else k + 10.0) * _U * abs(v)
_exp_deriv._error = lambda k, t, v: 8.0 * _U * abs(v)  # exp and every derivative: one libm exp


def _fixed(*row):  # one shared row: models of equal specs share fn and deriv_fn
    return lambda spec: row


def _power(spec: GeneratorSpec) -> tuple:
    p = spec.exponent

    def fn(t):
        return _float_power(t, p)

    # f = t^p: pow, 8u.  f^(k) = prod_{i<k} (p - i) t^(p-k): k differences and k products, the
    # exponent's rounding u |p - k| scaled by |log t|, pow and a product; a pow that underflows
    # is off by eta, times the product.
    def dfn(k, t):
        coef = 1.0
        for i in range(k):
            coef *= p - i
        return coef * t ** (p - k)

    dfn._error = lambda k, t, v: 8.0 * _U * abs(v) if k == 0 else 2.0 * _ETA * math.prod(
        abs(p - i) for i in range(k)) + _U * (2 * k + 9.0 + abs(p - k) * abs(np.log(t))) * abs(v)

    zero = 0.0 if p > 0 else 1.0 if p == 0 else math.inf
    slope = 0.0 if p < 1 else 1.0 if p == 1 else math.inf
    return fn, dfn, zero, slope


def _poly(spec: GeneratorSpec) -> tuple:
    coeffs = spec.coeffs
    model = FunctionModel.from_polynomial(coeffs, spec.domain)
    degree = max((j for j, c in enumerate(coeffs) if c != 0.0), default=0)
    slope = 0.0 if degree == 0 else coeffs[1] if degree == 1 else math.copysign(math.inf, coeffs[degree])
    return model.fn, model.deriv_fn, coeffs[0], slope


def _by_parity(even: str, odd: str, first: str = INDEFINITE):
    # The class column of a generator whose f^(k), k >= 2, has one sign per parity of k (f' may not).
    return lambda spec, n: first if n == 1 else even if n % 2 == 0 else odd


def _power_class(spec: GeneratorSpec, n: int) -> str:
    # f^(n)(t) = prod_{i<n} (p - i) * t^(p - n) with t > 0; a zero product is f^(n) = 0.
    return CONCAVE if math.prod(spec.exponent - i for i in range(n)) < 0 else CONVEX


def _poly_class(spec: GeneratorSpec, n: int) -> str:
    """Class from the Bernstein coefficients of f^(n) on [a, b], in exact integers.

    Over the floats' common power-of-two denominator Q, Q^(d+1) f^(n)(a + (b - a)u) has integer
    coefficients e_i in u, and d! times its Bernstein coefficients are sum_{i<=k} e_i k!/(k-i)! (d-i)!.
    A piece with all >= 0 (f^(n) = 0 too) or all <= 0 has one sign; any other is halved by de
    Casteljau, _BISECTIONS deep.  End coefficients are exact values.  Opposite signs, or a piece
    undecided at the last level, give INDEFINITE: a definite class is a proof.
    """
    ratios = [x.as_integer_ratio() for x in (*spec.domain, *spec.coeffs)]
    Q = max(q for _, q in ratios)
    A, B, *P = (p * (Q // q) for p, q in ratios)
    g = [(P[j] * math.perm(j, n), j - n) for j in range(n, len(P))]
    d = max(len(P) - 1 - n, 0)
    e = [sum(c * Q ** (d - m) * math.comb(m, i) * A ** (m - i) * (B - A) ** i for c, m in g if m >= i)
         for i in range(d + 1)]
    pieces = [([sum(e[i] * math.perm(k, i) * math.factorial(d - i) for i in range(k + 1))
                for k in range(d + 1)], 0)]
    signs: set[bool] = set()
    while pieces and len(signs) < 2:
        beta, depth = pieces.pop()
        signs |= {x > 0 for x in (beta[0], beta[-1]) if x}
        if min(beta) >= 0 or max(beta) <= 0:
            signs.add(min(beta) >= 0)
        elif depth == _BISECTIONS:
            return INDEFINITE
        else:  # de Casteljau at the midpoint: each half's coefficients times 2^d
            rows = [beta]
            while len(rows[-1]) > 1:
                rows.append([x + y for x, y in zip(rows[-1], rows[-1][1:])])
            halves = [r[0] << len(r) - 1 for r in rows], [r[-1] << len(r) - 1 for r in reversed(rows)]
            pieces += [(half, depth + 1) for half in halves]
    return INDEFINITE if len(signs) == 2 else CONVEX if True in signs else CONCAVE


_ALTERNATING = _by_parity(CONVEX, CONCAVE)  # kl, hellinger and jeffreys: f^(k) has the sign of (-1)^k

# Every built-in generator: name -> (floor, builder, class).  The domain must lie in (floor, inf);
# builder(spec) returns (fn, dfn, zero_limit, slope_at_infinity), and class(spec, n) the
# n-convexity class on the domain where it is proved, else INDEFINITE.
_MODELS = {
    "kl": (0.0, _fixed(lambda t: t * np.log(t), _kl_deriv, 0.0, math.inf), _ALTERNATING),
    "hellinger": (
        0.0, _fixed(lambda t: 0.5 * np.float_power(1.0 - np.sqrt(t), 2.0), _hellinger_deriv, 0.5, 0.5), _ALTERNATING
    ),
    "harmonic": (
        -1.0, _fixed(lambda t: 2.0 * t / (1.0 + t), _harmonic_deriv, 0.0, 0.0), _by_parity(CONCAVE, CONVEX, CONVEX)
    ),
    "jeffreys": (0.0, _fixed(lambda t: (t - 1.0) * np.log(t), _jeffreys_deriv, math.inf, math.inf), _ALTERNATING),
    "exp": (-math.inf, _fixed(np.exp, _exp_deriv, 1.0, math.inf), _by_parity(CONVEX, CONVEX, CONVEX)),
    "poly": (-math.inf, _poly, _poly_class),
    "power": (0.0, _power, _power_class),
}

BUILTIN_NAMES = tuple(_MODELS)


def make_generator(spec: GeneratorSpec) -> FunctionModel:
    """Function model with the generator's closed-form derivative stack."""
    fn, dfn, zero, slope = _MODELS[spec.name][1](spec)
    return FunctionModel(
        fn=fn,
        deriv_fn=dfn,
        domain=spec.domain,
        max_order=_DERIV_CAP,
        name=f"power({spec.exponent:g})" if spec.name == "power" else spec.name,
        zero_limit=zero,
        slope_at_infinity=slope,
    )


def classify(spec: GeneratorSpec, n: int) -> str:
    """n-convexity class of the spec on its domain: its `_MODELS` class column.

    CONVEX or CONCAVE only where the sign of the n-th derivative on the domain is proved (f^(n)
    = 0 counts as convex), else INDEFINITE.
    """
    return _MODELS[spec.name][2](spec, _integer(n, "n", 1, _DERIV_CAP))


def definite_class(spec: GeneratorSpec, n: int) -> str:
    """`classify`, with an indefinite class raised as a ValueError."""
    if (convexity := classify(spec, n)) == INDEFINITE:
        a, b = spec.domain
        raise ValueError(
            f"{spec.name} has indefinite order-{n} convexity on [{a}, {b}]; "
            "pass an explicit convexity"
        )
    return convexity


def parse_function_spec(text: str, domain: tuple[float, float] | None = None) -> GeneratorSpec:
    """Parse CLI name strings: kl|hellinger|harmonic|jeffreys|exp|poly:<c0,c1,...>|power:<p>."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    kwargs: dict = {}
    if domain is not None:
        kwargs["domain"] = domain
    if name == "poly":
        try:
            kwargs["coeffs"] = tuple(float(c) for c in arg.split(","))
        except ValueError as exc:
            raise ValueError(f"bad poly coefficients {arg!r}: {exc}") from exc
    elif name == "power":
        try:
            kwargs["exponent"] = float(arg)
        except ValueError as exc:
            raise ValueError(f"bad power exponent {arg!r}: {exc}") from exc
    elif arg:
        raise ValueError(f"generator {name!r} takes no parameter, got {arg!r}")
    return GeneratorSpec(name=name, **kwargs)
