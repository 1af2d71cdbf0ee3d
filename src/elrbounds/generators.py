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
Every built-in is one row of `_MODELS`: the open lower limit of its domain
and a builder of its functions and limits from the spec.
Derivatives are closed forms; the stack is capped at order 12, past which
double precision gives the formulas little meaning.  `classify` reads the
n-convexity class off the sign of the n-th derivative sampled on an even
grid over the declared domain (by `_values`, as every point array is); it
is the one class source of every bound path (`definite_class` is the same
verdict with INDEFINITE, or an overflowing sample, as a ValueError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import CONCAVE, CONVEX
from .divided_diff import FunctionModel, _checked_interval, _float_power, _integer, _values

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
_CLASSIFY_GRID = 101


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


def _kl_deriv(k, t):
    if k == 1:
        return np.log(t) + 1.0
    sign = -1.0 if k % 2 else 1.0
    return sign * math.factorial(k - 2) * t ** (1.0 - k)


def _hellinger_deriv(k, t):
    if k == 1:
        return 0.5 * (1.0 - t ** -0.5)
    sign = -1.0 if k % 2 else 1.0
    odd = math.prod(range(2 * k - 3, 1, -2))  # (2k-3)!!
    return sign * odd / 2.0**k * t ** (-(2.0 * k - 1.0) / 2.0)


def _harmonic_deriv(k, t):
    sign = 1.0 if k % 2 else -1.0
    return 2.0 * sign * math.factorial(k) * (1.0 + t) ** (-(k + 1.0))


def _jeffreys_deriv(k, t):
    if k == 1:
        return np.log(t) + 1.0 - 1.0 / t
    sign = -1.0 if k % 2 else 1.0
    return sign * math.factorial(k - 2) * t ** (-1.0 * k) * (t + k - 1.0)


def _fixed(*row):  # one shared row: models of equal specs share fn and deriv_fn
    return lambda spec: row


def _power(spec: GeneratorSpec) -> tuple:
    p = spec.exponent

    def fn(t):
        return _float_power(t, p)

    def dfn(k, t):
        coef = 1.0
        for i in range(k):
            coef *= p - i
        return coef * t ** (p - k)

    zero = 0.0 if p > 0 else 1.0 if p == 0 else math.inf
    slope = 0.0 if p < 1 else 1.0 if p == 1 else math.inf
    return fn, dfn, zero, slope


def _poly(spec: GeneratorSpec) -> tuple:
    coeffs = spec.coeffs
    model = FunctionModel.from_polynomial(coeffs, spec.domain)
    degree = max((j for j, c in enumerate(coeffs) if c != 0.0), default=0)
    slope = 0.0 if degree == 0 else coeffs[1] if degree == 1 else math.copysign(math.inf, coeffs[degree])
    return model.fn, model.deriv_fn, coeffs[0], slope


# Every built-in generator: name -> (floor, builder).  The domain must lie in
# (floor, inf); builder(spec) returns (fn, dfn, zero_limit, slope_at_infinity).
_MODELS = {
    "kl": (0.0, _fixed(lambda t: t * np.log(t), _kl_deriv, 0.0, math.inf)),
    "hellinger": (
        0.0, _fixed(lambda t: 0.5 * np.float_power(1.0 - np.sqrt(t), 2.0), _hellinger_deriv, 0.5, 0.5)
    ),
    "harmonic": (-1.0, _fixed(lambda t: 2.0 * t / (1.0 + t), _harmonic_deriv, 0.0, 0.0)),
    "jeffreys": (0.0, _fixed(lambda t: (t - 1.0) * np.log(t), _jeffreys_deriv, math.inf, math.inf)),
    "exp": (-math.inf, _fixed(np.exp, lambda k, t: np.exp(t), 1.0, math.inf)),
    "poly": (-math.inf, _poly),
    "power": (0.0, _power),
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
    """n-convexity class from the sign of the n-th derivative on the domain.

    Returns CONVEX when the sampled derivative is nonnegative everywhere,
    CONCAVE when nonpositive, INDEFINITE when it changes sign (or a sample is
    NaN), up to 1e-12 of the largest finite |sample|.  The grid is sampled by
    `_values`: one array call, or, if a sample is not finite, one call per
    point, where float `**` raises its OverflowError.
    """
    f = make_generator(spec)
    n = _integer(n, "n", 1, f.max_order)
    a, b = spec.domain
    grid = a + (b - a) * np.arange(_CLASSIFY_GRID) / (_CLASSIFY_GRID - 1)
    with np.errstate(all="ignore"):
        values = _values(lambda t: f.deriv(n, t), grid)
        lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))
        tol = 1e-12 * float(np.maximum.reduce(np.abs(values), where=np.isfinite(values), initial=0.0))
    if lo >= -tol:
        return CONVEX
    if hi <= tol:
        return CONCAVE
    return INDEFINITE


def definite_class(spec: GeneratorSpec, n: int) -> str:
    """`classify`, with an indefinite class or an overflowing sample raised as a ValueError."""
    try:
        convexity = classify(spec, n)
    except OverflowError as exc:
        raise ValueError(f"order-{n} derivative overflow in classify: {exc}") from exc
    if convexity == INDEFINITE:
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
