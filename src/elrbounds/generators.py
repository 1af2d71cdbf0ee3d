"""Built-in divergence generators with analytic derivative stacks.

Four named generators cover the classical divergences:

  kl         t*log(t)            even orders convex, odd orders concave
  hellinger  (1 - sqrt(t))^2 / 2 even orders convex, odd orders concave
  harmonic   2t / (1 + t)        odd orders convex, even orders concave (t > -1)
  jeffreys   (t - 1)*log(t)      even orders convex, odd orders concave

`exp`, `poly` and `power` are included as test fodder for arbitrary orders.
`make_generator` also gives each model an array form, the function on a
float64 array with the same bits as point by point (hellinger's square and
power's `t**p` go through `np.float_power`, libm `pow` like float `**`), so
that the chord gap evaluates all points in one call.
Derivatives are closed forms; the stack is capped at order 12, past which
double precision gives the formulas little meaning.  `classify` reads the
n-convexity class off the sign of the n-th derivative sampled on an even
grid over the declared domain; it is the one class source of every bound
path (`definite_class` is the same verdict with INDEFINITE as an error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import CONCAVE, CONVEX
from .divided_diff import FunctionModel
from .functional import _float_power

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

BUILTIN_NAMES = ("kl", "hellinger", "harmonic", "jeffreys", "exp", "poly", "power")

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
        a, b = float(self.domain[0]), float(self.domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"domain must be finite with a < b, got [{a}, {b}]")
        if self.name in ("kl", "hellinger", "jeffreys", "power") and not a > 0:
            raise ValueError(f"{self.name} requires a domain inside (0, inf), got [{a}, {b}]")
        if self.name == "harmonic" and not a > -1:
            raise ValueError(f"harmonic requires a domain inside (-1, inf), got [{a}, {b}]")
        if self.name == "poly" and not self.coeffs:
            raise ValueError("poly generator needs at least one coefficient")
        object.__setattr__(self, "domain", (a, b))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "exponent", float(self.exponent))


def _double_factorial(k: int) -> float:
    # (2n-3)!! with the empty product equal to 1.
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def _kl() -> tuple:
    def fn(t):
        return t * np.log(t)

    def dfn(k, t):
        if k == 1:
            return np.log(t) + 1.0
        sign = -1.0 if k % 2 else 1.0
        return sign * math.factorial(k - 2) * t ** (1.0 - k)

    return fn, dfn, 0.0, math.inf


def _hellinger() -> tuple:
    def fn(t):
        return 0.5 * (1.0 - np.sqrt(t)) ** 2

    def dfn(k, t):
        if k == 1:
            return 0.5 * (1.0 - t ** -0.5)
        sign = -1.0 if k % 2 else 1.0
        return sign * _double_factorial(2 * k - 3) / 2.0**k * t ** (-(2.0 * k - 1.0) / 2.0)

    return fn, dfn, 0.5, 0.5


def _harmonic() -> tuple:
    def fn(t):
        return 2.0 * t / (1.0 + t)

    def dfn(k, t):
        sign = 1.0 if k % 2 else -1.0
        return 2.0 * sign * math.factorial(k) * (1.0 + t) ** (-(k + 1.0))

    return fn, dfn, 0.0, 0.0


def _jeffreys() -> tuple:
    def fn(t):
        return (t - 1.0) * np.log(t)

    def dfn(k, t):
        if k == 1:
            return np.log(t) + 1.0 - 1.0 / t
        sign = -1.0 if k % 2 else 1.0
        return sign * math.factorial(k - 2) * t ** (-1.0 * k) * (t + k - 1.0)

    return fn, dfn, math.inf, math.inf


def _exp() -> tuple:
    return np.exp, (lambda k, t: np.exp(t)), 1.0, math.inf


def _power(p: float) -> tuple:
    def fn(t):
        return t**p

    def dfn(k, t):
        coef = 1.0
        for i in range(k):
            coef *= p - i
        return coef * t ** (p - k)

    if p > 0:
        zero = 0.0
    elif p == 0:
        zero = 1.0
    else:
        zero = math.inf
    if p < 1:
        slope = 0.0
    elif p == 1:
        slope = 1.0
    else:
        slope = math.inf
    return fn, dfn, zero, slope


def _poly_limits(coeffs: tuple[float, ...]) -> tuple[float, float]:
    degree = 0
    for j in range(len(coeffs) - 1, -1, -1):
        if coeffs[j] != 0.0:
            degree = j
            break
    zero = coeffs[0]
    if degree == 0:
        slope = 0.0
    elif degree == 1:
        slope = coeffs[1]
    else:
        slope = math.copysign(math.inf, coeffs[degree])
    return zero, slope


def make_generator(spec: GeneratorSpec) -> FunctionModel:
    """Function model with the generator's closed-form derivative stack."""
    if spec.name == "poly":
        zero, slope = _poly_limits(spec.coeffs)
        base = FunctionModel.from_polynomial(
            spec.coeffs, spec.domain, name="poly", max_order=_DERIV_CAP
        )
        model = replace(base, zero_limit=zero, slope_at_infinity=slope)
        return _with_array_form(model, model.fn)
    if spec.name == "power":
        fn, dfn, zero, slope = _power(spec.exponent)
        name = f"power({spec.exponent:g})"
    else:
        fn, dfn, zero, slope = {
            "kl": _kl,
            "hellinger": _hellinger,
            "harmonic": _harmonic,
            "jeffreys": _jeffreys,
            "exp": _exp,
        }[spec.name]()
        name = spec.name
    model = FunctionModel(
        fn=fn,
        deriv_fn=dfn,
        domain=spec.domain,
        max_order=_DERIV_CAP,
        name=name,
        zero_limit=zero,
        slope_at_infinity=slope,
    )
    # On an array, `** 2` takes numpy's square and `** p` a SIMD pow, which
    # move bits; np.float_power is libm pow, as float `**` point by point.
    if spec.name == "hellinger":
        return _with_array_form(model, lambda t: 0.5 * np.float_power(1.0 - np.sqrt(t), 2.0))
    if spec.name == "power":
        return _with_array_form(model, lambda t: _float_power(t, spec.exponent))
    return _with_array_form(model, fn)


def _with_array_form(f: FunctionModel, array_fn) -> FunctionModel:
    """Give `f` the private `_array_fn`: f on a float64 array, elementwise and
    bit for bit as f point by point.  `DiscreteFunctional.apply` evaluates all
    points with it; copies (`dataclasses.replace`, negation) have none."""
    object.__setattr__(f, "_array_fn", array_fn)
    return f


def classify(spec: GeneratorSpec, n: int) -> str:
    """n-convexity class from the sign of the n-th derivative on the domain.

    Returns CONVEX when the sampled derivative is nonnegative everywhere,
    CONCAVE when nonpositive, INDEFINITE when it changes sign, up to 1e-12 of
    the largest finite |sample|.  A non-finite sample of the array call re-runs
    the grid point by point, where float `**` raises its OverflowError.
    """
    f = make_generator(spec)
    if not 1 <= n <= f.max_order:
        raise ValueError(f"n must be in 1..{f.max_order}, got {n}")
    a, b = spec.domain
    grid = a + (b - a) * np.arange(_CLASSIFY_GRID) / (_CLASSIFY_GRID - 1)
    with np.errstate(all="ignore"):
        values = f.deriv(n, grid)
        lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))
    if math.isfinite(lo) and math.isfinite(hi):
        tol = 1e-12 * max(-lo, hi)
    else:
        values = [float(f.deriv(n, t)) for t in grid.tolist()]
        lo, hi = min(values), max(values)
        tol = 1e-12 * max((abs(v) for v in values if math.isfinite(v)), default=0.0)
    if lo >= -tol:
        return CONVEX
    if hi <= tol:
        return CONCAVE
    return INDEFINITE


def definite_class(spec: GeneratorSpec, n: int) -> str:
    """`classify`, with an indefinite class raised as a ValueError."""
    convexity = classify(spec, n)
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
