"""The stated rounding error of f and f^(k) against references at 50 digits.

Each built-in model's derivative function states a bound on the error of its
float formulas (`generators._stating`, `FunctionModel.from_polynomial`), which
`divided_diff._error` reads for the certifying gate of `divergence_bounds`.
Here every model's f and f^(k), k <= 12, is evaluated in floats at float
inputs and in mpmath at 50 digits at the same inputs, and the stated bound
must cover |float - reference|.  The inputs cover the bracket audit's domains
([0.4, 2.5] for the generators, [-2, 3] for exp), the ratio ranges of
`div_small` (down to 1e-30 and up to 1e56) and `zm_large`, and the points
where a formula subtracts nearly equal values: t near 1 (hellinger's f and f',
jeffreys' f') and near 1/e (kl's f').  A float that overflows is a refusal
elsewhere, not a value, and is skipped.  The scalar path (table borders) and
the array path of f (the chord gap's points) are both held.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from elrbounds import FunctionModel, GeneratorSpec, make_generator
from elrbounds.divided_diff import _TINY, _error_of

mpf = mpmath.mpf


def _near(x: float, steps: int = 4) -> list[float]:
    """x and its `steps` float neighbours on each side, then x (1 +- 10^-j) for j = 4..12."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out + [x * (1.0 + s * 10.0**-j) for j in range(4, 13) for s in (-1.0, 1.0)]


POSITIVE = sorted(
    set(np.logspace(-30.0, 56.0, 44).tolist())
    | set(np.linspace(0.4, 2.5, 12).tolist())
    | set(_near(1.0)) | set(_near(math.exp(-1.0))) | {3.3e-28, 2.6e56, 0.5, 2.0}
)
REAL = sorted(set(np.linspace(-2.0, 3.0, 16).tolist()) | set(np.linspace(-700.0, 700.0, 16).tolist()))
POLY = sorted(set(np.linspace(-2.0, 2.0, 17).tolist()) | set(_near(1.0, 2)))


def _factorial(k: int) -> mpf:
    return mpf(math.factorial(k))


def _reference(name: str, k: int, t: mpf, p: float = 0.0):
    """f^(k)(t) at the working precision, from the closed forms the models transcribe."""
    sign = -1 if k % 2 else 1
    if name == "kl":
        return t * mpmath.log(t) if k == 0 else mpmath.log(t) + 1 if k == 1 else sign * _factorial(k - 2) * t ** (1 - k)
    if name == "hellinger":
        if k == 0:
            return (1 - mpmath.sqrt(t)) ** 2 / 2
        if k == 1:
            return (1 - t ** mpf(-0.5)) / 2
        return sign * mpf(math.prod(range(2 * k - 3, 1, -2))) / 2**k * t ** (mpf(1) / 2 - k)
    if name == "harmonic":
        return 2 * t / (1 + t) if k == 0 else -sign * 2 * _factorial(k) * (1 + t) ** (-(k + 1))
    if name == "jeffreys":
        if k == 0:
            return (t - 1) * mpmath.log(t)
        if k == 1:
            return mpmath.log(t) + 1 - 1 / t
        return sign * _factorial(k - 2) * t ** (-k) * (t + k - 1)
    if name == "exp":
        return mpmath.exp(t)
    coef = mpf(1)
    for i in range(k):
        coef *= mpf(p) - i
    return coef * t ** (mpf(p) - k)


def _worst(f: FunctionModel, points, reference) -> float:
    """The largest |float - reference| / stated bound over f^(k), k = 0..12, at `points`:
    the scalar path at every order, and f's array path too."""
    worst = 0.0
    with mpmath.workdps(50), np.errstate(all="ignore"):
        for k in range(13):
            for t in points:
                try:
                    v = float(f(t) if k == 0 else f.deriv(k, t))
                except OverflowError:
                    continue
                if math.isfinite(v):
                    bound = float(_error_of(f)(k, t, v)) + _TINY * (1.0 + abs(t))
                    worst = max(worst, float(abs(mpf(v) - reference(k, mpf(t)))) / bound if bound else math.inf)
        arr = np.array(points)
        values = np.asarray(f(arr), dtype=float)
        for t, v, bound in zip(points, values.tolist(), _error_of(f)(0, arr, values).tolist()):
            if math.isfinite(v):
                worst = max(worst, float(abs(mpf(v) - reference(0, mpf(t)))) / (bound + _TINY * (1.0 + abs(t))))
    return worst


@pytest.mark.parametrize("name", ["kl", "hellinger", "harmonic", "jeffreys", "exp"])
def test_each_generator_states_a_bound_that_covers_its_error(name):
    points = REAL if name == "exp" else POSITIVE
    f = make_generator(GeneratorSpec(name, domain=(points[0], points[-1])))
    worst = _worst(f, points, lambda k, t: _reference(name, k, t))
    print(f"{name}: worst |error| / stated bound {worst:.3g}")
    assert worst <= 1.0


@pytest.mark.parametrize("p", [2.5, -1.5, 0.5, 3.0, 7.25])
def test_power_states_a_bound_that_covers_its_error(p):
    points = [t for t in POSITIVE if 1e-12 <= t <= 1e12]
    f = make_generator(GeneratorSpec("power", domain=(points[0], points[-1]), exponent=p))
    worst = _worst(f, points, lambda k, t: _reference("power", k, t, p))
    print(f"power({p}): worst |error| / stated bound {worst:.3g}")
    assert worst <= 1.0


@pytest.mark.parametrize("seed", range(4))
def test_horner_states_a_bound_that_covers_its_error(seed):
    rng = np.random.default_rng(seed)
    coeffs = [float(c) for c in rng.uniform(-3.0, 3.0, size=int(rng.integers(2, 14)))]
    f = FunctionModel.from_polynomial(coeffs, (-2.0, 2.0))

    def reference(k, t):  # sum c_j j!/(j-k)! t^(j-k), each coefficient exact
        return mpmath.fsum(mpf(c) * math.perm(j, k) * t ** (j - k) for j, c in enumerate(coeffs) if j >= k)

    worst = _worst(f, POLY, reference)
    print(f"poly of degree {len(coeffs) - 1}: worst |error| / stated bound {worst:.3g}")
    assert worst <= 1.0


def test_a_model_without_a_stated_bound_gets_the_default_relative_one():
    f = FunctionModel(lambda t: t * t, lambda k, t: 2.0 * t if k == 1 else 2.0, (0.0, 2.0))
    assert _error_of(f)(0, 1.5, 2.25) >= 16 * 2.0**-53 * 2.25
    # A negated built-in keeps its model's bound: kl's f' near 1/e is absolute, not relative.
    kl = make_generator(GeneratorSpec("kl", domain=(0.1, 1.0)))
    t = math.exp(-1.0)
    assert _error_of(-kl)(1, t, -float(kl.deriv(1, t))) == _error_of(kl)(1, t, float(kl.deriv(1, t)))
    assert _error_of(kl)(1, t, float(kl.deriv(1, t))) > 100 * 2.0**-53 * abs(float(kl.deriv(1, t)))
