"""The array path against the per-point path, bit for bit.

Point sets are float64 arrays; power tables and Zipf-Mandelbrot weights come
from `np.float_power`, and generators built by `make_generator` evaluate all
points in one call of their array form.  These tests pin the host property that makes that exact
(`np.float_power` is Python's float `**`, libm `pow`), then compare every
built-in generator's chord gap and one full `zm_divergence_bounds` per
generator with a forced scalar reference: power tables gated off and
generators evaluated point by point.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from elrbounds import (
    BUILTIN_NAMES,
    DiscreteFunctional,
    GeneratorSpec,
    ZipfMandelbrotParams,
    lr_difference,
    make_generator,
    pmf_vector,
    zm_divergence_bounds,
)
from elrbounds import divergence, functional, generators
from elrbounds.functional import _float_power

SPECS = {
    "poly": {"coeffs": (1.0, -2.0, 0.5, 3.0)},
    "power": {"exponent": 2.7},
}


def _spec(name, domain):
    return GeneratorSpec(name, domain=domain, **SPECS.get(name, {}))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _pow_or_error(x, e):
    try:
        return x**e
    except OverflowError as exc:
        return type(exc).__name__, str(exc)


# --- the host property ------------------------------------------------------------


def _bases():
    rng = np.random.default_rng(6)
    return np.concatenate([
        rng.uniform(-50.0, 50.0, 20_000),  # negative and positive
        rng.standard_normal(5_000) * 1e-3,  # tiny, underflowing at high powers
        np.exp(rng.uniform(-700.0, 700.0, 20_000)),  # wide, overflowing at high powers
        -np.exp(rng.uniform(0.0, 700.0, 5_000)),
        [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324],
    ])


@pytest.mark.parametrize("e", range(2, 13))
def test_float_power_is_float_pow_on_integer_exponents(e):
    base = _bases()
    with np.errstate(all="ignore"):
        array = np.float_power(base, float(e))
    expected = [_pow_or_error(x, e) for x in base.tolist()]
    overflowed = [isinstance(v, tuple) for v in expected]
    assert any(overflowed)
    assert all(math.isinf(v) for v, o in zip(array.tolist(), overflowed) if o)
    finite = np.array([not o for o in overflowed])
    assert (_bits(array[finite]) == _bits([v for v in expected if not isinstance(v, tuple)])).all()
    # The table's power raises what `**` raises.
    with pytest.raises(OverflowError) as exc:
        _float_power(base, float(e))
    assert str(exc.value) == expected[overflowed.index(True)][1]
    assert (_bits(_float_power(base[finite], float(e))) == _bits(array[finite])).all()


@pytest.mark.parametrize("q,s", [(0.0, 0.6), (2.75, 1.3), (0.125, 2.5), (4.9, 6.0), (0.0, 60.0)])
def test_float_power_is_float_pow_on_zipf_mandelbrot_weights(q, s):
    N = 20_000
    expected = [(i + q) ** -s for i in range(1, N + 1)]
    array = np.float_power(np.arange(1, N + 1, dtype=float) + q, -s)
    assert (_bits(array) == _bits(expected)).all()
    h = math.fsum(expected)
    assert pmf_vector(ZipfMandelbrotParams(N, q, s)).values == tuple(t / h for t in expected)


# --- the chord gap ----------------------------------------------------------------


def _functional(N):
    rng = np.random.default_rng(N)
    a, b = 0.05, 7.5
    points = np.exp(rng.uniform(math.log(a), math.log(b), N))
    weights = rng.dirichlet(np.full(N, 0.3))
    return DiscreteFunctional(points, weights, (a, b))


def _per_point(f):
    """A copy without the array form: `apply` calls it once per point."""
    g = dataclasses.replace(f)
    assert not hasattr(g, "_array_fn")
    return g


@pytest.mark.parametrize("N", [63, 65, 20_000])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lr_difference_array_path_is_the_per_point_path(name, N):
    A = _functional(N)
    f = make_generator(_spec(name, A.interval))
    assert lr_difference(f, A).hex() == lr_difference(_per_point(f), A).hex()
    x = np.asarray(A.points)
    assert (_bits(f._array_fn(x)) == _bits([float(f(t)) for t in A.points])).all()


def test_user_callables_are_called_once_per_point_in_order():
    A = _functional(65)
    seen = []

    def h(t):
        assert isinstance(t, float)
        seen.append(t)
        return t * t

    assert A.apply(h) == math.fsum(w * x * x for w, x in zip(A.weights, A.points))
    assert seen == list(A.points)
    f = make_generator(_spec("kl", A.interval))
    calls = []
    g = dataclasses.replace(f, fn=lambda t: calls.append(t) or f.fn(t))
    assert lr_difference(g, A) == lr_difference(f, A)
    assert calls == [*A.points, *A.interval]


def test_array_form_is_called_once_on_the_point_array():
    A = _functional(65)
    f = make_generator(_spec("kl", A.interval))
    calls = []
    g = generators._with_array_form(f, lambda t: calls.append(t) or f.fn(t))
    assert lr_difference(g, A) == lr_difference(make_generator(_spec("kl", A.interval)), A)
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    assert calls[0].tolist() == list(A.points)


def test_negated_generator_is_evaluated_per_point():
    A = _functional(65)
    f = make_generator(_spec("harmonic", A.interval))
    assert not hasattr(-f, "_array_fn")
    assert lr_difference(-f, A) == -lr_difference(f, A)


# --- whole pipeline against the forced scalar reference -------------------------------


def _outcome(fn, *args, **kwargs):
    try:
        report = fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_zm_bounds_at_20000_points_are_the_scalar_reference(name, monkeypatch):
    P = ZipfMandelbrotParams(20_000, 1.0, 1.1)
    Q = ZipfMandelbrotParams(20_000, 2.5, 1.3)
    spec = _spec(name, (0.5, 2.0))

    def run():
        return _outcome(zm_divergence_bounds, P, Q, spec, n=5, theorem="TM23")

    fast = run()
    for module in (functional, divergence):
        monkeypatch.setattr(module, "_TABLE_MIN_POINTS", math.inf)
    build = divergence.make_generator
    monkeypatch.setattr(divergence, "make_generator", lambda s: _per_point(build(s)))
    reference = run()
    assert isinstance(fast, dict)
    assert fast == reference
