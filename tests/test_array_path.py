"""The array path against the per-point path.

Point sets are float64 arrays; Zipf-Mandelbrot weights and power generators
come from `np.float_power`, and a model whose fn accepts the point array is
evaluated on all points in one call.  These tests pin the host property that
makes that exact (`np.float_power` is Python's float `**`, libm `pow`), count
the calls of array-accepting and scalar-only models, then compare every
built-in generator's chord gap, bit for bit, and one full
`zm_divergence_bounds` per generator with a forced scalar reference: moment
chains gated off and generators wrapped to take one float at a time.  The
moments of that reference are the point-by-point sums, which the chains
meet within a stated bound, so its sides are held to `conftest.side_bounds`
and every other field bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from elrbounds import (
    BUILTIN_NAMES,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    ZipfMandelbrotParams,
    lr_difference,
    make_generator,
    pmf_vector,
    ratio_range,
    zm_divergence_bounds,
)
from elrbounds import divergence
from elrbounds.divided_diff import _float_power

from conftest import side_bounds

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
    """A scalar-only copy of f: its fn rejects the point array, so `apply` calls it once per point."""
    return dataclasses.replace(f, fn=lambda t, g=f.fn: g(float(t)))


def _counted(f, calls):
    """A copy of f whose fn records every argument it is called with."""
    return dataclasses.replace(f, fn=lambda t, g=f.fn: calls.append(t) or g(t))


@pytest.mark.parametrize("N", [63, 65, 20_000])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_lr_difference_array_path_is_the_per_point_path(name, N):
    A = _functional(N)
    f = make_generator(_spec(name, A.interval))
    assert lr_difference(f, A).hex() == lr_difference(_per_point(f), A).hex()
    x = np.asarray(A.points)
    assert (_bits(f(x)) == _bits([float(f(t)) for t in A.points])).all()


def test_user_callables_are_called_once_per_point_in_order():
    """A scalar-only callable: once per point, in point order, with its own errors."""
    A = _functional(65)
    seen = []

    def h(t):
        assert isinstance(t, float)  # rejects the point array
        seen.append(t)
        return t * t

    assert A.apply(h) == math.fsum(w * x * x for w, x in zip(A.weights, A.points))
    assert seen == list(A.points)
    f = make_generator(_spec("kl", A.interval))
    calls = []
    g = dataclasses.replace(f, fn=lambda t: calls.append(float(t)) or f.fn(float(t)))
    assert lr_difference(g, A).hex() == lr_difference(f, A).hex()
    assert calls == [*A.points, *A.interval]

    def fails_at_tenth(t):
        t = float(t)
        calls.append(t)
        if t == A.points[9]:
            raise ZeroDivisionError(f"no value at {t!r}")
        return t

    calls.clear()
    with pytest.raises(ZeroDivisionError, match=f"no value at {A.points[9]!r}"):
        lr_difference(dataclasses.replace(f, fn=fails_at_tenth), A)
    assert calls == list(A.points[:10])


def test_array_form_is_called_once_on_the_point_array():
    """A model whose fn accepts arrays: one call on the point array, then f(a) and f(b)."""
    A = _functional(65)
    f = make_generator(_spec("hellinger", A.interval))
    models = (-f, dataclasses.replace(f), FunctionModel.from_polynomial((0.5, -1.0, 0.25, 0.125), A.interval))
    for model in models:
        calls = []
        assert lr_difference(_counted(model, calls), A).hex() == lr_difference(_per_point(model), A).hex()
        assert len(calls) == 3 and isinstance(calls[0], np.ndarray)
        assert calls[0].tolist() == list(A.points)
        assert calls[1:] == list(A.interval)


def test_array_results_of_another_shape_or_dtype_are_not_kept():
    A = _functional(65)
    expected = math.fsum(w * x * x for w, x in zip(A.weights, A.points))
    for wrong in (lambda t: np.zeros(2), lambda t: (t * t).astype(np.float32)):
        h = lambda t, wrong=wrong: wrong(t) if isinstance(t, np.ndarray) else t * t
        assert A.apply(h) == expected


def test_array_results_that_are_not_finite_are_rerun_per_point():
    """An fn whose array call gives inf where its float call raises keeps the float call's error."""
    A = _functional(65)
    f = make_generator(_spec("kl", A.interval))
    c = A.points[9]
    for h in (lambda t: 1.0 / (t - c), lambda t: 10.0 ** (100.0 * t)):
        i, error = next((i, e) for i, t in enumerate(A.points) if (e := _raised(h, t)))
        for evaluate in (A.apply, lambda g: lr_difference(dataclasses.replace(f, fn=g), A)):
            seen = []
            with np.errstate(all="ignore"):  # the array call returns inf silently
                with pytest.raises(type(error)) as raised:
                    evaluate(lambda t, h=h: seen.append(t) or h(t))
            assert str(raised.value) == str(error)
            assert isinstance(seen[0], np.ndarray) and seen[1:] == list(A.points[: i + 1])


def _raised(h, t):
    try:
        h(t)
    except ArithmeticError as exc:
        return exc
    return None


def test_negated_generator_is_evaluated_in_one_call():
    A = _functional(65)
    f = make_generator(_spec("harmonic", A.interval))
    x = np.asarray(A.points)
    assert (_bits((-f)(x)) == _bits([-float(f(t)) for t in A.points])).all()
    assert lr_difference(-f, A) == -lr_difference(f, A)
    assert lr_difference(-f, A).hex() == lr_difference(_per_point(-f), A).hex()


# --- whole pipeline against the forced scalar reference -------------------------------


def _outcome(fn, *args, **kwargs):
    try:
        report = fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_zm_bounds_at_20000_points_are_the_scalar_reference(name, monkeypatch, scalar_moments):
    # Each side within its stated bound (`side_bounds`) of the reference's,
    # since the moments come from multiply chains; every other field bit for bit.
    P = ZipfMandelbrotParams(20_000, 1.0, 1.1)
    Q = ZipfMandelbrotParams(20_000, 2.5, 1.3)
    spec = _spec(name, (0.5, 2.0))
    if name == "poly":  # a degree-5 term, so that f^(5) is not 0 and the sides are not lr itself
        spec = dataclasses.replace(spec, coeffs=spec.coeffs + (0.0, 0.02))

    def run():
        return _outcome(zm_divergence_bounds, P, Q, spec, n=5, theorem="TM23")

    fast = run()
    assert isinstance(fast, dict)
    p, q = pmf_vector(P), pmf_vector(Q)
    rr = ratio_range(p, q)
    A = DiscreteFunctional(divergence._ratios(p, q), q._v, (rr.a, rr.b))
    f = make_generator(dataclasses.replace(spec, domain=A.interval))
    bounds = side_bounds("TM23", f, A, 5, None, fast["convexity"])
    scalar_moments()
    build = divergence.make_generator
    monkeypatch.setattr(divergence, "make_generator", lambda s: _per_point(build(s)))
    reference = run()
    assert isinstance(reference, dict)
    sides = ("lower", "upper")
    assert {k: v for k, v in fast.items() if k not in sides} == {k: v for k, v in reference.items() if k not in sides}
    for side, e in zip(sides, bounds):
        assert abs(float.fromhex(fast[side]) - float.fromhex(reference[side])) <= e, (side, fast, reference, e)
