"""Generator derivative stacks, limits and convexity classification."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    INDEFINITE,
    GeneratorSpec,
    certify_convexity,
    classify,
    make_generator,
    parse_function_spec,
)

# mpmath twins of the generator definitions; mpmath.diff runs central finite
# differences at 40 digits, giving an oracle independent of the closed forms.
_TWINS = {
    "kl": lambda x: x * mpmath.log(x),
    "hellinger": lambda x: mpmath.mpf("0.5") * (1 - mpmath.sqrt(x)) ** 2,
    "harmonic": lambda x: 2 * x / (1 + x),
    "jeffreys": lambda x: (x - 1) * mpmath.log(x),
    "exp": mpmath.exp,
}


def _spec(name, **kw):
    kw.setdefault("domain", (0.5, 2.0))
    return GeneratorSpec(name, **kw)


# --- derivative stacks ------------------------------------------------------


def test_kl_second_derivative_at_one():
    f = make_generator(_spec("kl"))
    assert float(f.deriv(2, 1.0)) == pytest.approx(1.0)


def test_hellinger_first_derivative_vanishes_at_one():
    f = make_generator(_spec("hellinger"))
    assert float(f.deriv(1, 1.0)) == pytest.approx(0.0, abs=1e-15)


def test_poly_cubic_third_derivative():
    f = make_generator(_spec("poly", coeffs=(0, 0, 0, 1)))
    assert float(f.deriv(3, 0.77)) == pytest.approx(6.0)


def test_jeffreys_second_derivative_is_positive():
    # (t + 1) / t^2: the generator is genuinely 2-convex.
    f = make_generator(_spec("jeffreys"))
    for t in (0.5, 1.0, 2.0):
        assert float(f.deriv(2, t)) == pytest.approx((t + 1.0) / t**2)
        assert float(f.deriv(2, t)) > 0.0


def test_harmonic_first_derivative():
    f = make_generator(_spec("harmonic"))
    for t in (0.5, 1.3):
        assert float(f.deriv(1, t)) == pytest.approx(2.0 / (1.0 + t) ** 2)


@pytest.mark.parametrize("name", ["kl", "hellinger", "harmonic", "jeffreys", "exp"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_derivative_stack_against_high_precision_differences(name, order):
    f = make_generator(_spec(name))
    twin = _TWINS[name]
    with mpmath.workdps(40):
        for i in range(20):
            t = 0.55 + 1.4 * i / 19.0
            expected = float(mpmath.diff(twin, mpmath.mpf(t), order))
            got = float(f.deriv(order, t))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), (name, order, t)


@pytest.mark.parametrize(
    "spec",
    [
        _spec("power", exponent=1.7),
        _spec("poly", coeffs=(1.0, -2.0, 0.0, 0.5, 0.25)),
    ],
)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_parametric_stacks_against_high_precision_differences(spec, order):
    f = make_generator(spec)
    if spec.name == "power":
        twin = lambda x: x ** mpmath.mpf("1.7")
    else:
        twin = lambda x: sum(mpmath.mpf(c) * x**j for j, c in enumerate(spec.coeffs))
    with mpmath.workdps(40):
        for i in range(10):
            t = 0.6 + 1.2 * i / 9.0
            expected = float(mpmath.diff(twin, mpmath.mpf(t), order))
            assert float(f.deriv(order, t)) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", ["kl", "hellinger", "harmonic", "jeffreys"])
def test_first_derivative_matches_plain_central_difference(name):
    # The float-level sanity check: h = 1e-6 central difference of eval.
    f = make_generator(_spec(name))
    h = 1e-6
    for i in range(20):
        t = 0.6 + 1.2 * i / 19.0
        fd = (float(f(t + h)) - float(f(t - h))) / (2.0 * h)
        assert float(f.deriv(1, t)) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_derivative_cap_enforced():
    f = make_generator(_spec("kl"))
    assert f.max_order == 12
    with pytest.raises(ValueError, match="derivative order"):
        f.deriv(13, 1.0)


# --- values and limits --------------------------------------------------------


@pytest.mark.parametrize("name", ["kl", "hellinger", "jeffreys"])
def test_divergence_generators_vanish_exactly_at_one(name):
    f = make_generator(_spec(name))
    assert float(f(1.0)) == 0.0


def test_declared_limits():
    assert make_generator(_spec("kl")).zero_limit == 0.0
    assert make_generator(_spec("kl")).slope_at_infinity == math.inf
    assert make_generator(_spec("hellinger")).zero_limit == 0.5
    assert make_generator(_spec("hellinger")).slope_at_infinity == 0.5
    assert make_generator(_spec("harmonic")).slope_at_infinity == 0.0
    assert make_generator(_spec("jeffreys")).zero_limit == math.inf
    assert make_generator(_spec("poly", coeffs=(2.0, 3.0))).zero_limit == 2.0
    assert make_generator(_spec("poly", coeffs=(2.0, 3.0))).slope_at_infinity == 3.0
    assert make_generator(_spec("poly", coeffs=(0.0, 0.0, -1.0))).slope_at_infinity == -math.inf
    assert make_generator(_spec("power", exponent=0.5)).slope_at_infinity == 0.0


# --- classification -------------------------------------------------------------


@pytest.mark.parametrize(
    "name,n,expected",
    [
        ("kl", 2, CONVEX),
        ("kl", 3, CONCAVE),
        ("kl", 4, CONVEX),
        ("hellinger", 2, CONVEX),
        ("hellinger", 5, CONCAVE),
        ("harmonic", 3, CONVEX),
        ("harmonic", 4, CONCAVE),
        # The jeffreys generator behaves like kl: even orders convex.  Its
        # second derivative (t+1)/t^2 is positive, so odd orders are concave.
        ("jeffreys", 2, CONVEX),
        ("jeffreys", 3, CONCAVE),
        ("jeffreys", 4, CONVEX),
        ("exp", 5, CONVEX),
    ],
)
def test_named_generator_classification(name, n, expected):
    assert classify(_spec(name), n) == expected


def test_polynomial_classification():
    cubic = GeneratorSpec("poly", domain=(0.5, 2.0), coeffs=(0, 0, 0, 1))
    assert classify(cubic, 3) == CONVEX
    assert classify(cubic, 4) == CONVEX  # zero derivative counts as convex
    wiggly = GeneratorSpec("poly", domain=(-1.0, 1.0), coeffs=(0, 0, 0, 1))
    assert classify(wiggly, 2) == INDEFINITE


def test_classification_agrees_with_sampled_certificates():
    for name in ("kl", "hellinger", "harmonic", "jeffreys"):
        spec = _spec(name)
        f = make_generator(spec)
        for n in (2, 3, 4):
            cert = certify_convexity(f, n, samples=300, seed=5)
            assert classify(spec, n) == cert.verdict, (name, n)


def test_classification_agrees_with_derivative_sign_on_grid():
    for name in ("kl", "harmonic", "jeffreys"):
        spec = _spec(name)
        f = make_generator(spec)
        for n in (2, 3, 5):
            signs = {
                float(f.deriv(n, 0.5 + 1.5 * i / 99.0)) > 0 for i in range(100)
            }
            verdict = classify(spec, n)
            assert verdict == (CONVEX if signs == {True} else CONCAVE)


def _classify_per_point(spec, n):
    """Reference verdict: the 101-point grid one float at a time, tolerance
    1e-12 of the largest finite |sample| (no absolute floor)."""
    f = make_generator(spec)
    a, b = spec.domain
    values = [float(f.deriv(n, a + (b - a) * i / 100)) for i in range(101)]
    tol = 1e-12 * max((abs(v) for v in values if math.isfinite(v)), default=0.0)
    if min(values) >= -tol:
        return CONVEX
    if max(values) <= tol:
        return CONCAVE
    return INDEFINITE


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and text
        return type(exc).__name__, str(exc)


def _random_specs(rng):
    """(name, domain family, spec) draws over every built-in generator."""
    for name in ("kl", "hellinger", "harmonic", "jeffreys", "exp", "poly", "power"):
        kw = {}
        if name == "poly":
            kw["coeffs"] = tuple(rng.normal(0.0, 10.0 ** rng.uniform(-20, 3), rng.integers(1, 14)))
        if name == "power":
            kw["exponent"] = float(rng.choice([rng.uniform(-4.0, 4.0), rng.integers(-3, 12)]))
        a = float(rng.uniform(0.05, 5.0))
        domains = {
            "narrow": (a, a * (1.0 + 10.0 ** rng.uniform(-9, -1))),
            "wide": (float(10.0 ** rng.uniform(-4, 0)), float(10.0 ** rng.uniform(1, 8))),
            "tiny-start": (float(10.0 ** rng.uniform(-320, -8)), float(rng.uniform(0.01, 3.0))),
        }
        if name in ("harmonic", "exp", "poly"):
            low = -float(rng.uniform(0.0, 1.0 if name == "harmonic" else 900.0))
            domains["negative"] = (low, float(rng.uniform(low / 2, 900.0)))
        for family, domain in domains.items():
            yield name, family, GeneratorSpec(name, domain=domain, **kw)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_array_grid_classify_matches_the_per_point_reference():
    # One array call of the derivative per verdict; a non-finite sample
    # re-runs the grid point by point, so the scalar `**` errors stay as
    # they are.  Verdicts and errors (type and text) must match the reference.
    rng = np.random.default_rng(20261018)
    seen = set()
    for _ in range(6):
        for name, family, spec in _random_specs(rng):
            for n in range(1, 13):
                got = _outcome(classify, spec, n)
                assert got == _outcome(_classify_per_point, spec, n), (spec, n)
                seen.add((family, got if isinstance(got, str) else got[0]))
    kinds = {kind for _, kind in seen}
    assert {CONVEX, CONCAVE, INDEFINITE, "OverflowError"} <= kinds
    assert {family for family, _ in seen} == {"narrow", "wide", "tiny-start", "negative"}


def test_tiny_negative_derivative_is_concave():
    # f^(9) of kl is -7! t^-8, about -1e-14 on [100, 200]: nonpositive
    # everywhere, however small.  An absolute tolerance floor called it convex.
    assert classify(GeneratorSpec("kl", domain=(100.0, 200.0)), 9) == CONCAVE
    tiny_cubic = GeneratorSpec("poly", domain=(0.5, 2.0), coeffs=(0, 0, 0, -1e-20))
    assert classify(tiny_cubic, 3) == CONCAVE


def test_infinite_sample_leaves_the_tolerance_finite():
    # f^(11) of kl is -9! t^-10 < 0; at t = 3e-31 the product overflows to
    # -inf without an error, which once made the tolerance infinite.
    spec = GeneratorSpec("kl", domain=(3e-31, 1.0))
    assert float(make_generator(spec).deriv(11, 3e-31)) == -math.inf
    assert classify(spec, 11) == CONCAVE


# --- spec validation and parsing --------------------------------------------------


def test_domain_validity_per_generator():
    with pytest.raises(ValueError, match="inside"):
        GeneratorSpec("kl", domain=(-0.5, 2.0))
    with pytest.raises(ValueError, match="inside"):
        GeneratorSpec("harmonic", domain=(-1.5, 2.0))
    GeneratorSpec("harmonic", domain=(-0.5, 2.0))  # fine: stays right of -1
    with pytest.raises(ValueError, match="coefficient"):
        GeneratorSpec("poly")
    with pytest.raises(ValueError, match="unknown generator"):
        GeneratorSpec("entropy")


def test_parse_function_spec():
    assert parse_function_spec("kl").name == "kl"
    spec = parse_function_spec("poly:0,0,1", domain=(0.0, 2.0))
    assert spec.coeffs == (0.0, 0.0, 1.0)
    assert spec.domain == (0.0, 2.0)
    assert parse_function_spec("power:1.5").exponent == 1.5
    with pytest.raises(ValueError, match="poly"):
        parse_function_spec("poly:a,b")
    with pytest.raises(ValueError, match="no parameter"):
        parse_function_spec("kl:3")
