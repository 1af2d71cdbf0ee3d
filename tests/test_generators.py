"""Generator derivative stacks, limits and convexity classification."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from elrbounds import (
    BUILTIN_NAMES,
    CONCAVE,
    CONVEX,
    FunctionModel,
    INDEFINITE,
    GeneratorSpec,
    certify_convexity,
    classify,
    make_generator,
    parse_function_spec,
)
from elrbounds.divided_diff import _float_power, _integer, _values

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


# Every row in `BUILTIN_NAMES` order (the unknown-generator error prints it):
# its domain floor as the rejection text prints it (None: no finite floor),
# then specs as (parameters, model name, zero_limit, slope_at_infinity).
_ROWS = {
    "kl": ("0", [({}, "kl", 0.0, math.inf)]),
    "hellinger": ("0", [({}, "hellinger", 0.5, 0.5)]),
    "harmonic": ("-1", [({}, "harmonic", 0.0, 0.0)]),
    "jeffreys": ("0", [({}, "jeffreys", math.inf, math.inf)]),
    "exp": (None, [({}, "exp", 1.0, math.inf)]),
    "poly": (None, [
        ({"coeffs": (3.0, 0.0, 0.0)}, "poly", 3.0, 0.0),
        ({"coeffs": (2.0, -3.0)}, "poly", 2.0, -3.0),
        ({"coeffs": (1.0, 5.0, -0.5)}, "poly", 1.0, -math.inf),
    ]),
    "power": ("0", [
        ({"exponent": -1.5}, "power(-1.5)", math.inf, 0.0),
        ({"exponent": 0.0}, "power(0)", 1.0, 0.0),
        ({"exponent": 0.5}, "power(0.5)", 0.0, 0.0),
        ({"exponent": 1.0}, "power(1)", 0.0, 1.0),
        ({"exponent": 2.5}, "power(2.5)", 0.0, math.inf),
    ]),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_generator_row(name):
    assert tuple(_ROWS) == BUILTIN_NAMES
    floor, cases = _ROWS[name]
    start = -1e300
    if floor is not None:
        start = float(floor)
        with pytest.raises(ValueError) as exc:
            GeneratorSpec(name, domain=(start, 2.0), **cases[0][0])
        assert str(exc.value) == f"{name} requires a domain inside ({floor}, inf), got [{start}, 2.0]"
        start = math.nextafter(start, math.inf)
    # A fixed row hands every spec its one pair of functions; power and poly build theirs.
    fixed = name not in ("power", "poly")
    for kw, label, zero, slope in cases:
        f = make_generator(GeneratorSpec(name, domain=(start, 2.0), **kw))
        assert (f.domain, f.name, f.max_order) == ((start, 2.0), label, 12)
        assert (f.zero_limit, f.slope_at_infinity) == (zero, slope)
        again = make_generator(GeneratorSpec(name, **kw))
        assert (again.fn is f.fn, again.deriv_fn is f.deriv_fn) == (fixed, fixed)


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


def _grid_class(spec, n):
    """The class column's independent check: the sign of the n-th derivative sampled on a
    101-point even grid over the domain, up to 1e-12 of the largest finite |sample|; INDEFINITE
    when it changes sign or a sample is NaN.  The grid is sampled by `_values`: one array call,
    or, if a sample is not finite, one call per point, where float `**` raises its OverflowError.
    """
    f = make_generator(spec)
    n = _integer(n, "n", 1, f.max_order)
    a, b = spec.domain
    grid = a + (b - a) * np.arange(101) / 100
    with np.errstate(all="ignore"):
        values = _values(lambda t: f.deriv(n, t), grid)
        lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))
        tol = 1e-12 * float(np.maximum.reduce(np.abs(values), where=np.isfinite(values), initial=0.0))
    if lo >= -tol:
        return CONVEX
    if hi <= tol:
        return CONCAVE
    return INDEFINITE


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
    # The grid sampler (`_grid_class`): one array call of the derivative per
    # verdict; a non-finite sample re-runs the grid point by point, so the
    # scalar `**` errors stay as they are.  Verdicts and errors (type and
    # text) must match the reference.
    rng = np.random.default_rng(20261018)
    seen = set()
    for _ in range(6):
        for name, family, spec in _random_specs(rng):
            for n in range(1, 13):
                got = _outcome(_grid_class, spec, n)
                assert got == _outcome(_classify_per_point, spec, n), (spec, n)
                seen.add((family, got if isinstance(got, str) else got[0]))
    kinds = {kind for _, kind in seen}
    assert {CONVEX, CONCAVE, INDEFINITE, "OverflowError"} <= kinds
    assert {family for family, _ in seen} == {"narrow", "wide", "tiny-start", "negative"}
    # Derivative coefficients c_12 * 12!/(12-n)! overflow to +-inf from n = 10
    # on: every sample is infinite, none finite to scale the tolerance (the
    # grids miss t = 0, where inf * 0 is NaN).
    verdicts = set()
    for top in (1e300, -1e300):
        for domain in ((0.5, 2.0), (-2.0, -0.5), (-1.0, 2.0)):
            spec = GeneratorSpec("poly", domain=domain, coeffs=(1.0,) + (0.0,) * 11 + (top,))
            assert math.isinf(make_generator(spec).deriv(10, 1.0))
            for n in range(1, 13):
                got = _outcome(_grid_class, spec, n)
                assert got == _outcome(_classify_per_point, spec, n), (spec, n)
                verdicts.add(got)
    assert verdicts == {CONVEX, CONCAVE, INDEFINITE}


def test_a_nan_sample_makes_the_class_indefinite():
    # f^(10) = 12!/2! * 1e300 * t^2 samples as inf * t * t: +inf except at the
    # grid point t = 0, where it is NaN.  The sign there is unknown to the
    # grid; the class column proves it: Bernstein signs of 1e300 t^2 on [-1, 1].
    spec = GeneratorSpec("poly", domain=(-1.0, 1.0), coeffs=(0.0,) * 12 + (1e300,))
    f = make_generator(spec)
    assert math.isnan(f.deriv(10, 0.0)) and f.deriv(10, -0.5) == f.deriv(10, 0.5) == math.inf
    assert _grid_class(spec, 10) == INDEFINITE
    assert classify(spec, 10) == CONVEX


def test_an_overflowing_grid_is_sampled_without_a_warning():
    # exp(800) is inf: the per-point rerun of the grid runs inside the same
    # errstate as the array call, so numpy warns about neither.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _grid_class(GeneratorSpec("exp", domain=(0.0, 800.0)), 3) == CONVEX


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


# --- exact classes ------------------------------------------------------------------

_TAME = [GeneratorSpec(name, domain=(0.5, 2.0)) for name in ("kl", "hellinger", "harmonic", "jeffreys", "exp")]
_TAME += [GeneratorSpec("power", domain=(0.5, 2.0), exponent=p) for p in (-1.5, 0.5, 1.7, 3.0)]
# (generator, n) where the order-n differences of 200 sampled point sets drown
# in rounding, which grows like eps * max|f| / gap^n past the sampler's
# absolute 1e-12 sign tolerance, while f^(n)/n! is small (exp) or zero (t^3
# from n = 4).
_UNRESOLVED_BY_SAMPLING = {("exp", n) for n in (10, 11, 12)} | {("power(1.7)", 12)}
_UNRESOLVED_BY_SAMPLING |= {("power(3)", n) for n in range(4, 13)}


@pytest.mark.parametrize("spec", _TAME, ids=lambda spec: make_generator(spec).name)
def test_class_column_is_both_samplers_class(spec):
    # `classify` reads the column; the derivative grid and the divided-difference
    # sampler check it independently.
    f = make_generator(spec)
    unresolved = set()
    for n in range(2, 13):
        exact = classify(spec, n)
        assert exact == _grid_class(spec, n) != INDEFINITE, (f.name, n)
        cert = certify_convexity(f, n, samples=200, seed=1)
        if cert.verdict == INDEFINITE:
            unresolved.add((f.name, n))
        else:
            assert cert.verdict == exact, (f.name, n)
    assert unresolved == {case for case in _UNRESOLVED_BY_SAMPLING if case[0] == f.name}


def test_class_column_at_order_one():
    # Only f' of harmonic, exp and power has one sign on every domain.
    for name, expected in (("kl", INDEFINITE), ("hellinger", INDEFINITE), ("jeffreys", INDEFINITE),
                           ("harmonic", CONVEX), ("exp", CONVEX)):
        assert classify(_spec(name), 1) == expected
    for p, expected in ((-1.5, CONCAVE), (0.0, CONVEX), (0.5, CONVEX)):
        assert classify(_spec("power", exponent=p), 1) == expected
    with pytest.raises(ValueError, match="^n must be"):
        classify(_spec("kl"), 0)


def _exact_values(coeffs, n, points):
    """f^(n) of the polynomial at each rational point, in exact arithmetic."""
    g = [Fraction(c) * math.perm(j, n) for j, c in enumerate(coeffs) if j >= n]
    return [sum(c * x**j for j, c in enumerate(g)) for x in points]


def test_bernstein_class_is_sound():
    # A definite class must hold at every probe: the ends, the real parts of
    # f^(n)'s roots inside (a, b) and the midpoints between them, evaluated
    # exactly.  INDEFINITE needs a proven sign change among the probes, or
    # the bisection ran out of depth: those are counted.
    rng = np.random.default_rng(20261019)
    verdicts = Counter()
    for _ in range(400):
        coeffs = tuple(float(c) for c in rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 10))))
        n = int(rng.integers(1, 9))
        a, b = sorted(float(x) for x in rng.uniform(-2.0, 3.0, size=2))
        verdict = classify(GeneratorSpec("poly", domain=(a, b), coeffs=coeffs), n)
        if n >= len(coeffs):
            assert verdict == CONVEX  # f^(n) = 0
            verdicts["zero"] += 1
            continue
        top = [mpmath.mpf(c) * math.perm(j, n) for j, c in enumerate(coeffs) if j >= n][::-1]
        roots = mpmath.polyroots(top, maxsteps=200, extraprec=200, error=False) if len(top) > 1 else []
        inside = sorted(Fraction(float(mpmath.re(r))) for r in roots if a < mpmath.re(r) < b)
        ends = [Fraction(a), *inside, Fraction(b)]
        probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])]
        signs = {v > 0 for v in _exact_values(coeffs, n, probes) if v}
        if verdict == INDEFINITE:
            verdicts["sign change" if len(signs) == 2 else "depth exhausted"] += 1
        else:
            assert signs == {verdict == CONVEX}, (coeffs, n, a, b, verdict)
            verdicts[verdict] += 1
    assert min(verdicts[k] for k in (CONVEX, CONCAVE, "sign change", "zero")) >= 20, verdicts
    assert verdicts["depth exhausted"] == 0, verdicts  # 194 draws with f^(n) != 0


def test_bernstein_class_is_exact_where_sampling_is_not():
    # f'' = t - 1e-3 is negative only on [0, 1e-3): sampled differences
    # average that away, the Bernstein ends are exact values of both signs.
    edge = (0.0, 0.0, -5e-4, 1.0 / 6.0)
    sampled = certify_convexity(FunctionModel.from_polynomial(edge, (0.0, 1.0)), 2, samples=120, seed=0)
    assert sampled.verdict == CONVEX
    assert classify(GeneratorSpec("poly", domain=(0.0, 1.0), coeffs=edge), 2) == INDEFINITE
    # (t - 1)^3 + 1: f' = 3(t - 1)^2 touches 0 at t = 1.  On [0, 2] the first
    # bisection splits there and proves both halves >= 0; on [0, 3] no
    # midpoint is 1, so the depth runs out: INDEFINITE, never a guess.
    cubic = (1.0, 3.0, -3.0, 1.0)
    assert [classify(GeneratorSpec("poly", domain=(0.0, 2.0), coeffs=cubic), n) for n in (1, 2, 3, 4)] == [
        CONVEX, INDEFINITE, CONVEX, CONVEX]
    assert classify(GeneratorSpec("poly", domain=(0.0, 3.0), coeffs=cubic), 1) == INDEFINITE


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


def test_a_poly_coefficient_is_checked_when_the_spec_is_built():
    # With the text `from_polynomial` gives, so no class or model of the spec meets a NaN.
    with pytest.raises(ValueError) as exc:
        GeneratorSpec("poly", coeffs=(1.0, math.nan))
    assert str(exc.value) == "polynomial coefficients must be finite, got (1.0, nan)"


def test_classify_builds_no_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify built a model")

    monkeypatch.setattr(FunctionModel, "from_polynomial", staticmethod(refuse))
    spec = GeneratorSpec("poly", domain=(0.0, 2.0), coeffs=(1.0, 3.0, -3.0, 1.0))
    assert [classify(spec, n) for n in (1, 2, 3, 4)] == [CONVEX, INDEFINITE, CONVEX, CONVEX]


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



# --- float arguments of hellinger and power ----------------------------------------


def _positive_floats(n: int, seed: int) -> list[float]:
    """Finite positive floats: random bit patterns (subnormal to near overflow)
    and uniform draws in (0, 10)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(1, 0x7FF0000000000000, size=n, dtype=np.int64).view(np.float64)
    return bits.tolist() + rng.uniform(0.0, 10.0, size=n).tolist()


def _bits_or_error(fn, t):
    try:
        return float(fn(t)).hex()
    except ArithmeticError as exc:
        return type(exc).__name__, exc.args


_NUMPY_PATHS = {
    "hellinger": lambda t: 0.5 * np.float_power(1.0 - np.sqrt(t), 2.0),
    **{f"power:{p}": (lambda t, p=p: _float_power(t, p)) for p in (2.0, 0.5, -1.5, 3.7)},
}


@pytest.mark.parametrize("name", list(_NUMPY_PATHS))
def test_float_argument_gives_the_numpy_bits_and_errors(name):
    """On a finite positive float, bits and overflow errors match numpy's."""
    fn = make_generator(parse_function_spec(name, domain=(1e-300, 1e300))).fn
    reference = _NUMPY_PATHS[name]
    for t in _positive_floats(3000, seed=11):
        assert _bits_or_error(fn, t) == _bits_or_error(reference, t), t
    if name == "power:-1.5":  # a subnormal base overflows on both paths
        assert _bits_or_error(fn, 5e-324) == ("OverflowError", (34, "Numerical result out of range"))


def test_equal_fixed_specs_share_one_model():
    first, second = (make_generator(GeneratorSpec("kl", domain=(0.5, 2.0))) for _ in range(2))
    assert first.fn is second.fn and first.deriv_fn is second.deriv_fn
    assert first == second


def test_other_arguments_keep_the_numpy_path():
    hellinger = make_generator(GeneratorSpec("hellinger")).fn
    assert type(hellinger(np.float64(2.0))) is np.float64
    assert type(hellinger(0.0)) is np.float64 and hellinger(0.0) == 0.5
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(hellinger(-1.0))
    assert math.isnan(hellinger(math.nan)) and hellinger(math.inf) == math.inf

    def power(p):
        return make_generator(GeneratorSpec("power", exponent=p)).fn

    with pytest.raises(OverflowError):  # where 0.0 ** -1.5 raises ZeroDivisionError
        power(-1.5)(0.0)
    assert math.isnan(power(0.5)(-2.0))  # where (-2.0) ** 0.5 is complex
    with pytest.raises(ValueError, match="power exponent must be finite, got inf"):
        power(math.inf)
    assert type(power(2.0)(np.float64(3.0))) is np.float64
