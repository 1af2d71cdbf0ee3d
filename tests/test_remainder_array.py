"""The array form of remainder_R against the scalar call, bit for bit.

`remainder_R(f, a, b, m, n, t)` with a 1-D float64 array t returns element i
as the scalar call at t[i] would, compared here through `float.hex`: over
every built-in generator and a polynomial model, whose functions take the
point array in one call, and a scalar-only model whose function rejects it;
with either endpoint order, points on the endpoints and points outside
[a, b].  Errors are the first failing scalar call's, type and text.  The
decompositions evaluate their remainder with one such call, so the identity
audit builds no node multiset; a count guard pins that.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    BUILTIN_NAMES,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    decompose_lemma21,
    decompose_lemma22,
    make_generator,
    remainder_R,
)
from elrbounds.oracle import AuditConfig, audit_identities

DOMAIN = (0.2, 3.0)
SPECS = {
    "poly": {"coeffs": (1.0, -2.0, 0.5, 3.0, -0.25)},
    "power": {"exponent": 2.7},
}


def _sine(domain):
    """sin + 2 with its derivative stack, on math functions that reject arrays."""
    return FunctionModel(
        fn=lambda t: math.sin(t) + 2.0,
        deriv_fn=lambda k, t: math.sin(t + k * math.pi / 2),
        domain=domain,
        name="sine",
    )


MODELS = {
    **{name: make_generator(GeneratorSpec(name, domain=DOMAIN, **SPECS.get(name, {}))) for name in BUILTIN_NAMES},
    "from_polynomial": FunctionModel.from_polynomial((0.5, -1.0, 0.0, 2.0, 0.125, -0.75), DOMAIN),
    "scalar_only": _sine(DOMAIN),
}


def _outcome(call):
    """('ok', hex of each value) or (exception type, text)."""
    try:
        values = call()
    except Exception as exc:  # any error: both paths must raise the same one
        return type(exc).__name__, str(exc)
    return "ok", [float(v).hex() for v in values]


def _scalar(f, a, b, m, n, t):
    return _outcome(lambda: [remainder_R(f, a, b, m, n, s) for s in t.tolist()])


def _array(f, a, b, m, n, t):
    def call():
        out = remainder_R(f, a, b, m, n, t)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == t.shape
        return out.tolist()

    return _outcome(call)


def test_models_cover_both_function_paths():
    x = np.linspace(*DOMAIN, 9)
    for name in (*BUILTIN_NAMES, "from_polynomial"):
        y = MODELS[name](x)
        assert isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == x.shape
        assert [v.hex() for v in y.tolist()] == [float(MODELS[name](t)).hex() for t in x.tolist()]
    with pytest.raises(TypeError):
        MODELS["scalar_only"](np.array([1.0, 2.0]))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(MODELS)),
    n=st.integers(2, 12),
    m_frac=st.floats(0.0, 1.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda e: abs(e[0] - e[1]) > 0.05),
    flip=st.booleans(),
    inner=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=10),
    on_ends=st.lists(st.booleans(), max_size=3),
    outer=st.lists(st.floats(0.0, 1.0), max_size=2),
)
def test_array_remainder_is_the_scalar_call_bit_for_bit(name, n, m_frac, ends, flip, inner, on_ends, outer):
    f = MODELS[name]
    lo, hi = DOMAIN
    u, v = sorted(lo + (hi - lo) * e for e in ends)
    m = 1 + min(n - 2, int(m_frac * (n - 1)))
    a, b = (v, u) if flip else (u, v)
    points = [u + (v - u) * s for s in inner]
    points += [a if at_a else b for at_a in on_ends]
    # Outside [u, v] but inside the domain, on either side when there is room.
    points += [lo + (u - lo) * s if k % 2 else v + (hi - v) * s for k, s in enumerate(outer)]
    t = np.array(points, dtype=float)
    assert _array(f, a, b, m, n, t) == _scalar(f, a, b, m, n, t)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("flip", [False, True])
def test_every_order_pair_on_a_grid(name, flip):
    f = MODELS[name]
    u, v = 0.35, 2.6
    a, b = (v, u) if flip else (u, v)
    t = np.concatenate([np.linspace(u, v, 9), [0.25, 2.9]])
    for n in range(2, 13):
        for m in range(1, n):
            expected = _scalar(f, a, b, m, n, t)
            assert expected[0] == "ok"
            assert _array(f, a, b, m, n, t) == expected, (n, m)


@pytest.mark.parametrize("near", ["a", "b"])
def test_point_too_near_an_endpoint_raises_the_scalar_error(near):
    f = MODELS["exp"]
    a, b, m, n = 0.5, 2.0, 3, 5
    t = np.array([1.0, 0.5 + 5e-14 if near == "a" else 2.0 - 5e-14, 1.5, 0.5 + 1e-14])
    expected = _scalar(f, a, b, m, n, t)
    assert expected[0] == "ValueError" and "closer than" in expected[1]
    assert _array(f, a, b, m, n, t) == expected
    assert _array(f, b, a, m, n, t) == _scalar(f, b, a, m, n, t)


def test_overflowing_prefactor_raises_the_scalar_error():
    f = FunctionModel.from_polynomial((1.0, 2.0), (0.0, 1e30))
    a, b, m, n = 0.0, 1e30, 1, 12
    # The first point's (t - b)^11 is finite; the second one's overflows.
    t = np.array([1e30 - 1e27, 1.0, 2.0])
    expected = _scalar(f, a, b, m, n, t)
    assert expected == ("OverflowError", "(34, 'Numerical result out of range')")
    assert _array(f, a, b, m, n, t) == expected


def test_a_non_finite_f_value_takes_the_scalar_calls():
    # The array pass's result is then not finite, so every point takes the
    # scalar call, with its value (NaN here) or its error (1/0 on a float).
    def deriv(k, t):
        return 2.0 * t if k == 1 else 2.0 if k == 2 else 0.0

    nan_at_1 = FunctionModel(
        fn=lambda t: np.where(t == 1.0, np.nan, t * t), deriv_fn=deriv, domain=DOMAIN)
    pole_at_1 = FunctionModel(
        fn=lambda t: 1.0 / (t - 1.0),
        deriv_fn=lambda k, t: (-1.0) ** k * math.factorial(k) / (t - 1.0) ** (k + 1),
        domain=DOMAIN)
    t = np.array([0.75, 1.0, 1.5])
    for a, b in ((0.5, 2.0), (2.0, 0.5)):
        expected = _scalar(nan_at_1, a, b, 2, 5, t)
        assert expected[0] == "ok" and expected[1][1] == "nan" and "nan" not in expected[1][::2]
        assert _array(nan_at_1, a, b, 2, 5, t) == expected
        expected = _scalar(pole_at_1, a, b, 2, 5, t)
        assert expected == ("ZeroDivisionError", "float division by zero")
        assert _array(pole_at_1, a, b, 2, 5, t) == expected


def test_scalar_t_keeps_the_scalar_path():
    f = MODELS["exp"]
    value = remainder_R(f, 0.5, 2.0, 2, 5, np.float64(1.25))
    assert type(value) is float
    assert value.hex() == remainder_R(f, 0.5, 2.0, 2, 5, 1.25).hex()
    assert remainder_R(f, 0.5, 2.0, 2, 5, np.array([])).shape == (0,)


# --- the decompositions -------------------------------------------------------------


def _functional(rng, interval, size):
    points = rng.uniform(*interval, size=size)
    points[: size // 4] = interval[0]  # some points on the endpoints
    return DiscreteFunctional(tuple(points), tuple(rng.dirichlet(np.ones(size))), interval)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_decomposition_remainder_is_the_point_by_point_sum(name):
    f = MODELS[name]
    rng = np.random.default_rng(sorted(MODELS).index(name))
    for n in range(2, 10):
        m = int(rng.integers(1, n))
        A = _functional(rng, (0.4, 2.7), int(rng.integers(1, 30)))
        a, b = A.interval
        for decompose, (x, y) in ((decompose_lemma21, (a, b)), (decompose_lemma22, (b, a))):
            per_point = A.apply(lambda t: remainder_R(f, x, y, m, n, t))
            assert decompose(f, A, n, m)[1].hex() == per_point.hex()


def test_identity_audit_calls_the_remainder_once_per_decomposition(monkeypatch):
    # A later change that goes back to one remainder call (and one node
    # multiset) per point fails here.
    from elrbounds import bounds, divided_diff

    calls = []
    honest = divided_diff.remainder_R

    def counting(f, a, b, m, n, t, **private):
        calls.append(type(t))
        return honest(f, a, b, m, n, t, **private)

    monkeypatch.setattr(bounds, "remainder_R", counting)
    monkeypatch.setattr(divided_diff, "remainder_R", counting)
    built = []
    post_init = divided_diff.NodeMultiset.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(divided_diff.NodeMultiset, "__post_init__", counting_post_init)
    report = audit_identities(AuditConfig(cases=20, seed=3))
    assert not report.failures
    assert report.cases - report.skipped > 0
    assert len(calls) == 2 * (report.cases - report.skipped)
    assert set(calls) == {np.ndarray}
    assert built == []


def test_each_decomposition_builds_its_endpoint_table_once(monkeypatch):
    # The terms and the remainder pass share one table; a change that builds
    # it again for the remainder fails here.
    from elrbounds import bounds, divided_diff

    calls = []
    honest = divided_diff.endpoint_table

    def counting(*args):
        calls.append(args[1:])
        return honest(*args)

    monkeypatch.setattr(bounds, "endpoint_table", counting)
    monkeypatch.setattr(divided_diff, "endpoint_table", counting)
    f = MODELS["kl"]
    A = DiscreteFunctional(np.linspace(0.3, 2.9, 40), np.full(40, 1 / 40), DOMAIN)
    for decompose, x, y in ((decompose_lemma21, *DOMAIN), (decompose_lemma22, *DOMAIN[::-1])):
        for n, m in ((3, 1), (5, 2), (7, 4)):
            calls.clear()
            decompose(f, A, n, m)
            assert calls == [(x, y, m, n - m)]
    calls.clear()
    report = audit_identities(AuditConfig(cases=20, seed=3))
    assert not report.failures and report.cases - report.skipped > 0
    assert len(calls) == 2 * (report.cases - report.skipped)
