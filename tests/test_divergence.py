"""f-divergence values, conventions at zero entries, and delegated bounds."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    ProbabilityVector,
    RatioRange,
    divergence_bounds,
    f_divergence,
    make_generator,
    ratio_range,
)
from elrbounds.bounds import bound
from elrbounds.functional import DiscreteFunctional

from conftest import assert_close, direct_sides


def _gen(name, domain=(0.25, 3.0), **kw):
    return make_generator(GeneratorSpec(name, domain=domain, **kw))


P = ProbabilityVector((0.5, 0.5))
Q = ProbabilityVector((0.25, 0.75))


# --- values ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["kl", "hellinger", "jeffreys"])
def test_identical_distributions_give_zero(name):
    p = ProbabilityVector((0.2, 0.3, 0.5))
    assert abs(f_divergence(_gen(name), p, p)) <= 1e-12


def test_hellinger_worked_value():
    # Oracle: one half of the squared difference of square roots.
    expected = 0.5 * sum(
        (math.sqrt(q) - math.sqrt(p)) ** 2 for p, q in zip(P.values, Q.values)
    )
    assert expected == pytest.approx(0.03407417, abs=1e-8)
    assert f_divergence(_gen("hellinger"), P, Q) == pytest.approx(expected, abs=1e-14)


def test_kl_generator_worked_value():
    # With f(t) = t log t the weighted sum telescopes to sum p_i log(p_i/q_i).
    expected = sum(p * math.log(p / q) for p, q in zip(P.values, Q.values))
    assert expected == pytest.approx(0.1438410, abs=1e-6)
    assert f_divergence(_gen("kl"), P, Q) == pytest.approx(expected, abs=1e-14)


def test_nonnegativity_for_vanishing_at_one_generators():
    rng = np.random.default_rng(17)
    for name in ("kl", "hellinger", "jeffreys"):
        f = _gen(name, domain=(0.05, 25.0))
        for _ in range(25):
            r = int(rng.integers(2, 9))
            p = ProbabilityVector(tuple(float(x) for x in rng.dirichlet(np.ones(r))))
            q = ProbabilityVector(tuple(float(x) for x in rng.dirichlet(np.ones(r))))
            assert f_divergence(f, p, q) >= -1e-12


# --- zero-entry conventions ----------------------------------------------------


def test_both_zero_contributes_nothing():
    p = ProbabilityVector((0.0, 1.0))
    q = ProbabilityVector((0.0, 1.0))
    assert f_divergence(_gen("hellinger"), p, q) == pytest.approx(0.0, abs=1e-15)


def test_q_zero_uses_slope_at_infinity():
    p = ProbabilityVector((0.3, 0.7))
    q = ProbabilityVector((0.0, 1.0))
    f = _gen("hellinger")
    expected = 0.3 * 0.5 + 1.0 * float(f(0.7))
    assert f_divergence(f, p, q) == pytest.approx(expected, abs=1e-14)
    assert f_divergence(_gen("kl"), p, q) == math.inf


def test_q_zero_without_declared_slope_is_an_error():
    bare = FunctionModel(fn=lambda t: t * t, deriv_fn=lambda k, t: 0.0, domain=(0.0, 2.0))
    p = ProbabilityVector((0.3, 0.7))
    q = ProbabilityVector((0.0, 1.0))
    with pytest.raises(ValueError, match="slope-at-infinity"):
        f_divergence(bare, p, q)


def test_p_zero_uses_zero_limit():
    p = ProbabilityVector((0.0, 1.0))
    q = ProbabilityVector((0.4, 0.6))
    # kl: t log t -> 0 as t -> 0+, so only the second entry contributes.
    f = _gen("kl")
    expected = 0.6 * float(f(1.0 / 0.6))
    assert f_divergence(f, p, q) == pytest.approx(expected, abs=1e-14)
    assert f_divergence(_gen("jeffreys"), p, q) == math.inf


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="entries"):
        f_divergence(_gen("kl"), P, ProbabilityVector((1.0,)))


def _loop_f_divergence(f, p, q):
    """`f_divergence` as the per-entry loop it was: the reference of the array pass."""
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


def _divergence_outcome(call, f, p, q):
    """The value as float.hex, or the error's type and text."""
    try:
        value = call(f, p, q)
    except Exception as exc:  # every error is an outcome, warnings raised as errors too
        return type(exc).__name__, str(exc)
    assert type(value) is float
    return value.hex()


def _plain_t_log_t(t):
    with np.errstate(divide="ignore", invalid="ignore"):  # nan at 0, as no declared limit says
        return t * np.log(t)


_DIVERGENCE_MODELS = {
    **{name: _gen(name) for name in ("kl", "hellinger", "harmonic", "jeffreys", "exp")},
    "poly": _gen("poly", coeffs=(1.0, -2.0, 0.5, 0.25)),
    "power": _gen("power", exponent=2.5),
    # No declared limits: p_i = 0 reads f(0.0), nan here, and a scalar-only math.log raises there.
    "plain": FunctionModel(fn=_plain_t_log_t, deriv_fn=lambda k, t: 0.0, domain=(0.5, 2.0), name="plain"),
    "plain_scalar": FunctionModel(fn=math.log, deriv_fn=lambda k, t: 0.0, domain=(0.5, 2.0), name="scalar"),
}


def _planted_pairs(seed=2030):
    """Dirichlet pairs, K from 1 to 300, plain and with zeros planted in p, in q, in
    both at the same entries, and in all three ways at once."""
    rng = np.random.default_rng(seed)
    sizes = sorted({1, 2, 3, 300, *rng.integers(4, 300, 16).tolist()})
    for K in sizes:
        for plant in ("none", "p", "q", "both", "all"):
            conc = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
            p, q = rng.dirichlet(np.full(K, conc)), rng.dirichlet(np.full(K, conc))
            if K > 3 and plant != "none":
                zeros = rng.permutation(K)[: int(rng.integers(3, K // 2 + 2))]
                third = len(zeros) // 3
                in_p, in_q = {"p": (zeros, zeros[:0]), "q": (zeros[:0], zeros), "both": (zeros, zeros),
                              "all": (zeros[:2 * third], zeros[third:])}[plant]
                p[in_p], q[in_q] = 0.0, 0.0
            elif plant != "none":
                continue
            p, q = p / math.fsum(p), q / math.fsum(q)
            if all(np.isfinite(v).all() and abs(math.fsum(v) - 1.0) <= 1e-12 for v in (p, q)):
                yield ProbabilityVector(p), ProbabilityVector(q)


@pytest.mark.parametrize("name", list(_DIVERGENCE_MODELS))
def test_f_divergence_is_the_per_entry_loop_bit_for_bit(name):
    # One array pass, the loop's value, or its error's type and text, on every pair.
    f, pairs = _DIVERGENCE_MODELS[name], list(_planted_pairs())
    assert len(pairs) > 60 and all(any((v._v == 0.0).any() for v in side) for side in zip(*pairs))
    outcomes = [(_divergence_outcome(f_divergence, f, p, q), _divergence_outcome(_loop_f_divergence, f, p, q))
                for p, q in pairs]
    for (p, q), (got, want) in zip(pairs, outcomes):
        assert got == want, (len(p), got, want)
    if name.startswith("plain"):  # each convention without a declared limit gives the loop's error
        texts = " ".join(got[1] for got, _ in outcomes if isinstance(got, tuple))
        assert "slope-at-infinity" in texts and ("0+ limit" if name == "plain" else "math domain error") in texts


@pytest.mark.parametrize("name", list(_DIVERGENCE_MODELS)[:4])
def test_f_divergence_of_20000_point_zm_pairs_is_the_per_entry_loop(name):
    from elrbounds import ZipfMandelbrotParams, pmf_vector

    P, Q = (pmf_vector(ZipfMandelbrotParams(20_000, shift, s)) for shift, s in ((1.3, 1.1), (0.4, 1.7)))
    f = _DIVERGENCE_MODELS[name]
    for p, q in ((P, Q), (Q, P)):
        got = f_divergence(f, p, q)
        assert got.hex() == _loop_f_divergence(f, p, q).hex()


def test_probability_vector_validation():
    with pytest.raises(ValueError, match="outside"):
        ProbabilityVector((1.2, -0.2))
    with pytest.raises(ValueError, match="sum"):
        ProbabilityVector((0.5, 0.4))
    with pytest.raises(ValueError, match="empty"):
        ProbabilityVector(())


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize(
    "first,second,text",
    [(-0.25, 1.5, "-0.25"), (1.5, float("nan"), "1.5"), (float("nan"), -0.25, "nan")],
)
def test_first_entry_outside_unit_interval_is_reported(N, first, second, text):
    i, j = N // 3, N - 2
    values = [1.0 / N] * N
    values[i], values[j] = first, second
    with pytest.raises(ValueError, match=rf"^values\[{i}\] = {text} outside \[0, 1\]$"):
        ProbabilityVector(values)


def test_tuple_list_and_array_inputs_build_equal_vectors():
    values = (0.2, 0.5, 0.3)
    built = [ProbabilityVector(make(values)) for make in (tuple, list, np.array)]
    assert built[0] == built[1] == built[2] == ProbabilityVector(iter(values))
    assert all(type(v.values) is tuple for v in built)
    assert all(type(x) is float for v in built for x in v.values)


# --- ratio ranges -----------------------------------------------------------------


def test_ratio_range_worked_value():
    rr = ratio_range(P, Q)
    assert rr.a == pytest.approx(2.0 / 3.0)
    assert rr.b == pytest.approx(2.0)
    assert rr.a < rr.b


def test_ratio_range_degenerate_for_identical_distributions():
    rr = ratio_range(P, P)
    assert rr.a == rr.b == 1.0
    assert not rr.a < rr.b


def test_ratio_range_requires_positive_q():
    with pytest.raises(ValueError, match="positive"):
        ratio_range(P, ProbabilityVector((0.0, 1.0)))
    for N in (10, 100):
        i, j = N // 3, N - 2
        q = [1.0 / (N - 2)] * N
        q[i] = q[j] = 0.0
        p = ProbabilityVector([1.0 / N] * N)
        message = rf"^entry {i}: q_i = 0.0 must be positive for ratio bounds$"
        with pytest.raises(ValueError, match=message):
            ratio_range(p, ProbabilityVector(q))
        with pytest.raises(ValueError, match=message):
            divergence_bounds(GeneratorSpec("kl"), p, ProbabilityVector(q), n=3, theorem="tm23")


def test_ratio_range_must_straddle_one():
    with pytest.raises(ValueError, match="straddle"):
        RatioRange(1.5, 2.0)


# --- divergence bounds ---------------------------------------------------------------


def test_constructed_functional_mean_is_one():
    from elrbounds import DiscreteFunctional

    rng = np.random.default_rng(3)
    for _ in range(20):
        r = int(rng.integers(2, 10))
        p = tuple(float(x) for x in rng.dirichlet(np.ones(r)))
        q = tuple(float(x) for x in rng.dirichlet(np.ones(r)))
        ratios = tuple(pi / qi for pi, qi in zip(p, q))
        A = DiscreteFunctional(ratios, q, (min(ratios) - 1e-9, max(ratios) + 1e-9))
        assert A.mean == pytest.approx(1.0, abs=1e-12)


def test_worked_bracket_for_cube_generator():
    # Two-point distributions sit exactly on the interval endpoints, so the
    # chord gap is zero and the bracket must straddle zero: its sides are
    # zero too, so the gate cannot tell them from lr and refuses the report.
    f = _gen("poly", domain=(2.0 / 3.0, 2.0), coeffs=(0, 0, 0, 1))
    A = DiscreteFunctional((2.0, 2.0 / 3.0), Q.values, (2.0 / 3.0, 2.0))
    rep = bound("tm23", f, A, 3, None, CONVEX)
    assert rep.lr == pytest.approx(0.0, abs=1e-12)
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12
    # lr is the divergence minus the chord of f at 1.
    a, b = 2.0 / 3.0, 2.0
    chord_at_one = ((b - 1.0) * float(f(a)) + (1.0 - a) * float(f(b))) / (b - a)
    assert rep.lr == pytest.approx(f_divergence(f, P, Q) - chord_at_one, abs=1e-12)
    with pytest.raises(RuntimeError, match="TM23 lower: within rounding of lr"):
        divergence_bounds(f, P, Q, n=3, theorem="tm23", convexity=CONVEX)


def test_three_point_bracket_contains_lr():
    p = ProbabilityVector((0.2, 0.5, 0.3))
    q = ProbabilityVector((0.4, 0.3, 0.3))
    rr = ratio_range(p, q)
    f = _gen("poly", domain=(rr.a, rr.b), coeffs=(0, 0, 0, 1))
    rep = divergence_bounds(f, p, q, n=3, theorem="tm23", convexity=CONVEX)
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12
    assert rep.lr < -1e-3  # strictly inside, not the degenerate two-point case
    expected_lr = f_divergence(f, p, q) - (
        (rr.b - 1.0) * float(f(rr.a)) + (1.0 - rr.a) * float(f(rr.b))
    ) / (rr.b - rr.a)
    assert rep.lr == pytest.approx(expected_lr, abs=1e-12)


def test_jeffreys_bracket_via_certified_concavity():
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    rr = ratio_range(p, q)
    f = _gen("jeffreys", domain=(rr.a, rr.b))
    rep = divergence_bounds(f, p, q, n=3, theorem="tm24", convexity=CONCAVE)
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_widened_interval_with_identical_distributions():
    # A linear f has every side equal to lr = 0 exactly: within rounding, so refused.
    f = _gen("poly", domain=(0.5, 1.5), coeffs=(1.0, 2.0))
    rep = bound("tm23", f, DiscreteFunctional((1.0, 1.0), P.values, (0.5, 1.5)), 3, None, CONVEX)
    assert (rep.lr, rep.lower, rep.upper) == (0.0, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="TM23 lower: within rounding of lr"):
        divergence_bounds(f, P, P, n=3, theorem="tm23", convexity=CONVEX, interval=(0.5, 1.5))


def test_degenerate_interval_rejected():
    f = _gen("kl")
    with pytest.raises(ValueError, match="degenerate"):
        divergence_bounds(f, P, P, n=3, theorem="tm23", convexity=CONCAVE)


def test_interval_must_cover_ratio_range():
    f = _gen("kl")
    with pytest.raises(ValueError, match="does not contain"):
        divergence_bounds(
            f, P, Q, n=3, theorem="tm23", convexity=CONCAVE, interval=(0.9, 2.5)
        )


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError, match="theorem"):
        divergence_bounds(_gen("kl"), P, Q, n=3, theorem="tm99", convexity=CONVEX)


# --- delegation vs direct formulas -----------------------------------------------


@pytest.mark.parametrize(
    "theorem,n,m",
    [("tm21", 5, 3), ("tm21", 6, 4), ("tm22", 5, 3), ("cor21", 5, 3),
     ("cor21", 7, 4), ("tm23", 4, None), ("tm23", 7, None), ("tm24", 6, None)],
)
def test_direct_formulas_match_delegation(theorem, n, m):
    # The sides from the probability-sum moments (`conftest.direct_sides`) are
    # the delegated report's, each class alike; the gate returns the report
    # whole or refuses it.
    rng = np.random.default_rng(hash((theorem, n, m)) % 2**32)
    for name in ("kl", "hellinger", "harmonic", "jeffreys"):
        r = int(rng.integers(2, 12))
        q = tuple(float(x) for x in rng.dirichlet(np.ones(r) * 3.0))
        x = rng.uniform(0.5, 2.0, size=r)
        p_raw = np.array(q) * x
        p = ProbabilityVector(tuple(float(v) for v in p_raw / p_raw.sum()))
        qv = ProbabilityVector(q)
        rr = ratio_range(p, qv)
        f = _gen(name, domain=(rr.a, rr.b))
        A = DiscreteFunctional(tuple(pi / qi for pi, qi in zip(p.values, q)), q, (rr.a, rr.b))
        for convexity in (CONVEX, CONCAVE):
            rep = bound(theorem, f, A, n, m, convexity)
            direct = direct_sides(f, p, qv, rr.a, rr.b, n, theorem, m, convexity)
            for got, want in zip((rep.lower, rep.upper), direct):
                assert (got is None) == (want is None)
                if got is not None:
                    assert abs(got - want) <= 1e-12
            try:
                assert divergence_bounds(f, p, qv, n=n, m=m, theorem=theorem, convexity=convexity) == rep
            except RuntimeError as refusal:
                assert re.fullmatch(rf"{theorem.upper()} (lower|upper): (within rounding of|contradicted by) lr",
                                    str(refusal))


def test_missing_m_is_a_validation_error():
    f = _gen("kl")
    for theorem in ("tm21", "tm22", "cor21"):
        with pytest.raises(ValueError, match="m >= 3"):
            divergence_bounds(f, P, Q, n=5, theorem=theorem, convexity=CONCAVE)


def test_direct_route_rejects_out_of_range_m():
    # The probability-sum transcription of the tests (`direct_sides`) and the library alike.
    rr = ratio_range(P, Q)
    f = _gen("kl", domain=(rr.a, rr.b))
    with pytest.raises(ValueError, match="m must be"):
        direct_sides(f, P, Q, rr.a, rr.b, 5, "TM21", 7)
    with pytest.raises(ValueError, match="m must be"):
        divergence_bounds(f, P, Q, n=5, m=7, theorem="tm21", convexity=CONCAVE)


def _table_pair(fallback=False):
    """ZM pmfs of 2 * `_TABLE_MIN_POINTS` entries, above the power-table gate.

    With `fallback`, p_0 and q_0 are near underflow, so a moment's powers of
    q_0 leave the normal range.
    """
    from elrbounds import ZipfMandelbrotParams, pmf_vector
    from elrbounds.functional import _TABLE_MIN_POINTS

    N = 2 * _TABLE_MIN_POINTS
    p = pmf_vector(ZipfMandelbrotParams(N, 1.0, 1.2))
    q = pmf_vector(ZipfMandelbrotParams(N, 2.0, 1.5))
    if not fallback:
        return p, q
    p, q = p._v.copy(), q._v.copy()
    p[0], q[0] = 3e-300, 1e-300
    return ProbabilityVector(p / math.fsum(p)), ProbabilityVector(q / math.fsum(q))


@pytest.mark.parametrize("fallback", [False, True], ids=["chains", "fallback"])
@pytest.mark.parametrize(
    "theorem,n,m,sides", [("tm21", 5, 3, 1), ("tm23", 5, None, 2), ("cor21", 5, 3, 2)],
)
def test_one_endpoint_table_per_side_on_the_table_path(monkeypatch, theorem, n, m, sides, fallback):
    from elrbounds import bounds

    p, q = _table_pair(fallback)
    calls, honest_table = [], bounds.endpoint_table

    def counted(*args):
        calls.append(args[1:])
        return honest_table(*args)

    monkeypatch.setattr(bounds, "endpoint_table", counted)
    divergence_bounds(GeneratorSpec("kl"), p, q, n=n, m=m, theorem=theorem)
    assert len(calls) == len(set(calls)) == sides


@pytest.mark.parametrize(
    "theorem,n,m,sides", [("tm21", 5, 3, 1), ("tm22", 6, 4, 1), ("tm23", 5, None, 2),
                          ("tm24", 6, None, 2), ("cor21", 5, 3, 2)],
)
def test_both_routes_share_one_endpoint_table_per_side(monkeypatch, theorem, n, m, sides):
    # The report and its certificate: the gate reads each side's table, moments and
    # f values where `bound` left them, and builds no table of its own.
    from elrbounds import bounds

    calls, gated = [], []
    honest_table, honest_side = bounds.endpoint_table, bounds._side_error

    def counted(*args):
        calls.append(honest_table(*args))
        return calls[-1]

    def recorded(f, A, x, y, n, m, T, *rest):
        gated.append(T)
        return honest_side(f, A, x, y, n, m, T, *rest)

    monkeypatch.setattr(bounds, "endpoint_table", counted)
    monkeypatch.setattr(bounds, "_side_error", recorded)
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    divergence_bounds(GeneratorSpec("kl"), p, q, n=n, m=m, theorem=theorem)
    assert len(calls) == sides and [id(T) for T in gated] == [id(T) for T in calls]


def test_direct_route_survives_an_underflowing_moment_denominator():
    # q_1^11 underflows to 0.0: a probability-sum moment once divided by it.  The
    # op reaches the gate, where the point of weight 1e-45 leaves lr and the upper
    # side within rounding of 0.
    p = ProbabilityVector((1e-45, 0.4, 0.6 - 1e-45))
    q = ProbabilityVector((1e-45, 0.5 - 1e-45, 0.5))
    with pytest.raises(RuntimeError, match="TM21 upper: within rounding of lr"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=12, m=11, theorem="tm21")
    report = bound("tm21", make_generator(GeneratorSpec("kl", domain=(0.8, 1.2))),
                   DiscreteFunctional((1.0, 0.8, 1.2), q.values, (0.8, 1.2)), 12, 11, CONVEX)
    assert report.lower is None and math.isfinite(report.upper)


def test_near_node_ratios_reach_the_bound():
    # Ratios 1e-17 and 1e-14 are distinct but closer than 1e-13 relative: a
    # remainder over them has no table, but the bound never forms one.
    p = ProbabilityVector((3e-18, 3e-15, 1 - 3e-18 - 3e-15))
    q = ProbabilityVector((0.3, 0.3, 0.4))
    report = divergence_bounds(GeneratorSpec("hellinger"), p, q, n=5, theorem="TM24")
    assert report.direction_valid
    assert report.lower <= report.lr <= report.upper
