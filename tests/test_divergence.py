"""f-divergence values, conventions at zero entries, and delegated bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    FunctionModel,
    GeneratorSpec,
    ProbabilityVector,
    RatioRange,
    direct_bound_values,
    divergence_bounds,
    f_divergence,
    make_generator,
    ratio_range,
)

from conftest import assert_close


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
    assert not rr.is_degenerate


def test_ratio_range_degenerate_for_identical_distributions():
    rr = ratio_range(P, P)
    assert rr.a == rr.b == 1.0
    assert rr.is_degenerate


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
    # chord gap is zero and the bracket must straddle zero.
    f = _gen("poly", domain=(2.0 / 3.0, 2.0), coeffs=(0, 0, 0, 1))
    rep = divergence_bounds(f, P, Q, n=3, theorem="tm23", convexity=CONVEX)
    assert rep.lr == pytest.approx(0.0, abs=1e-12)
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12
    # lr is the divergence minus the chord of f at 1.
    a, b = 2.0 / 3.0, 2.0
    chord_at_one = ((b - 1.0) * float(f(a)) + (1.0 - a) * float(f(b))) / (b - a)
    assert rep.lr == pytest.approx(f_divergence(f, P, Q) - chord_at_one, abs=1e-12)


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
    rr = ratio_range(P, Q)
    f = _gen("jeffreys", domain=(rr.a, rr.b))
    rep = divergence_bounds(f, P, Q, n=3, theorem="tm24", convexity=CONCAVE)
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_widened_interval_with_identical_distributions():
    f = _gen("poly", domain=(0.5, 1.5), coeffs=(1.0, 2.0))  # linear: every bound is exact
    rep = divergence_bounds(
        f, P, P, n=3, theorem="tm23", convexity=CONVEX, interval=(0.5, 1.5)
    )
    assert rep.lr == pytest.approx(0.0, abs=1e-12)
    assert rep.lower == pytest.approx(rep.lr, abs=1e-12)
    assert rep.upper == pytest.approx(rep.lr, abs=1e-12)


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
        for convexity in (CONVEX, CONCAVE):
            rep = divergence_bounds(
                f, p, qv, n=n, m=m, theorem=theorem, convexity=convexity
            )
            direct = direct_bound_values(
                f, p, qv, rr.a, rr.b, n=n, m=m, theorem=theorem.upper(), convexity=convexity
            )
            for got, want in zip((rep.lower, rep.upper), direct):
                assert (got is None) == (want is None)
                if got is not None:
                    assert abs(got - want) <= 1e-12


def test_missing_m_is_a_validation_error():
    f = _gen("kl")
    for theorem in ("tm21", "tm22", "cor21"):
        with pytest.raises(ValueError, match="m >= 3"):
            divergence_bounds(f, P, Q, n=5, theorem=theorem, convexity=CONCAVE)


def test_direct_route_rejects_out_of_range_m():
    rr = ratio_range(P, Q)
    f = _gen("kl", domain=(rr.a, rr.b))
    with pytest.raises(ValueError, match="m must be"):
        direct_bound_values(f, P, Q, rr.a, rr.b, n=5, theorem="TM21", m=7)
    with pytest.raises(ValueError, match="m must be"):
        divergence_bounds(f, P, Q, n=5, m=7, theorem="tm21", convexity=CONCAVE)


def test_moment_slip_in_direct_route_raises(monkeypatch):
    # Negative control for the crosscheck: one wrong probability-sum moment.
    from elrbounds import divergence

    honest = divergence._pq_moment

    def slipped(p, q, a, b, j, k):
        return honest(p, q, a, b, j, k) * (1.0 + 1e-6 * (j == 1 and k == 1))

    p = ProbabilityVector((0.2, 0.5, 0.3))
    q = ProbabilityVector((0.4, 0.3, 0.3))
    rr = ratio_range(p, q)
    f = _gen("kl", domain=(rr.a, rr.b))
    divergence_bounds(f, p, q, n=4, theorem="tm23", convexity=CONVEX)
    monkeypatch.setattr(divergence, "_pq_moment", slipped)
    with pytest.raises(RuntimeError, match="differ"):
        divergence_bounds(f, p, q, n=4, theorem="tm23", convexity=CONVEX)


def _table_pair(fallback=False):
    """ZM pmfs of 2 * `_TABLE_MIN_POINTS` entries, above the power-table gate.

    With `fallback`, p_0 and q_0 are near underflow, so q_0^d leaves the
    normal range for every d >= 2 and the chain stage cannot decide.
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


def _record_direct_route(monkeypatch):
    """A list that gets one entry per `direct_bound_values` call from the crosscheck."""
    from elrbounds import divergence

    calls, honest = [], divergence.direct_bound_values

    def recorded(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(divergence, "direct_bound_values", recorded)
    return calls


def _slip_reader(monkeypatch, key, eps):
    """Scale moment `key` = (j, k) by 1 + eps in every reader `divergence` builds:
    the chain stage's and, on fallback, `_pq_moments`'."""
    from elrbounds import divergence

    honest = divergence._moment_reader

    def slipped(table, scalar):
        moment = honest(table, scalar)
        return lambda x, y, j, k: moment(x, y, j, k) * (1.0 + eps * ((j, k) == key))

    monkeypatch.setattr(divergence, "_moment_reader", slipped)


def test_moment_slip_in_the_direct_route_table_raises(monkeypatch):
    # The same negative control above the power-table gate, where the chain
    # stage decides the crosscheck from the moments its `_moment_reader` reads.
    from elrbounds import divergence

    p, q = _table_pair()
    direct_calls = _record_direct_route(monkeypatch)
    monkeypatch.setattr(divergence, "_pq_moment", None)  # the table paths never call it
    divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")
    assert direct_calls == []  # decided by the chain stage
    _slip_reader(monkeypatch, (1, 1), 1e-6)
    with pytest.raises(RuntimeError, match="differ"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")


def test_moment_slip_in_the_libm_stage_raises_on_fallback(monkeypatch):
    # The twin: only `_pq_moments` slips, on an input the chain stage hands on.
    from elrbounds import divergence

    p, q = _table_pair(fallback=True)
    honest = divergence._pq_moments

    def slipped(p, q, a, b):
        moment = honest(p, q, a, b)
        return lambda x, y, j, k: moment(x, y, j, k) * (1.0 + 1e-6 * (j == 1 and k == 1))

    direct_calls = _record_direct_route(monkeypatch)
    divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")
    assert len(direct_calls) == 1  # the chain stage fell back
    monkeypatch.setattr(divergence, "_pq_moments", slipped)
    with pytest.raises(RuntimeError, match="differ"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")


def test_a_side_the_chains_do_not_fix_goes_to_the_libm_route(monkeypatch):
    # A constant f has every divided difference of order 1 or more exactly
    # 0.0, so both TM23 sides are 0.0, inside any error bound: the chains
    # cannot fix them and the libm route decides.
    from elrbounds import FunctionModel, ratio_range

    p, q = _table_pair()
    rr = ratio_range(p, q)
    f = FunctionModel.from_polynomial((1.0,), (rr.a, rr.b))
    direct_calls = _record_direct_route(monkeypatch)
    report = divergence_bounds(f, p, q, n=4, theorem="tm23", convexity=CONVEX)
    assert (report.lower, report.upper) == (0.0, 0.0)
    assert len(direct_calls) == 1


def test_the_chain_arrays_are_freed_before_the_fallback_runs(monkeypatch):
    # Peak memory: at most one power table per crosscheck is alive, so the
    # chains are gone (without the cycle collector) when the libm route starts.
    import gc
    import weakref

    from elrbounds import divergence

    p, q = _table_pair(fallback=True)
    chains, alive_at_fallback = [], []
    honest_chain, honest_direct = divergence._chain_table, divergence.direct_bound_values

    def tracked(base):
        power = honest_chain(base)
        chains.append(weakref.ref(power))
        return power

    def direct(*args, **kwargs):
        alive_at_fallback.append(sum(ref() is not None for ref in chains))
        return honest_direct(*args, **kwargs)

    monkeypatch.setattr(divergence, "_chain_table", tracked)
    monkeypatch.setattr(divergence, "direct_bound_values", direct)
    gc.disable()
    try:
        divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")
    finally:
        gc.enable()
    assert len(chains) == 3 and alive_at_fallback == [0]


@pytest.mark.parametrize("theorem,m", [("TM21", 3), ("TM23", None), ("TM24", None), ("COR21", 3)])
def test_a_1e_9_slip_in_any_moment_of_a_20000_point_pair_raises(monkeypatch, theorem, m):
    # The library golden's ZM pair: each moment the crosscheck reads, slipped
    # alone by 1e-9 relative, must still be refused.
    from elrbounds import ZipfMandelbrotParams, divergence, zm_divergence_bounds

    P, Q = ZipfMandelbrotParams(20_000, 1.0, 1.1), ZipfMandelbrotParams(20_000, 2.5, 1.3)
    read, honest = set(), divergence._moment_reader

    def recording(table, scalar):
        moment = honest(table, scalar)
        return lambda *key: read.add(key[2:]) or moment(*key)

    with monkeypatch.context() as mp:
        mp.setattr(divergence, "_moment_reader", recording)
        zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=5, m=m, theorem=theorem)
    assert read
    for key in sorted(read):
        with monkeypatch.context() as mp:
            _slip_reader(mp, key, 1e-9)
            with pytest.raises(RuntimeError, match="differ"):
                zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=5, m=m, theorem=theorem)


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
    direct_calls = _record_direct_route(monkeypatch)
    divergence_bounds(GeneratorSpec("kl"), p, q, n=n, m=m, theorem=theorem)
    assert len(direct_calls) == fallback
    assert len(calls) == len(set(calls)) == sides


@pytest.mark.parametrize(
    "theorem,n,m,sides", [("tm21", 5, 3, 1), ("tm22", 6, 4, 1), ("tm23", 5, None, 2),
                          ("tm24", 6, None, 2), ("cor21", 5, 3, 2)],
)
def test_both_routes_share_one_endpoint_table_per_side(monkeypatch, theorem, n, m, sides):
    from elrbounds import bounds, divergence

    calls, crosschecked = [], []
    honest_table, honest_direct = bounds.endpoint_table, divergence.direct_bound_values

    def counted(*args):
        calls.append(args[1:])
        return honest_table(*args)

    def recorded(*args, **kwargs):
        crosschecked.append(honest_direct(*args, **kwargs))
        return crosschecked[-1]

    monkeypatch.setattr(bounds, "endpoint_table", counted)
    monkeypatch.setattr(divergence, "direct_bound_values", recorded)
    rr = ratio_range(P, Q)
    f = _gen("kl", domain=(rr.a, rr.b))
    divergence_bounds(f, P, Q, n=n, m=m, theorem=theorem, convexity=CONVEX)
    assert len(calls) == len(set(calls)) == sides
    # Called on its own, the direct route builds its own tables, and they
    # give the crosscheck's values bit for bit.
    calls.clear()
    direct = direct_bound_values(f, P, Q, rr.a, rr.b, n=n, m=m, theorem=theorem, convexity=CONVEX)
    assert len(calls) == sides
    assert crosschecked == [direct]


def test_direct_route_survives_an_underflowing_moment_denominator():
    # q_1^11 underflows to 0.0; the crosscheck used to divide by it.
    p = ProbabilityVector((1e-45, 0.4, 0.6 - 1e-45))
    q = ProbabilityVector((1e-45, 0.5 - 1e-45, 0.5))
    report = divergence_bounds(GeneratorSpec("kl"), p, q, n=12, m=11, theorem="tm21")
    assert report.lower is None and math.isfinite(report.upper)


def test_near_node_ratios_reach_the_bound():
    # Ratios 1e-17 and 1e-14 are distinct but closer than 1e-13 relative: a
    # remainder over them has no table, but the bound never forms one.
    p = ProbabilityVector((3e-18, 3e-15, 1 - 3e-18 - 3e-15))
    q = ProbabilityVector((0.3, 0.3, 0.4))
    report = divergence_bounds(GeneratorSpec("hellinger"), p, q, n=5, theorem="TM24")
    assert report.direction_valid
    assert report.lower <= report.lr <= report.upper
