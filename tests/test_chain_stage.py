"""The crosscheck's chain stage against the libm route it stands in for.

From `_TABLE_MIN_POINTS` points on, `divergence_bounds` first reads the
direct sides from multiply-chain powers (`_chain_moments`), each with a
stated bound on its distance from `direct_bound_values`, refuses what that
bound proves the libm route refuses, and runs the libm route only when the
chains decide nothing.  These properties hold the bounds to the libm values
on Zipf-Mandelbrot and heavy-tailed Dirichlet pairs (some with a q_i near
underflow), on every side with a finite bound, and hold every outcome to the
one the libm route alone gives on the point-by-point moments, as
`conftest.keeps_the_outcome` states.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    CONVEX,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    direct_bound_values,
    divergence_bounds,
    make_generator,
    pmf_vector,
    ratio_range,
    zm_divergence_bounds,
)
from elrbounds import divergence, functional
from elrbounds.bounds import FAMILIES, bound
from elrbounds.divergence import _chain_bound_values, _chain_moments, _pq_moment, _ratios
from elrbounds.functional import DiscreteFunctional

from conftest import chains_off, keeps_the_outcome, libm_power_table, side_bounds


def outcome(call, *args, **kwargs):
    """A report as its dict with floats as hex strings, or the error's type and text."""
    try:
        report = call(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return {key: v.hex() if isinstance(v, float) else v for key, v in report.to_dict().items()}


def make_pair(zm: bool, seed: int, tiny: float | None):
    """A ZM pair (N 64..5,000, s 0.6..6) or a heavy-tailed Dirichlet pair (K 64..2,000)
    whose q_0 is `tiny`, if given, half the time with p_0 beside it."""
    rng = np.random.default_rng(seed)
    N = round(math.exp(rng.uniform(math.log(64), math.log(5000))))
    if zm:
        laws = [ZipfMandelbrotParams(N, float(rng.uniform(0, 5)), float(rng.uniform(0.6, 6.0)))
                for _ in range(2)]
        return pmf_vector(laws[0]), pmf_vector(laws[1])
    conc = math.exp(rng.uniform(math.log(0.01), math.log(1.0)))
    while True:
        p, q = (rng.dirichlet(np.full(min(N, 2000), conc)) for _ in range(2))
        if tiny is not None:
            q[0] = tiny
            if rng.random() < 0.5:
                p[0] = tiny * rng.uniform(0.5, 2.0)
            q /= math.fsum(q)
            p /= math.fsum(p)
        if (p > 0).all() and (q > 0).all() and max(abs(math.fsum(v) - 1) for v in (p, q)) <= 1e-12:
            return ProbabilityVector(p), ProbabilityVector(q)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(0, 2**32 - 1), st.sampled_from([None, 1e-300, 1e-200, 1e-60]),
       st.sampled_from(["kl", "hellinger", "harmonic", "jeffreys"]), st.integers(3, 11))
def test_the_chain_stage_is_within_its_bounds_and_keeps_every_outcome(zm, seed, tiny, name, n):
    p, q = make_pair(zm, seed, tiny)
    rr = ratio_range(p, q)
    a, b = rr.a, rr.b
    if not (0 < a < b < math.inf):  # a generator's domain
        return
    moment, error = _chain_moments(p, q, a, b)
    for x, y in ((a, b), (b, a)):
        for j, k in [(j, k) for j in range(1, n) for k in range(n - j)]:  # what order n reads
            c = moment(x, y, j, k)  # its bound exists once it is read
            if math.isfinite(e := error(x, y, j, k)):
                assert abs(c - _pq_moment(p, q, x, y, j, k)) <= e, (x, y, j, k)
    f = make_generator(GeneratorSpec(name, domain=(a, b)))
    A = DiscreteFunctional(_ratios(p, q), q._v, (a, b))
    for tag, family in FAMILIES.items():
        m = n - 1 if family.takes_m else None
        if n < family.min_n:
            continue
        tables: dict = {}
        try:
            bound(tag, f, A, n, m, CONVEX, _tables=tables)
        except (ArithmeticError, ValueError):
            continue  # raised before any crosscheck
        chained = _chain_bound_values(f, p, q, a, b, n, tag, m, CONVEX, tables)
        try:
            direct = direct_bound_values(f, p, q, a, b, n, tag, m, CONVEX, _tables=tables)
        except (ArithmeticError, ValueError):
            direct = None
        sides, bounds = chained or ((None, None), (None, None))
        for c, e, want in zip(sides, bounds, direct or (None, None)):
            if c is not None and math.isfinite(e):  # fixed or not, the libm side is within e
                assert want is not None and abs(c - want) <= e, (tag, c, want, e)
        got = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        with chains_off():
            want = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        sides_and_bounds = lambda: (direct, bounds, side_bounds(tag, f, A, n, m, CONVEX))  # noqa: E731
        assert keeps_the_outcome(want, got, sides_and_bounds), (tag, want, got)


def test_an_op_the_chain_stage_hands_on_ends_as_below_the_gate(monkeypatch, scalar_moments):
    # Dirichlet K = 66 with q_0 = 1e-300: q_0^2 leaves the normal range, so
    # the chain stage states no bound and the libm route decides, and its
    # 1e-12 has no slack for the chains' last bits.  On the chain-read report it passed TM22's upper side -26,624,
    # below lr = -90.4; on the point-by-point moments' report it refuses, at
    # every size, so the op is refused here as with the chains gated off.
    p, q = make_pair(False, 10_031, 1e-300)
    direct_calls = []
    honest = divergence.direct_bound_values
    monkeypatch.setattr(divergence, "direct_bound_values",
                        lambda *args, **kwargs: direct_calls.append(args[3:]) or honest(*args, **kwargs))

    def run():
        return outcome(divergence_bounds, GeneratorSpec("jeffreys"), p, q, n=7, m=6, theorem="TM22")

    got = run()
    assert len(q) == 66 and len(direct_calls) == 1
    assert got[0] == "RuntimeError" and got[1].startswith("TM22 upper: delegated value -18432.0 ")
    scalar_moments()
    assert run() == got


def test_the_functional_owns_the_chain_gate(monkeypatch):
    # The crosscheck reads the functional's gate: with only `functional._TABLE_MIN_POINTS`
    # at inf, a 128-point pair's functional keeps no chains, the chain stage never
    # starts, and the libm route checks the point-by-point report, as with the stage off.
    p, q = (pmf_vector(ZipfMandelbrotParams(128, shift, s)) for shift, s in ((1.0, 1.2), (2.0, 1.5)))
    chained, direct = [], []
    honest_chained, honest_direct = divergence._chain_bound_values, divergence.direct_bound_values
    monkeypatch.setattr(divergence, "_chain_bound_values",
                        lambda *args: chained.append(args) or honest_chained(*args))
    monkeypatch.setattr(divergence, "direct_bound_values",
                        lambda *args, **kwargs: direct.append(args) or honest_direct(*args, **kwargs))

    def run():
        del chained[:], direct[:]
        return outcome(divergence_bounds, GeneratorSpec("kl"), p, q, n=7, theorem="TM23")

    assert isinstance(run(), dict) and (len(chained), len(direct)) == (1, 0)  # above the gate
    with chains_off():
        want = run()
    monkeypatch.setattr(functional, "_TABLE_MIN_POINTS", math.inf)
    assert run() == want
    assert (len(chained), len(direct)) == (0, 1)


def _sweep_case(rng, i):
    tag = ("TM21", "TM22", "COR21", "TM23", "TM24")[i % 5]
    name = ("kl", "hellinger", "harmonic", "jeffreys")[(i // 5) % 4]
    n = int(rng.integers(5 if FAMILIES[tag].takes_m else 3, 13))
    m = int(rng.integers(3, n)) if FAMILIES[tag].takes_m else None
    K = int(rng.integers(64, 401))
    conc = math.exp(rng.uniform(math.log(0.03), math.log(1.0)))
    while True:
        p, q = rng.dirichlet(np.full(K, conc)), rng.dirichlet(np.full(K, conc))
        if (q > 0).all():
            return tag, name, n, m, ProbabilityVector(p), ProbabilityVector(q)


def wrong(report) -> bool:
    """A direction-valid report whose sides cross, or leave out lr, by more than 16 ulps."""
    if report is None or not report.direction_valid:
        return False
    sides = [v for v in (report.lower, report.upper) if v is not None]
    tol = 32 * divergence._U * max(map(abs, [report.lr, *sides]))
    return report.violation() > tol or len(sides) == 2 and report.lower - report.upper > tol


def report_or_none(call):
    try:
        return call()
    except (ArithmeticError, ValueError, RuntimeError):
        return None


@pytest.mark.slow
def test_the_chain_stage_adds_no_wrong_brackets_on_heavy_tails():
    # With the chain stage off the crosscheck is the libm route alone, as it
    # was before the stage existed.  On seed 5 it lets 7 wrong reports through
    # (871 refusals); the chain stage turns 707 refusals into reports and
    # adds no wrong one.
    rng = np.random.default_rng(5)
    chains = libm = 0
    for i in range(1500):
        tag, name, n, m, p, q = _sweep_case(rng, i)

        def run():
            return divergence_bounds(GeneratorSpec(name), p, q, n=n, m=m, theorem=tag)

        chains += wrong(report_or_none(run))
        with chains_off():
            libm += wrong(report_or_none(run))
    assert chains <= libm, (chains, libm)


def zm_large_cases(seed: int, count: int = 40):
    """The benchmark's `zm_large` ops for `seed`: two ZM laws with N = 20,000, q in
    [0, 5) and s in [0.6, 2.5), every tag with every generator twice at eight
    orders n <= 9 per tag, and m drawn in [3, n)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        tag = ("TM21", "TM22", "COR21", "TM23", "TM24")[i % 5]
        ns = [n for n in range(FAMILIES[tag].min_n, 10) if tag != "COR21" or n % 2]
        n = ns[round(((i // 5) % 8) * (len(ns) - 1) / 7)]
        laws = [(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.6, 2.5))) for _ in range(2)]
        m = int(rng.integers(3, n)) if FAMILIES[tag].takes_m else None
        yield tag, ("kl", "hellinger", "harmonic", "jeffreys")[i % 4], n, m, laws


@pytest.mark.slow
def test_the_chain_stage_decides_every_zm_large_op(monkeypatch):
    # Every `zm_large`-style op is accepted by the chain stage or refused on a
    # side its bound proves; none sums its moments point by point at N = 20,000.
    # Seeds 7101, 7919, 8120 and 40001 are the benchmark's usual ones; each of
    # the other six has a refusal among its 40 ops.  Each op returns or
    # refuses as it does with libm powers in the functional's moments.
    direct_calls = []
    honest = divergence.direct_bound_values
    monkeypatch.setattr(divergence, "direct_bound_values",
                        lambda *args, **kwargs: direct_calls.append(args[3:]) or honest(*args, **kwargs))

    def returns(P, Q, name, n, m, tag):
        try:
            zm_divergence_bounds(P, Q, GeneratorSpec(name), n=n, m=m, theorem=tag)
        except RuntimeError:
            return False
        return True

    outcomes = {"report": 0, "refusal": 0}
    for seed in (22, 45, 51, 103, 132, 133, 7101, 7919, 8120, 40001):
        for tag, name, n, m, laws in zm_large_cases(seed):
            P, Q = (ZipfMandelbrotParams(20_000, q, s) for q, s in laws)
            reported = returns(P, Q, name, n, m, tag)
            outcomes["report" if reported else "refusal"] += 1
            with monkeypatch.context() as mp:
                mp.setattr(functional, "_chain_table", libm_power_table)
                assert returns(P, Q, name, n, m, tag) == reported, (seed, tag, name, n, m)
    assert direct_calls == [] and outcomes["refusal"] and sum(outcomes.values()) == 400, outcomes
