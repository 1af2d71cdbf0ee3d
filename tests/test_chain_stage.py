"""The crosscheck's chain stage against the libm route it stands in for.

From `_TABLE_MIN_POINTS` points on, `divergence_bounds` first reads the
direct sides from multiply-chain powers (`_chain_moments`), each with a
stated bound on its distance from `direct_bound_values`, and runs that libm
route only when the chains cannot decide.  These properties hold the bounds
to the libm values on Zipf-Mandelbrot and heavy-tailed Dirichlet pairs
(some with a q_i near underflow), and hold every outcome to the one the
libm route alone gives: equal, except that a refusal may become the report
it refused, bit for bit its delegated side.
"""

from __future__ import annotations

import contextlib
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
)
from elrbounds import divergence
from elrbounds.bounds import FAMILIES, bound
from elrbounds.divergence import _chain_bound_values, _chain_moments, _pq_moments, _ratios
from elrbounds.functional import DiscreteFunctional

from conftest import is_refusal_flip

KEYS = [(j, k) for j in range(1, 12) for k in range(12 - j)]


def outcome(call, *args, **kwargs):
    """A report as its dict with floats as hex strings, or the error's type and text."""
    try:
        report = call(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return {key: v.hex() if isinstance(v, float) else v for key, v in report.to_dict().items()}


@contextlib.contextmanager
def chains_off():
    """The chain stage off: every crosscheck runs `direct_bound_values`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_chain_bound_values", lambda *args: None)
        yield


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
    libm = _pq_moments(p, q, a, b)
    for x, y in ((a, b), (b, a)):
        for j, k in KEYS:
            if math.isfinite(e := error(x, y, j, k)):
                assert abs(moment(x, y, j, k) - libm(x, y, j, k)) <= e, (x, y, j, k)
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
            if c is not None and e < abs(c):  # a side the chains fix: the libm route has it within e
                assert want is not None and abs(c - want) <= e, (tag, c, want, e)
        got = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        with chains_off():
            want = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        assert got == want or is_refusal_flip(want, got), (tag, want, got)


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
