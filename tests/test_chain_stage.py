"""The functional's multiply chains under the certifying gate.

From `_TABLE_MIN_POINTS` points on, a functional reads its moments from
multiply-chain powers (`DiscreteFunctional._chains`), within a stated bound
of the point-by-point sums; `divergence_bounds` then certifies the report
that those moments give (`bounds._certify`).  These tests hold the gate to
the chains: an op the removed dual-route crosscheck once handed on is refused
alike on both moment routes, the functional alone decides which route runs,
and (slow) no heavy-tailed or `zm_large` op is certified wrong or refused.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    CONVEX,
    DiscreteFunctional,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    divergence_bounds,
    make_generator,
    pmf_vector,
    zm_divergence_bounds,
)
from elrbounds import functional
from elrbounds.bounds import FAMILIES
from elrbounds.functional import _moment_sum

from conftest import libm_power_table, side_bounds, table_moment_bound


def outcome(call, *args, **kwargs):
    """A report as its dict with floats as hex strings, a float as hex, or the error's type and text."""
    try:
        report = call(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(report, float):
        return report.hex()
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
    # Each chain moment an order-n side reads is within its stated bound of the
    # point-by-point sum (or raises its error), and each family's outcome is the one
    # the point-by-point moments give, but for the last bits of its sides (within
    # `side_bounds`) and a verdict that a side within rounding of lr may flip.
    p, q = make_pair(zm, seed, tiny)
    ratios = p._v / q._v
    a, b = float(ratios.min()), float(ratios.max())
    if not (0 < a < b < math.inf):  # a generator's domain
        return
    A = DiscreteFunctional(ratios, q._v, (a, b))
    for j, k in [(j, k) for j in range(n) for k in range(n - j) if j + k]:
        want = outcome(_moment_sum, A.weights, A.points, a, b, j, k)
        got = outcome(A.moment, j, k)
        if isinstance(want, tuple) or not math.isfinite(float.fromhex(want)):
            assert got == want, (j, k)
        else:
            assert abs(float.fromhex(got) - float.fromhex(want)) <= table_moment_bound(A, j, k), (j, k)
    f = make_generator(GeneratorSpec(name, domain=(a, b)))
    for tag, family in FAMILIES.items():
        m = n - 1 if family.takes_m else None
        if n < family.min_n:
            continue
        got = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(functional, "_TABLE_MIN_POINTS", math.inf)
            want = outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX)
        if isinstance(got, dict) and isinstance(want, dict):
            assert {k: v for k, v in got.items() if k not in ("lower", "upper")} == \
                {k: v for k, v in want.items() if k not in ("lower", "upper")}, tag
            for side, e in zip(("lower", "upper"), side_bounds(tag, f, A, n, m, CONVEX)):
                assert (got[side] is None) == (want[side] is None), tag
                if got[side] is not None:
                    assert abs(float.fromhex(got[side]) - float.fromhex(want[side])) <= e, (tag, side)
        elif got != want:
            verdicts = [o if isinstance(o, dict) else o[1].split(": ")[-1] for o in (got, want)]
            assert "within rounding of lr" in verdicts and "contradicted by lr" not in verdicts, (tag, got, want)


def test_an_op_the_chain_stage_hands_on_ends_as_below_the_gate(scalar_moments):
    # Dirichlet K = 66 with q_0 = 1e-300, which the removed crosscheck's chain
    # stage handed on: on the chain-read report its libm route passed TM22's
    # upper side -26,624, below lr = -90.4.  The gate leaves that side within
    # its rounding, on the chains' moments and on the point-by-point ones alike.
    p, q = make_pair(False, 10_031, 1e-300)

    def run():
        return outcome(divergence_bounds, GeneratorSpec("jeffreys"), p, q, n=7, m=6, theorem="TM22")

    got = run()
    assert len(q) == 66
    assert got == ("RuntimeError", "TM22 upper: within rounding of lr")
    scalar_moments()
    assert run() == got


def test_the_functional_owns_the_chain_gate(monkeypatch):
    # Only `functional._TABLE_MIN_POINTS` decides whether an op's moments come from
    # multiply chains: with it at inf, a 128-point pair builds no chain, and the
    # gate certifies the point-by-point report, within the chains' bound of it.
    p, q = (pmf_vector(ZipfMandelbrotParams(128, shift, s)) for shift, s in ((1.0, 1.2), (2.0, 1.5)))
    chains, honest = [], functional._chain_table
    monkeypatch.setattr(functional, "_chain_table", lambda base: chains.append(len(base)) or honest(base))

    def run():
        del chains[:]
        return divergence_bounds(GeneratorSpec("kl"), p, q, n=7, theorem="TM23")

    chained = run()
    assert chains == [128, 128]  # above the gate: g - a and g - b
    monkeypatch.setattr(functional, "_TABLE_MIN_POINTS", math.inf)
    scalar = run()
    assert chains == [] and scalar.lr == chained.lr
    for side in ("lower", "upper"):
        assert abs(getattr(scalar, side) - getattr(chained, side)) <= 1e-12 * abs(getattr(scalar, side))


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
    """A direction-valid report whose sides cross, or leave out lr."""
    if not report.direction_valid:  # each side is judged by its own sign, not as a bracket
        return False
    sides = [v for v in (report.lower, report.upper) if v is not None]
    return report.violation() > 0 or len(sides) == 2 and report.lower > report.upper


@pytest.mark.slow
def test_the_gate_certifies_no_wrong_bracket_on_heavy_tails():
    # 1,500 heavy-tailed Dirichlet ops of 64 to 400 entries: every report the gate
    # returns holds lr strictly between its sides; most are certified.
    rng = np.random.default_rng(5)
    verdicts = {"certified": 0, "refused": 0, "raised": 0}
    for i in range(1500):
        tag, name, n, m, p, q = _sweep_case(rng, i)
        try:
            report = divergence_bounds(GeneratorSpec(name), p, q, n=n, m=m, theorem=tag)
        except RuntimeError as exc:
            assert "contradicted" not in str(exc), (i, tag, name, n, m)
            verdicts["refused"] += 1
        except (ArithmeticError, ValueError):
            verdicts["raised"] += 1
        else:
            assert not wrong(report), (i, report)
            verdicts["certified"] += 1
    assert verdicts["certified"] > 1000, verdicts


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
def test_the_gate_certifies_every_zm_large_op(monkeypatch):
    # Every `zm_large`-style op of ten seeds is certified, with the chains' moments
    # and with libm powers in their place.  Seeds 7101, 7919, 8120 and 40001 are the
    # benchmark's usual ones (op 34 of 7919 and of 40001 was refused by the removed
    # crosscheck); each of the other six had a crosscheck refusal among its 40 ops.
    for seed in (22, 45, 51, 103, 132, 133, 7101, 7919, 8120, 40001):
        for tag, name, n, m, laws in zm_large_cases(seed):
            P, Q = (ZipfMandelbrotParams(20_000, q, s) for q, s in laws)
            report = zm_divergence_bounds(P, Q, GeneratorSpec(name), n=n, m=m, theorem=tag)
            assert not wrong(report), (seed, tag, name, n, m)
            with monkeypatch.context() as mp:
                mp.setattr(functional, "_chain_table", libm_power_table)
                zm_divergence_bounds(P, Q, GeneratorSpec(name), n=n, m=m, theorem=tag)
