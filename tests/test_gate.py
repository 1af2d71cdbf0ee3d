"""The certifying gate of `divergence_bounds` (`bounds._certify`).

A side is certified when it lies on the side of lr that its parity sign
predicts by more than E_side + E_lr, the stated bounds on the rounding error of
both.  These tests hold its negative controls: a planted slip of one term that
moves a side past lr, and a wrong convexity class, are contradicted; a value
that is not finite is refused as such; a side equal to lr is within rounding.
And they hold what it must not refuse: every draw shaped like the `cli_cold`
benchmark's `div` op is certified.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    bounds,
    divergence_bounds,
    zm_divergence_bounds,
)


def _refusal(call) -> str | None:
    try:
        call()
    except RuntimeError as exc:
        return str(exc)
    return None


def _slipped(monkeypatch, call, eps=1e-6) -> str | None:
    """`call`'s refusal when the largest term of each side it forms is moved by eps of
    itself toward lr (the lr of `call` as it stands, which must be certified)."""
    lr = call().lr
    honest = bounds._terms

    def terms(*args, **kwargs):
        out = honest(*args, **kwargs)  # the list the gate reads too
        i = max(range(len(out)), key=lambda i: abs(out[i]))
        out[i] += eps * math.copysign(abs(out[i]), lr - math.fsum(out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(bounds, "_terms", terms)
        return _refusal(call)


def test_a_slip_in_one_term_of_a_20000_point_pair_is_contradicted(monkeypatch):
    # Two close ZM laws: at n = 8 the TM23 sides lie within 1e-7 of their largest
    # term from lr, so a 1e-6 slip of that term carries a side past lr.
    P, Q = ZipfMandelbrotParams(20_000, 1.0, 1.1), ZipfMandelbrotParams(20_000, 1.2, 1.12)
    call = lambda: zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=8, theorem="TM23")  # noqa: E731
    assert _slipped(monkeypatch, call) == "TM23 lower: contradicted by lr"
    # A slip that moves each side away from lr leaves a valid, certified bound.
    assert _slipped(monkeypatch, call, -1e-6) is None


def test_a_slip_in_one_term_of_a_small_dirichlet_pair_is_contradicted(monkeypatch):
    rng = np.random.default_rng(1)
    p, q = (ProbabilityVector(rng.dirichlet(np.ones(6) * 50)) for _ in range(2))
    call = lambda: divergence_bounds(GeneratorSpec("kl"), p, q, n=8, theorem="TM23")  # noqa: E731
    assert _slipped(monkeypatch, call) == "TM23 lower: contradicted by lr"


def test_a_wrong_class_is_contradicted():
    # kl is n-convex at even n; called n-concave, its sides land on the wrong sides of lr.
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    assert divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM23").convexity == CONVEX
    with pytest.raises(RuntimeError, match="^TM23 (lower|upper): contradicted by lr$"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM23", convexity=CONCAVE)


# div_small seed 5151, op 164 (TM24 kl n = 11): f^(k) at a = 1.6e-8 leaves a side at -inf.
P_164 = (3.39985759444752e-06, 2.475211094418449e-06, 0.03719082559545231, 2.0718750367043973e-21,
         7.047695462190119e-05, 0.2985572433754445, 0.606134244390126, 0.0001152625011788562,
         1.959517421980027e-16, 0.001759905636173555, 4.8025468132166665e-08, 1.629539071032578e-13,
         0.003041350415822989, 8.923735703392885e-06, 3.0367596946925768e-05, 1.4107312288874517e-11,
         4.0908975512164884e-11, 1.2249869601123913e-09, 0.000285926256298473, 3.848694336716169e-15,
         2.7649224907930203e-19, 1.5795016970483308e-05, 2.6747570075538157e-14, 2.3377528089780603e-08,
         2.106509207364299e-06, 0.052781624264171045, 5.273943708167693e-17)
Q_164 = (4.235221085845176e-13, 5.62701156967349e-11, 0.11991226881716967, 3.083169865334705e-10,
         5.919403499673986e-10, 0.06350156974570073, 1.7073153963285896e-07, 7.137282627120956e-12,
         0.0008399576213328025, 2.4888697007132938e-15, 2.448697964944453e-41, 0.21175786484543188,
         0.042237076497282415, 0.19980044070510317, 1.513677178360668e-11, 6.015447239361191e-08,
         2.2511522547860907e-05, 2.347750446433309e-09, 6.81300957099696e-29, 0.032609586449517135,
         0.001346779048183591, 4.1020346786796315e-15, 0.0850491009832722, 0.00014767680556519489,
         8.097292416083587e-05, 0.2426939598216669, 7.129499409600718e-14)


def test_a_side_that_is_not_finite_is_refused_as_such():
    p, q = ProbabilityVector(P_164), ProbabilityVector(Q_164)
    with pytest.raises(RuntimeError, match="^TM24 lower is not finite: -Infinity$"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=11, theorem="TM24")


def test_a_side_equal_to_lr_is_within_rounding():
    # A cubic has f^(4) = 0, so TM23 at n = 4 drops a zero remainder: both sides are lr.
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    cubic = GeneratorSpec("poly", coeffs=(0.0, 1.0, -2.0, 0.5))
    with pytest.raises(RuntimeError, match="^TM23 lower: within rounding of lr$"):
        divergence_bounds(cubic, p, q, n=4, theorem="TM23", convexity=CONVEX)


def test_every_draw_like_the_cli_div_op_is_certified():
    # The `cli_cold` benchmark's `div` op: Dirichlet(1) pairs of 5 entries, kl,
    # TM24 at n = 4, the class from classify.  None may be refused.
    rng = np.random.default_rng(5)
    for _ in range(500):
        p, q = (ProbabilityVector(rng.dirichlet(np.ones(5)).tolist()) for _ in range(2))
        report = divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM24")
        assert report.direction_valid and report.lower < report.lr < report.upper
