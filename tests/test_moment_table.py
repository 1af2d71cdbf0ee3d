"""Power-table moments against the point-by-point sums, bit for bit.

Point sets with at least `_TABLE_MIN_POINTS` points read their moments from a
power table: the functional route from the table `DiscreteFunctional.moment`
keeps, the crosscheck from the one `_pq_moments` builds per call.  The golden
transcripts use a handful of points and never reach it, so these tests hold
both tables to the scalar sums (`_moment_sum`, `_pq_moment`) on heavy-tailed
inputs just below and above the gate and near 2,000 points: every value and
every error text must be the same.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONVEX,
    DiscreteFunctional,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    direct_bound_values,
    divergence_bounds,
    make_generator,
    pmf_vector,
)
from elrbounds.bounds import FAMILIES, bound
from elrbounds.divergence import _pq_moment, _pq_moments, _ratios
from elrbounds.functional import _TABLE_MIN_POINTS, _moment_sum

from conftest import is_refusal_flip

# Below 2 the first size would be 0, for which `_dirichlet_pair` never returns.
assert _TABLE_MIN_POINTS >= 2, f"_TABLE_MIN_POINTS = {_TABLE_MIN_POINTS} leaves no size below the gate"
SIZES = (_TABLE_MIN_POINTS - 1, _TABLE_MIN_POINTS + 1, 1999)
ORDERS = [(j, k) for j in range(13) for k in range(13) if 1 <= j + k <= 12]


def outcome(fn, *args, **kwargs):
    """A call's result with floats as hex strings, or its exception type and text."""
    try:
        value = fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(value, "to_dict"):
        value = value.to_dict()
        return {key: v.hex() if isinstance(v, float) else v for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(v.hex() if isinstance(v, float) else v for v in value)
    return value.hex()


def _dirichlet_pair(rng, size):
    conc = float(np.exp(rng.uniform(math.log(0.03), math.log(1.0))))
    while True:
        p, q = (rng.dirichlet(np.full(size, conc)) for _ in range(2))
        if (q > 0).all() and abs(math.fsum(p) - 1) <= 1e-12 and abs(math.fsum(q) - 1) <= 1e-12:
            return ProbabilityVector(tuple(p.tolist())), ProbabilityVector(tuple(q.tolist()))


def _zm_pair(rng, size):
    laws = [
        ZipfMandelbrotParams(size, float(rng.uniform(0, 5)), float(rng.uniform(0.6, 6.0)))
        for _ in range(2)
    ]
    return pmf_vector(laws[0]), pmf_vector(laws[1])


def _pairs():
    rng = np.random.default_rng(20181)
    return [
        pytest.param(*make(rng, size), id=f"{make.__name__[1:-5]}-{size}")
        for size in SIZES
        for make in (_dirichlet_pair, _zm_pair)
    ]


def _functional(p, q):
    ratios = _ratios(p, q)
    return DiscreteFunctional(tuple(ratios), q.values, (min(ratios), max(ratios)))


@pytest.mark.parametrize("p,q", _pairs())
def test_functional_table_moments_are_the_scalar_sums(p, q):
    A = _functional(p, q)
    a, b = A.interval
    for j, k in ORDERS:
        assert outcome(A.moment, j, k) == outcome(_moment_sum, A.weights, A.points, a, b, j, k)


@pytest.mark.parametrize("p,q", _pairs())
def test_crosscheck_table_moments_are_the_scalar_sums(p, q):
    A = _functional(p, q)
    a, b = A.interval
    moment = _pq_moments(p, q, a, b)
    for x, y in ((a, b), (b, a)):
        for j, k in ORDERS:
            assert outcome(moment, x, y, j, k) == outcome(_pq_moment, p, q, x, y, j, k)


@pytest.mark.parametrize("p,q", _pairs())
def test_every_family_is_bit_identical_on_both_routes(p, q, scalar_moments):
    A = _functional(p, q)
    a, b = A.interval
    f = make_generator(GeneratorSpec("kl", domain=(a, b)))
    ns = range(3, 13) if len(q) < 1000 else (3, 7, 12)
    cases = [(tag, n, n - 1 if FAMILIES[tag].takes_m else None) for tag in FAMILIES for n in ns]
    cases = [case for case in cases if case[1] >= FAMILIES[case[0]].min_n]

    def run(A):
        return [
            (
                outcome(bound, tag, f, A, n, m, CONVEX),
                outcome(direct_bound_values, f, p, q, a, b, n=n, m=m, theorem=tag),
                outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX),
            )
            for tag, n, m in cases
        ]

    table = run(A)
    scalar_moments()
    scalar = run(_functional(p, q))
    # The bound and the direct route stay bit for bit.  The crosscheck may
    # differ only where the chain stage, which runs on the table path alone,
    # turned a refusal into the report it refused.
    assert [case[:2] for case in table] == [case[:2] for case in scalar]
    for (*_, got), (*_, want) in zip(table, scalar):
        assert got == want or is_refusal_flip(want, got)


# --- edge cases ---------------------------------------------------------------

N_EDGE = 2 * _TABLE_MIN_POINTS


def _padded(head_p, head_q):
    """Probability vectors of N_EDGE entries: the given heads, then equal tails."""
    tail = N_EDGE - len(head_p)
    p = list(head_p) + [(1.0 - math.fsum(head_p)) / tail] * tail
    q = list(head_q) + [(1.0 - math.fsum(head_q)) / tail] * tail
    return ProbabilityVector(tuple(p)), ProbabilityVector(tuple(q))


def test_underflowing_denominators_take_the_fallback():
    p, q = _padded([1e-45, 3e-40, 0.2], [1e-45, 1e-40, 0.1])
    A = _functional(p, q)
    a, b = A.interval
    moment = _pq_moments(p, q, a, b)
    assert q.values[0] ** 11 == 0.0
    for x, y in ((a, b), (b, a)):
        for j, k in ORDERS:
            expected = outcome(_pq_moment, p, q, x, y, j, k)
            assert not isinstance(expected, tuple)
            assert outcome(moment, x, y, j, k) == expected
    report = divergence_bounds(GeneratorSpec("kl"), p, q, n=12, m=11, theorem="tm21")
    assert math.isfinite(report.upper)


def test_overflowing_powers_raise_the_same_error():
    A = DiscreteFunctional(
        tuple(np.linspace(0.0, 1e200, N_EDGE).tolist()), (1.0 / N_EDGE,) * N_EDGE, (0.0, 1e200)
    )
    scalar = outcome(_moment_sum, A.weights, A.points, 0.0, 1e200, 2, 0)
    assert scalar[0] == "OverflowError"
    assert outcome(A.moment, 2, 0) == scalar
    assert outcome(A.moment, 0, 2) == scalar
    p, q = _padded([0.3], [0.2])
    moment = _pq_moments(p, q, 0.0, 1e200)
    assert outcome(moment, 0.0, 1e200, 1, 2) == outcome(_pq_moment, p, q, 0.0, 1e200, 1, 2)
    assert outcome(moment, 0.0, 1e200, 1, 2)[0] == "OverflowError"


def test_opposite_infinite_summands_raise_the_same_error():
    # The first summand overflows to +inf (division by a subnormal q_i), the
    # second to -inf (a product beyond -1e308): fsum refuses to add them.
    p, q = _padded([0.5, 0.3], [1e-310, 0.98])
    x, y = -10.0, 1e308
    moment = _pq_moments(p, q, x, y)
    scalar = outcome(_pq_moment, p, q, x, y, 1, 1)
    assert scalar == ("ValueError", "-inf + inf in fsum")
    assert outcome(moment, x, y, 1, 1) == scalar


def test_a_zero_q_raises_what_the_scalar_sum_raises_first():
    # Point order decides between a ZeroDivisionError at q_0 = 0 and the
    # OverflowError of a later point; the table must report the same one.
    p = ProbabilityVector((0.5,) + (0.5 / (N_EDGE - 1),) * (N_EDGE - 1))
    q = ProbabilityVector((0.0,) + (1.0 / (N_EDGE - 1),) * (N_EDGE - 1))
    moment = _pq_moments(p, q, 0.0, 1e200)
    scalar = outcome(_pq_moment, p, q, 0.0, 1e200, 1, 2)
    assert scalar[0] == "ZeroDivisionError"
    assert outcome(moment, 0.0, 1e200, 1, 2) == scalar
