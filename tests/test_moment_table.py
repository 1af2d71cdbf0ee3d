"""Table moments against the point-by-point sums.

Point sets with at least `_TABLE_MIN_POINTS` points read their moments from
the multiply-chain tables `DiscreteFunctional.moment` keeps.  The golden
transcripts use a handful of points and never reach them, so these tests hold
the tables to the scalar sums (`_moment_sum`) on heavy-tailed inputs just
below and above the gate and near 2,000 points: each table moment is within
its stated bound of the scalar sum, and the functional raises every error of
`_moment_sum`.

The chain gate's section holds the functional's power gate (libm `pow`
through `np.float_power`) to the float `**` rule it replaced, which declined
where `**` raised, at the edge of its limit.

Below the gate each side reads its moments in one batched libm pass
(`DiscreteFunctional._moments`); the last section holds those to the scalar
sums bit for bit, errors included.
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
    FunctionModel,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    divergence_bounds,
    make_generator,
    pmf_vector,
)
from elrbounds import functional
from elrbounds.bounds import FAMILIES, _moments, bound
from elrbounds.divergence import _ratios
from elrbounds.divided_diff import endpoint_table
from elrbounds.functional import _TABLE_MIN_POINTS, _moment_sum

from conftest import side_bounds, table_moment_bound

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
    # Each table moment within its stated bound of the scalar sum; every
    # error and non-finite value of the scalar sum as it is.
    A = _functional(p, q)
    a, b = A.interval
    bounded = 0
    for j, k in ORDERS:
        want = outcome(_moment_sum, A.weights, A.points, a, b, j, k)
        got = outcome(A.moment, j, k)
        if isinstance(want, tuple) or not math.isfinite(float.fromhex(want)):
            assert got == want, (j, k)
            continue
        bounded += 1
        e = table_moment_bound(A, j, k)
        assert abs(float.fromhex(got) - float.fromhex(want)) <= e, (j, k, got, want, e)
    assert bounded


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
                outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX),
            )
            for tag, n, m in cases
        ]

    table = run(A)
    scalar_moments()
    scalar = run(_functional(p, q))
    # The bound's errors are the scalar sums' errors, and each side it reports
    # is within its stated bound (`side_bounds`) of the scalar sums' side;
    # nothing else moves.  The gate's verdict on the two reports may differ
    # only where a side sits within its rounding of lr.
    for case, (report, gated), (reference, gated_reference) in zip(cases, table, scalar):
        if not isinstance(reference, dict):
            assert report == reference, case
        else:
            assert {key: v for key, v in report.items() if key not in ("lower", "upper")} == {
                key: v for key, v in reference.items() if key not in ("lower", "upper")
            }, case
            tag, n, m = case
            for side, e in zip(("lower", "upper"), side_bounds(tag, f, A, n, m, CONVEX)):
                if reference[side] is None:
                    assert report[side] is None, case
                else:
                    assert abs(float.fromhex(report[side]) - float.fromhex(reference[side])) <= e, (case, side)
        if gated != gated_reference and not (isinstance(gated, dict) and isinstance(gated_reference, dict)):
            verdicts = [o if isinstance(o, dict) else o[1].split(": ")[-1] for o in (gated, gated_reference)]
            assert "within rounding of lr" in verdicts and "contradicted by lr" not in verdicts, case


# --- edge cases ---------------------------------------------------------------

N_EDGE = 2 * _TABLE_MIN_POINTS


def _padded(head_p, head_q):
    """Probability vectors of N_EDGE entries: the given heads, then equal tails."""
    tail = N_EDGE - len(head_p)
    p = list(head_p) + [(1.0 - math.fsum(head_p)) / tail] * tail
    q = list(head_q) + [(1.0 - math.fsum(head_q)) / tail] * tail
    return ProbabilityVector(tuple(p)), ProbabilityVector(tuple(q))


def test_overflowing_powers_raise_the_same_error():
    A = DiscreteFunctional(
        tuple(np.linspace(0.0, 1e200, N_EDGE).tolist()), (1.0 / N_EDGE,) * N_EDGE, (0.0, 1e200)
    )
    scalar = outcome(_moment_sum, A.weights, A.points, 0.0, 1e200, 2, 0)
    assert scalar[0] == "OverflowError"
    assert outcome(A.moment, 2, 0) == scalar
    assert outcome(A.moment, 0, 2) == scalar


@pytest.mark.parametrize(
    "points,weights,error",
    [
        ([1e200], [0.5], "OverflowError"),  # w X Y^2 overflows to inf; the rerun's ** raises
        # Points outside [a, b] (the store step takes any arrays): +inf at one, -inf at the other.
        ([-1e150, 1e150], [0.25, 0.25], "ValueError"),
        # A zero weight (a q_i = 0) times an overflowing power: 0 * inf is NaN in the chains.
        ([1e200], [0.0], "OverflowError"),
    ],
    ids=["overflow", "opposite-infinities", "zero-q"],
)
def test_the_chains_hand_on_what_the_scalar_sum_raises(points, weights, error):
    # On [0, 2] the chains' gate passes every key, so the functional's chains sum
    # the key and hand its non-finite sum on to the scalar rerun, which raises.
    tail = N_EDGE - len(points)
    w = np.array(weights + [(1.0 - math.fsum(weights)) / tail] * tail)
    x = np.array(points + [1.0] * tail)
    A = object.__new__(DiscreteFunctional)._store(x, w, 1.0, (0.0, 2.0))
    assert A._chains
    want = outcome(_moment_sum, w.tolist(), x.tolist(), 0.0, 2.0, 1, 2)
    assert want[0] == error
    assert batched_outcome(A._moments, ((1, 2),)) == want


# --- the chain gates ---------------------------------------------------------------


def _raised_or_not_below(top: float, e: int, limit: float) -> bool:
    """The gates' rule before libm `pow` took it: a float `**`, declined where it raises."""
    try:
        return not top**e < limit
    except OverflowError:
        return True


def _gate_tops(limit: float) -> list[float]:
    """Bases whose e-th power (e = 1..12) lands at `limit` or at overflow, with their neighbours."""
    centres = [2.0 ** (q / e) for q in (math.log2(limit), 1024) for e in range(1, 13) if q / e < 1024]
    return [t for c in centres for t in (math.nextafter(c, 0), c, math.nextafter(c, math.inf))]


GATE_KEYS = [(j, k) for j in range(13) for k in range(13) if j + k >= 1]


def _assert_the_gate_decides_as_before(gate_at, tops, limit):
    """`gate_at(top)(j, k)`: whether a chain source reads key (j, k) at base `top`."""
    declined = raised = 0
    for top in tops:
        gate = gate_at(top)
        for j, k in GATE_KEYS:
            want = _raised_or_not_below(top, j, limit) or _raised_or_not_below(top, k, limit)
            assert gate(j, k) == (not want), (top.hex(), j, k)
            declined += want
            try:
                top ** max(j, k)
            except OverflowError:
                raised += 1
    assert raised and declined and declined < len(tops) * len(GATE_KEYS)


def test_the_functional_gate_declines_where_a_float_power_did(monkeypatch):
    # (b - a)^j and (b - a)^k against 2^1020, read in place: the chain rows
    # `_moments` hands `_batched` are None where it declines.
    monkeypatch.setattr(functional, "_TABLE_MIN_POINTS", 2)  # two points take the chains
    monkeypatch.setattr(functional, "_batched", lambda keys, rows, scalar: [row is not None for row in rows])

    def gate_at(top):
        A = DiscreteFunctional([0.0, top], [0.5, 0.5], (0.0, top))
        assert A._chains
        return lambda j, k: A._moments(((j, k),))[0]

    _assert_the_gate_decides_as_before(gate_at, _gate_tops(functional._CHAIN_MAX), functional._CHAIN_MAX)


def test_declined_keys_take_the_scalar_rerun_bit_for_bit(monkeypatch):
    # b - a = 2^93: (b - a)^11 = 2^1023 is past the chains' gate, so the two
    # order-11 moments that COR21 at n = 12, m = 11 reads rerun point by point;
    # every other key is read from the chains.
    rng = np.random.default_rng(2018)
    top = 2.0**93
    A = DiscreteFunctional(np.linspace(0.0, top, N_EDGE), rng.dirichlet(np.ones(N_EDGE)), (0.0, top))
    reruns, honest = [], functional._moment_sum
    monkeypatch.setattr(functional, "_moment_sum", lambda *args: reruns.append(args[4:]) or honest(*args))
    f = FunctionModel.from_polynomial((1.0, -2.0, 0.5, 1e-60), (0.0, top))
    bound("COR21", f, A, 12, 11, CONVEX)
    assert sorted(reruns) == [(0, 11), (11, 0)]
    for key in reruns:
        assert A.moment(*key).hex() == honest(A.weights, A.points, 0.0, top, *key).hex()


# --- batched libm sums ----------------------------------------------------------

KEYS = tuple((j, k) for j in range(13) for k in range(13) if j + k <= 12)


def batched_outcome(fn, *args):
    """A batched call's list as hex strings, or its exception type and text."""
    try:
        return [v.hex() for v in fn(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def scalar_outcome(scalar, keys):
    """What a batch of `keys` must give: each scalar sum in key order, up to the first error."""
    values = []
    for key in keys:
        if isinstance(got := outcome(scalar, *key), tuple):
            return got
        values.append(got)
    return values


def assert_batch_is_scalar(batched, scalar, keys=KEYS):
    """The whole key list, and each key alone, as the scalar sums give them."""
    assert batched_outcome(batched, keys) == scalar_outcome(scalar, keys)
    for key in keys:
        assert batched_outcome(batched, (key,)) == scalar_outcome(scalar, (key,)), key


def assert_both_routes_are_scalar(p, q, interval=None):
    """The batched source anchored at a and at b, on the pair's functional."""
    ratios = _ratios(p, q).tolist()
    a, b = interval or (min(ratios), max(ratios))
    A = DiscreteFunctional(ratios, q.values, (a, b))
    for x, y in ((a, b), (b, a)):
        assert_batch_is_scalar(
            lambda keys: _moments(A)(x, y, keys),
            lambda j, k: _moment_sum(A.weights, A.points, a, b, *((j, k) if x == a else (k, j))),
        )


@pytest.mark.parametrize("size", [1, 2, 3, 8, 30, _TABLE_MIN_POINTS - 1])
@pytest.mark.parametrize("make", [_dirichlet_pair, _zm_pair], ids=["dirichlet", "zm"])
def test_the_batched_moments_are_the_scalar_sums(make, size):
    # Heavy-tailed pairs below the gate: every key with j + k <= 12, on both
    # routes and in both orientations, with the scalar sums' bits or first error.
    p, q = make(np.random.default_rng(size), size)
    widen = size == 1  # one point: a degenerate ratio range needs an enclosing interval
    r = float(_ratios(p, q)[0])
    assert_both_routes_are_scalar(p, q, (r / 2, 2 * r) if widen else None)


def _planted(head_p, head_q, size=8):
    """Probability vectors of `size` entries: the given heads, then equal tails."""
    tail = size - len(head_p)
    p = list(head_p) + [(1.0 - math.fsum(head_p)) / tail] * tail
    q = list(head_q) + [(1.0 - math.fsum(head_q)) / tail] * tail
    return ProbabilityVector(tuple(p)), ProbabilityVector(tuple(q))


def partial_sums(w, x, interval):
    """The batched moments of weights w at points x on `interval`, unchecked (x may lie
    outside it), as a function of the keys."""
    return object.__new__(DiscreteFunctional)._store(w=w, x=x, total=1.0, interval=interval)._moments


@pytest.mark.parametrize(
    "points,weights,kind",
    [
        ([0.0, 1e200, 5.0], [0.25, 0.25, 0.5], "OverflowError"),  # (1e200)^2 overflows
        # A zero weight times an overflowing power: 0 * inf is NaN in the batch,
        # while the scalar sum raises on the power.
        ([1e200, 1.0], [0.0, 1.0], "OverflowError"),
    ],
    ids=["overflow", "zero-weight"],
)
def test_planted_rows_of_the_functional(points, weights, kind):
    A = DiscreteFunctional(points, weights, (0.0, 1e200))
    (a, b), w, x = A.interval, A._w, A._x
    assert scalar_outcome(lambda j, k: _moment_sum(A.weights, A.points, a, b, j, k), KEYS)[0] == kind
    assert_batch_is_scalar(partial_sums(w, x, (a, b)), lambda j, k: _moment_sum(A.weights, A.points, a, b, j, k))


def test_opposite_infinities_in_the_functional_batch():
    # Points outside [a, b] (the helper takes any arrays): at (1, 2) the
    # products overflow to -inf and +inf, with every power finite.
    w, x = np.array([0.5, 0.5]), np.array([-1e150, 1e150])
    batched = partial_sums(w, x, (0.0, 1.0))
    assert_batch_is_scalar(batched, lambda j, k: _moment_sum(w.tolist(), x.tolist(), 0.0, 1.0, j, k))
    assert batched_outcome(batched, ((1, 2),)) == ("ValueError", "-inf + inf in fsum")


def test_a_side_raises_its_endpoint_table_error_before_its_moment_error():
    # f has no derivative of order 2, so the TM23 m = 1 side's table fails,
    # and its (1, 3) moment overflows: the side raises the table's error.
    f = FunctionModel(lambda t: t, lambda order, t: 1.0, (0.0, 1e200), max_order=1)
    A = DiscreteFunctional([0.0, 1e200], [0.5, 0.5], (0.0, 1e200))
    table = outcome(endpoint_table, f, 0.0, 1e200, 1, 4)
    assert table[0] == "ValueError"
    assert batched_outcome(A._moments, ((1, 3),))[0] == "OverflowError"
    assert outcome(bound, "TM23", f, A, 5, None, CONVEX) == table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_batches_of_random_keys_are_the_scalar_sums(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 12))
    scale = 10.0 ** rng.uniform(-3, 300)
    x = np.sort(rng.uniform(-scale, scale, size))
    w = rng.dirichlet(np.full(size, 0.2))
    a, b = float(x[0]) - float(rng.uniform(0, scale)), float(x[-1]) + float(rng.uniform(0, scale))
    keys = tuple(KEYS[i] for i in rng.integers(1, len(KEYS), int(rng.integers(1, 20))))
    assert batched_outcome(partial_sums(w, x, (a, b)), keys) == scalar_outcome(
        lambda j, k: _moment_sum(w.tolist(), x.tolist(), a, b, j, k), keys)
