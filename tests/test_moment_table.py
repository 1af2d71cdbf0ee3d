"""Table moments against the point-by-point sums.

Point sets with at least `_TABLE_MIN_POINTS` points read their moments from
multiply-chain tables: the functional route from the chains
`DiscreteFunctional.moment` keeps, the crosscheck from those of its chain
stage (`_chain_moments`), whose libm route is the point-by-point `_pq_moment`
at every size.  The golden transcripts use a handful of points and never
reach either, so these tests hold both tables to the scalar sums
(`_moment_sum`, `_pq_moment`) on heavy-tailed inputs just below and above the
gate and near 2,000 points: each table moment is within its stated bound of
the scalar sum; the functional raises every error of `_moment_sum`, and the
chains read NaN, which hands the op to `_pq_moment`, where they state none.

The chain gates' section holds both chain sources' power gates (libm `pow`
through `np.float_power`) to the float `**` rule they replaced, which
declined where `**` raised, at the edge of each limit.

Below the gate, and on the ops the chain stage hands on, each side reads its
moments in one batched libm pass (`DiscreteFunctional._moments`, `_pq_moments`); the last
section holds those to the scalar sums bit for bit, errors included.
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
    direct_bound_values,
    divergence_bounds,
    make_generator,
    pmf_vector,
)
from elrbounds import divergence, functional
from elrbounds.bounds import FAMILIES, _moments, bound
from elrbounds.divergence import _chain_bound_values, _chain_moments, _pq_moment, _pq_moments, _ratios
from elrbounds.divided_diff import endpoint_table
from elrbounds.functional import _TABLE_MIN_POINTS, _moment_sum

from conftest import keeps_the_outcome, side_bounds, table_moment_bound

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
def test_crosscheck_table_moments_are_the_scalar_sums(p, q):
    # The crosscheck's one table is the chain stage's: each moment within its
    # stated bound of the scalar sum, or NaN with no bound.
    A = _functional(p, q)
    a, b = A.interval
    moment, error = _chain_moments(p, q, a, b)
    bounded = 0
    for x, y in ((a, b), (b, a)):
        for j, k in ORDERS:
            chained, e = moment(x, y, j, k), error(x, y, j, k)
            if math.isnan(e):
                assert math.isnan(chained), (x, y, j, k)
                continue
            bounded += 1
            assert abs(chained - _pq_moment(p, q, x, y, j, k)) <= e, (x, y, j, k)
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
                outcome(direct_bound_values, f, p, q, a, b, n=n, m=m, theorem=tag),
                outcome(divergence_bounds, f, p, q, n=n, m=m, theorem=tag, convexity=CONVEX),
            )
            for tag, n, m in cases
        ]

    table = run(A)
    scalar_moments()
    scalar = run(_functional(p, q))
    # The direct route stays bit for bit.  The bound's errors are the scalar
    # sums' errors, and each side it reports is within its stated bound
    # (`side_bounds`) of the scalar sums' side; nothing else moves.
    assert [case[1] for case in table] == [case[1] for case in scalar]
    for case, (report, *_), (reference, *_) in zip(cases, table, scalar):
        if not isinstance(reference, dict):
            assert report == reference, case
            continue
        assert {key: v for key, v in report.items() if key not in ("lower", "upper")} == {
            key: v for key, v in reference.items() if key not in ("lower", "upper")
        }, case
        tag, n, m = case
        for side, e in zip(("lower", "upper"), side_bounds(tag, f, A, n, m, CONVEX)):
            if reference[side] is None:
                assert report[side] is None, case
            else:
                assert abs(float.fromhex(report[side]) - float.fromhex(reference[side])) <= e, (case, side)

    # The crosscheck may differ only as `keeps_the_outcome` allows the
    # functional's chains and the chain stage, which run on the table path alone.
    def sides_and_bounds(tag, n, m, direct):
        tables: dict = {}
        bound(tag, f, A, n, m, CONVEX, _tables=tables)
        chained = _chain_bound_values(f, p, q, a, b, n, tag, m, CONVEX, tables)
        sides = [math.nan if v is None else float.fromhex(v) for v in direct]
        return sides, chained[1] if chained else (math.nan, math.nan), side_bounds(tag, f, A, n, m, CONVEX)

    for case, (*_, got), (_, direct, want) in zip(cases, table, scalar):
        assert keeps_the_outcome(want, got, lambda: sides_and_bounds(*case, direct)), (case, want, got)


# --- edge cases ---------------------------------------------------------------

N_EDGE = 2 * _TABLE_MIN_POINTS


def _padded(head_p, head_q):
    """Probability vectors of N_EDGE entries: the given heads, then equal tails."""
    tail = N_EDGE - len(head_p)
    p = list(head_p) + [(1.0 - math.fsum(head_p)) / tail] * tail
    q = list(head_q) + [(1.0 - math.fsum(head_q)) / tail] * tail
    return ProbabilityVector(tuple(p)), ProbabilityVector(tuple(q))


def test_underflowing_denominators_take_the_fallback():
    # The chains state no bound where a q_i^(j+k-1) may leave the normal
    # range; the libm route takes `_pq_moment`'s underflow form there.
    p, q = _padded([1e-45, 3e-40, 0.2], [1e-45, 1e-40, 0.1])
    A = _functional(p, q)
    a, b = A.interval
    moment, error = _chain_moments(p, q, a, b)
    assert q.values[0] ** 11 == 0.0
    for x, y in ((a, b), (b, a)):
        for j, k in ORDERS:
            expected = outcome(_pq_moment, p, q, x, y, j, k)
            assert not isinstance(expected, tuple)
            if j + k >= 8:  # q_0^6 = 1e-270 is normal, q_0^7 = 1e-315 is not
                assert math.isnan(moment(x, y, j, k)) and math.isnan(error(x, y, j, k))
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


@pytest.mark.parametrize(
    "head_p,head_q,x,y,error",
    [
        ([0.3], [0.2], 0.0, 1e200, "OverflowError"),
        # The first summand overflows to +inf (division by a subnormal q_i),
        # the second to -inf (a product beyond -1e308): fsum refuses to add them.
        ([0.5, 0.3], [1e-310, 0.98], -10.0, 1e308, "ValueError"),
        # A q_0 = 0 divides by zero before a later point overflows.
        ([0.5], [0.0], 0.0, 1e200, "ZeroDivisionError"),
    ],
    ids=["overflow", "opposite-infinities", "zero-q"],
)
def test_the_chains_hand_on_what_the_scalar_sum_raises(head_p, head_q, x, y, error):
    p, q = _padded(head_p, head_q)
    moment, bound_of = _chain_moments(p, q, x, y)
    key = (x, y, 1, 1 + (error != "ValueError"))
    assert outcome(_pq_moment, p, q, *key)[0] == error
    assert math.isnan(moment(*key)) and math.isnan(bound_of(*key))


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
    # (b - a)^j and (b - a)^k against 2^1020, read in place: the row source
    # `_table_moment` hands `_moment_reader` gives None where it declines.
    monkeypatch.setattr(functional, "_moment_reader", lambda table, scalar: table)

    def gate_at(top):
        table = DiscreteFunctional([0.0, top], [0.5, 0.5], (0.0, top))._table_moment

        def gate(j, k):
            with np.errstate(all="ignore"):
                return table(j, k) is not None
        return gate

    _assert_the_gate_decides_as_before(gate_at, _gate_tops(functional._CHAIN_MAX), functional._CHAIN_MAX)


def test_the_chain_stage_gate_declines_where_a_float_power_did(monkeypatch):
    # max|p - x q|^j and max|p - y q|^k against 2^1023, on one point with
    # p = q = 1 (so q^d = 1 passes): the chains are read only past the gate.
    reads, honest = [], divergence._chain_table
    monkeypatch.setattr(divergence, "_chain_table", lambda base: (
        lambda e, power=honest(base): reads.append(e) or power(e)))
    monkeypatch.setattr(divergence, "_moment_reader", lambda table, scalar: table)
    one = ProbabilityVector([1.0])

    def gate_at(top):
        table, _ = _chain_moments(one, one, -top, -top)

        def gate(j, k):
            before = len(reads)
            with np.errstate(all="ignore"):
                table(-top, -top, j, k)
            return len(reads) > before
        return gate

    tops = [t for t in _gate_tops(2.0**1023) if 1.0 + t == t]  # base 1 - (-t) 1 = t exactly
    _assert_the_gate_decides_as_before(gate_at, tops, 2.0**1023)


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
PQ_KEYS = KEYS[1:]  # the direct route's keys have j + k >= 1, as every layout's do


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
    """Both batched sources, anchored at a and at b, on the pair's functional."""
    ratios = _ratios(p, q).tolist()
    a, b = interval or (min(ratios), max(ratios))
    A = DiscreteFunctional(ratios, q.values, (a, b))
    for x, y in ((a, b), (b, a)):
        assert_batch_is_scalar(
            lambda keys: _moments(A)(x, y, keys),
            lambda j, k: _moment_sum(A.weights, A.points, a, b, *((j, k) if x == a else (k, j))),
        )
        assert_batch_is_scalar(
            lambda keys: _pq_moments(p, q, x, y, keys), lambda j, k: _pq_moment(p, q, x, y, j, k), PQ_KEYS)


@pytest.mark.parametrize("size", [1, 2, 3, 8, 30, _TABLE_MIN_POINTS - 1])
@pytest.mark.parametrize("make", [_dirichlet_pair, _zm_pair], ids=["dirichlet", "zm"])
def test_the_batched_moments_are_the_scalar_sums(make, size):
    # Heavy-tailed pairs below the gate: every key with j + k <= 12, on both
    # routes and in both orientations, with the scalar sums' bits or first error.
    p, q = make(np.random.default_rng(size), size)
    widen = size == 1  # one point: a degenerate ratio range needs an enclosing interval
    r = float(_ratios(p, q)[0])
    assert_both_routes_are_scalar(p, q, (r / 2, 2 * r) if widen else None)


def test_a_key_list_splits_into_blocks(monkeypatch):
    # At most `_BLOCK` elements per 2-D block: two keys of 30 points here.
    blocks, honest = [], functional._exponents
    monkeypatch.setattr(functional, "_BLOCK", 60)
    monkeypatch.setattr(functional, "_exponents", lambda keys: blocks.append(len(keys)) or honest(keys))
    assert_both_routes_are_scalar(*_dirichlet_pair(np.random.default_rng(30), 30))
    assert max(blocks) == 2


def _planted(head_p, head_q, size=8):
    """Probability vectors of `size` entries: the given heads, then equal tails."""
    tail = size - len(head_p)
    p = list(head_p) + [(1.0 - math.fsum(head_p)) / tail] * tail
    q = list(head_q) + [(1.0 - math.fsum(head_q)) / tail] * tail
    return ProbabilityVector(tuple(p)), ProbabilityVector(tuple(q))


@pytest.mark.parametrize(
    "head_p,head_q,x,y,kind",
    [
        ([0.3], [0.2], 0.0, 1e200, "OverflowError"),  # (p_0 - 1e200 q_0)^2 overflows
        # +inf from a subnormal q_0, -inf from a product beyond -1e308: fsum refuses them.
        ([0.5, 0.3], [1e-310, 0.98], -10.0, 1e308, "ValueError"),
        # q_0^d underflows to 0.0 from d = 7 on: the underflow form, all finite.
        ([1e-45, 3e-40], [1e-45, 1e-40], 1e-3, 10.0, None),
    ],
    ids=["overflow", "opposite-infinities", "underflow-form"],
)
def test_planted_rows_of_the_direct_route(head_p, head_q, x, y, kind, monkeypatch):
    p, q = _planted(head_p, head_q)
    errors = {got[0] for key in PQ_KEYS if isinstance(got := outcome(_pq_moment, p, q, x, y, *key), tuple)}
    assert errors == ({kind} if kind else set()) or kind in errors
    assert_batch_is_scalar(
        lambda keys: _pq_moments(p, q, x, y, keys), lambda j, k: _pq_moment(p, q, x, y, j, k), PQ_KEYS)
    if kind is None:  # the batch forms the underflowing terms itself: no row reruns
        assert q.values[0] ** 11 == 0.0
        want = batched_outcome(_pq_moments, p, q, x, y, PQ_KEYS)
        monkeypatch.setattr(divergence, "_pq_moment", lambda *args: pytest.fail(f"a row reran: {args[4:]}"))
        assert batched_outcome(_pq_moments, p, q, x, y, PQ_KEYS) == want


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
    p, q = ProbabilityVector([0.3, 0.7]), ProbabilityVector([0.6, 0.4])
    assert batched_outcome(_pq_moments, p, q, 0.0, 1e200, ((1, 3),))[0] == "OverflowError"
    assert outcome(direct_bound_values, f, p, q, 0.0, 1e200, n=5, theorem="TM23") == table


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_batches_of_random_keys_are_the_scalar_sums(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 12))
    scale = 10.0 ** rng.uniform(-3, 300)
    x = np.sort(rng.uniform(-scale, scale, size))
    w = rng.dirichlet(np.full(size, 0.2))
    a, b = float(x[0]) - float(rng.uniform(0, scale)), float(x[-1]) + float(rng.uniform(0, scale))
    keys = tuple(PQ_KEYS[i] for i in rng.integers(0, len(PQ_KEYS), int(rng.integers(1, 20))))
    assert batched_outcome(partial_sums(w, x, (a, b)), keys) == scalar_outcome(
        lambda j, k: _moment_sum(w.tolist(), x.tolist(), a, b, j, k), keys)
    p, q = (ProbabilityVector(rng.dirichlet(np.full(size, 0.1))) for _ in range(2))
    assert batched_outcome(_pq_moments, p, q, a, b, keys) == scalar_outcome(
        lambda j, k: _pq_moment(p, q, a, b, j, k), keys)
