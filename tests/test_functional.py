"""Weighted-point functionals: moments, chord gap, construction invariants."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import DiscreteFunctional, lr_difference
from elrbounds.oracle import certify_convexity

from conftest import brute_lr, exp_model, poly_model


# --- apply / moment -----------------------------------------------------------


def test_normalization(worked_functional):
    assert worked_functional.apply(lambda t: 1.0) == pytest.approx(1.0, abs=1e-15)


def test_mean(worked_functional):
    assert worked_functional.apply(lambda t: t) == pytest.approx(1.0)
    assert worked_functional.mean == pytest.approx(1.0)


def test_mean_is_evaluated_once_per_functional(monkeypatch):
    from elrbounds import bound, functional

    rng = np.random.default_rng(3)
    A = DiscreteFunctional(rng.uniform(0.1, 2.0, 5000), rng.dirichlet(np.ones(5000)), (0.1, 2.0))
    calls = []
    honest = functional._sum

    def counting(x):
        calls.append(len(x))
        return honest(x)

    monkeypatch.setattr(functional, "_sum", counting)
    expected = math.fsum((np.asarray(A.weights) * np.asarray(A.points)).tolist())
    assert A.mean.hex() == expected.hex()
    assert calls == [5000]
    calls.clear()
    # COR21 reads A(g) in lr_difference and in each side's lead term.
    bound("COR21", exp_model(domain=(0.1, 2.0)), A, 7, 4, "n-convex")
    assert A.mean.hex() == expected.hex()
    assert len(calls) == 2 * 5 + 1  # five moments a side and A(f); no mean


def _counted_sums(monkeypatch) -> list[int]:
    """The lengths of the arrays `functional._sum` sums from now on, in call order."""
    from elrbounds import functional

    calls = []
    honest = functional._sum

    def counting(x):
        calls.append(len(x))
        return honest(x)

    monkeypatch.setattr(functional, "_sum", counting)
    return calls


def test_a_moment_read_by_both_sides_is_summed_once(monkeypatch):
    from elrbounds import bound

    rng = np.random.default_rng(4)
    A = DiscreteFunctional(rng.uniform(0.1, 2.0, 5000), rng.dirichlet(np.ones(5000)), (0.1, 2.0))
    f = exp_model(domain=(0.1, 2.0))
    A.mean  # noqa: B018 -- summed here, before the count
    calls = _counted_sums(monkeypatch)
    # TM23 n=9: the m=1 side reads A[(g-a)(g-b)^k] for k = 1..7, the m=2 side
    # A[(g-a)(g-b)] again and A[(g-a)^2 (g-b)^k] for k = 1..6.
    first = bound("TM23", f, A, 9, None, "n-convex")
    assert len(calls) == 13 + 1  # thirteen distinct moments and A(f)
    calls.clear()
    # The functional keeps its moments: a second bound sums A(f) alone.
    assert bound("TM23", f, A, 9, None, "n-convex") == first
    assert calls == [5000]


def test_the_closed_form_sums_its_one_moment_once(monkeypatch):
    from elrbounds.bounds import n3_closed_form

    rng = np.random.default_rng(6)
    A = DiscreteFunctional(rng.uniform(0.1, 2.0, 5000), rng.dirichlet(np.ones(5000)), (0.1, 2.0))
    calls = _counted_sums(monkeypatch)
    n3_closed_form(exp_model(domain=(0.1, 2.0)), A)  # both sides read A[(g-a)(g-b)]
    assert calls == [5000]


def test_the_closed_form_reads_its_one_moment_once_below_the_table_gate(monkeypatch):
    # Below the gate nothing keeps a moment, so the closed form itself reads it once.
    from elrbounds.bounds import n3_closed_form

    reads, honest = [], DiscreteFunctional._moments
    monkeypatch.setattr(DiscreteFunctional, "_moments", lambda self, keys: reads.extend(keys) or honest(self, keys))
    rng = np.random.default_rng(6)
    A = DiscreteFunctional(rng.uniform(0.1, 2.0, 10), rng.dirichlet(np.ones(10)), (0.1, 2.0))
    n3_closed_form(exp_model(domain=(0.1, 2.0)), A)
    assert reads == [(1, 1)]


def test_a_dropped_functional_is_freed_without_the_cycle_collector():
    # The moment reader holds the functional's arrays, never the functional:
    # a reference cycle would keep its power tables alive past `del A`.
    from elrbounds import bound
    from elrbounds.bounds import n3_closed_form

    rng = np.random.default_rng(7)
    A = DiscreteFunctional(rng.uniform(0.1, 2.0, 20_000), rng.dirichlet(np.ones(20_000)), (0.1, 2.0))
    f = exp_model(domain=(0.1, 2.0))
    bound("COR21", f, A, 7, 4, "n-convex")
    n3_closed_form(f, A)
    ref = weakref.ref(A)
    gc.disable()
    try:
        del A
        assert ref() is None
    finally:
        gc.enable()


def test_second_moment(worked_functional):
    assert worked_functional.apply(lambda t: t * t) == pytest.approx(1.25)


def test_moment_worked_values(worked_functional):
    assert worked_functional.moment(0, 0) == pytest.approx(1.0)
    assert worked_functional.moment(1, 1) == pytest.approx(-0.75)
    assert worked_functional.moment(1, 0) == pytest.approx(worked_functional.mean - 0.0)


def test_moment_vanishes_on_coincident_endpoints():
    at_a = DiscreteFunctional((0.0, 0.0), (0.5, 0.5), (0.0, 2.0))
    assert at_a.moment(1, 0) == 0.0
    assert at_a.moment(3, 0) == 0.0
    at_b = DiscreteFunctional((2.0, 2.0), (0.25, 0.75), (0.0, 2.0))
    assert at_b.moment(0, 1) == 0.0
    assert at_b.moment(2, 4) == 0.0


def test_moment_rejects_negative_orders(worked_functional):
    with pytest.raises(ValueError, match="^moment order j must be an integer >= 0"):
        worked_functional.moment(-1, 0)


# --- lr_difference --------------------------------------------------------------


def test_lr_worked_value(worked_functional):
    f = poly_model([0, 0, 1])
    assert lr_difference(f, worked_functional) == pytest.approx(-0.75)


def test_lr_vanishes_for_linear_functions(worked_functional):
    f = poly_model([3.0, -2.0])
    assert abs(lr_difference(f, worked_functional)) <= 1e-12


def test_lr_nonpositive_for_convex_functions():
    # Certified 2-convexity implies the chord lies above the function.
    rng = np.random.default_rng(7)
    f = exp_model(domain=(-1.0, 2.0))
    assert certify_convexity(f, 2, samples=200, seed=3).verdict == "n-convex"
    for _ in range(20):
        r = int(rng.integers(1, 10))
        pts = tuple(float(x) for x in rng.uniform(-1.0, 2.0, size=r))
        wts = tuple(float(w) for w in rng.dirichlet(np.ones(r)))
        A = DiscreteFunctional(pts, wts, (-1.0, 2.0))
        assert lr_difference(f, A) <= 1e-12


def test_lr_matches_brute_force():
    f = exp_model(domain=(0.0, 2.0))
    A = DiscreteFunctional((0.2, 0.9, 1.7), (0.2, 0.5, 0.3), (0.0, 2.0))
    assert lr_difference(f, A) == pytest.approx(
        brute_lr(f, A.points, A.weights, 0.0, 2.0), rel=1e-14, abs=1e-14
    )


def test_lr_requires_domain_containment(worked_functional):
    f = poly_model([0, 0, 1], domain=(0.25, 2.0))
    with pytest.raises(ValueError, match="not contained"):
        lr_difference(f, worked_functional)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_lr_invariant_under_merging_duplicate_points(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 6))
    pts = [float(x) for x in rng.uniform(0.1, 1.9, size=r)]
    wts = [float(w) for w in rng.dirichlet(np.ones(2 * r))]
    f = exp_model(domain=(0.0, 2.0))
    duplicated = DiscreteFunctional(tuple(pts + pts), tuple(wts), (0.0, 2.0))
    merged_w = [wts[i] + wts[i + r] for i in range(r)]
    merged = DiscreteFunctional(tuple(pts), tuple(merged_w), (0.0, 2.0))
    assert lr_difference(f, duplicated) == pytest.approx(
        lr_difference(f, merged), abs=1e-12
    )


# --- construction ---------------------------------------------------------------


def test_zero_weight_points_are_retained():
    A = DiscreteFunctional((0.5, 1.5, 1.0), (0.5, 0.5, 0.0), (0.0, 2.0))
    assert len(A) == 3
    assert A.weights[2] == 0.0


def test_weight_sum_renormalized_inside_tolerance():
    eps = 4e-13
    A = DiscreteFunctional((0.5, 1.5), (0.5 + eps, 0.5), (0.0, 2.0))
    assert sum(A.weights) == pytest.approx(1.0, abs=1e-15)


def test_weight_sum_too_far_from_one_rejected():
    with pytest.raises(ValueError, match="sum"):
        DiscreteFunctional((0.5, 1.5), (0.6, 0.5), (0.0, 2.0))


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        DiscreteFunctional((0.5, 1.5), (1.1, -0.1), (0.0, 2.0))
    with pytest.raises(ValueError, match=r"^weights\[1\] = nan is negative$"):
        DiscreteFunctional((0.5, 1.5), (1.0, float("nan")), (0.0, 2.0))


def test_point_outside_interval_rejected():
    with pytest.raises(ValueError, match="outside interval"):
        DiscreteFunctional((0.5, 2.5), (0.5, 0.5), (0.0, 2.0))
    with pytest.raises(ValueError, match=r"^points\[0\] = -inf outside interval \[0.0, 2.0\]$"):
        DiscreteFunctional((-np.inf, 1.5), (0.5, 0.5), (0.0, 2.0))


def test_nan_point_rejected():
    with pytest.raises(ValueError, match=r"^points\[1\] = nan outside interval \[0.5, 2.0\]$"):
        DiscreteFunctional((0.5, float("nan"), 2.0), (0.3, 0.4, 0.3), (0.5, 2.0))


def _offenders(N, first, second, i, j, fill):
    values = [fill] * N
    values[i], values[j] = first, second
    return values


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize(
    "first,second,text",
    [(-0.25, float("nan"), "-0.25"), (float("nan"), -1.0, "nan"), (-1e-300, -0.5, "-1e-300")],
)
def test_first_bad_weight_is_reported(N, first, second, text):
    i, j = N // 3, N - 2
    weights = _offenders(N, first, second, i, j, 1.0 / N)
    with pytest.raises(ValueError, match=rf"^weights\[{i}\] = {text} is negative$"):
        DiscreteFunctional([1.0] * N, weights, (0.0, 2.0))


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize(
    "first,second,text",
    [(2.5, float("nan"), "2.5"), (float("nan"), -1.0, "nan"), (-0.5, 3.0, "-0.5")],
)
def test_first_point_outside_interval_is_reported(N, first, second, text):
    i, j = N // 3, N - 2
    points = _offenders(N, first, second, i, j, 1.0)
    with pytest.raises(ValueError, match=rf"^points\[{i}\] = {text} outside interval"):
        DiscreteFunctional(points, [1.0 / N] * N, (0.0, 2.0))


def test_tuple_list_and_array_inputs_build_equal_functionals():
    points, weights = (0.25, 1.0, 1.75), (0.2, 0.5, 0.3)
    built = [
        DiscreteFunctional(make(points), make(weights), (0.0, 2.0))
        for make in (tuple, list, np.array, iter)
    ]
    assert all(A == built[0] for A in built)
    for A in built:
        assert type(A.points) is tuple and type(A.weights) is tuple
        assert all(type(x) is float for x in A.points + A.weights)


def test_functional_keeps_its_own_copy_of_array_inputs():
    points = np.array([0.25, 1.0, 1.75])
    A = DiscreteFunctional(points, np.array([0.2, 0.5, 0.3]), (0.0, 2.0))
    points[0] = 5.0
    assert A.points[0] == 0.25
    assert A.mean == math.fsum([0.2 * 0.25, 0.5 * 1.0, 0.3 * 1.75])


def test_endpoints_are_allowed():
    A = DiscreteFunctional((0.0, 2.0), (0.5, 0.5), (0.0, 2.0))
    assert A.mean == pytest.approx(1.0)


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError, match="a < b"):
        DiscreteFunctional((1.0,), (1.0,), (1.0, 1.0))


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="equal length"):
        DiscreteFunctional((0.5, 1.5), (1.0,), (0.0, 2.0))


def test_dict_round_trip(worked_functional):
    data = worked_functional.to_dict()
    assert DiscreteFunctional.from_dict(data) == worked_functional
    with pytest.raises(ValueError, match="points/weights/interval"):
        DiscreteFunctional.from_dict({"points": [1.0]})
