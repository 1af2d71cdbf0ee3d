"""Confluent table, Newton/Hermite forms and remainders."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    FunctionModel,
    GeneratorSpec,
    NewtonForm,
    NodeMultiset,
    divided_difference,
    hermite_mn,
    make_generator,
    newton_interpolant,
    remainder_R,
)

from elrbounds.divided_diff import endpoint_table

from conftest import exp_model, lagrange_dd, poly_model


# --- divided_difference -----------------------------------------------------


def test_second_difference_of_quadratic_is_leading_coeff():
    f = poly_model([0, 0, 1])
    assert divided_difference(f, NodeMultiset.from_points([0, 1, 2])) == pytest.approx(1.0)


def test_fully_confluent_equals_scaled_derivative():
    # Triple node at 0: value is exp''(0)/2! = 0.5.
    f = exp_model()
    assert divided_difference(f, NodeMultiset(((0.0, 3),))) == pytest.approx(0.5, abs=1e-15)


def test_mixed_confluent_hand_table():
    # t^3 over {0, 0, 1}: f[0,0]=0, f[0,1]=1, so f[0,0,1]=1.
    f = poly_model([0, 0, 0, 1])
    assert divided_difference(f, NodeMultiset(((0.0, 2), (1.0, 1)))) == pytest.approx(1.0)


def test_entry_order_of_distinct_nodes_is_irrelevant():
    f = exp_model()
    forward = divided_difference(f, NodeMultiset(((0.0, 1), (0.5, 2), (1.5, 1))))
    backward = divided_difference(f, NodeMultiset(((1.5, 1), (0.0, 1), (0.5, 2))))
    assert forward == backward


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(-20, 0),
    st.lists(st.integers(4, 8), min_size=1, max_size=5),
    st.randoms(),
)
def test_matches_lagrange_sum_for_distinct_nodes(start, gaps, rand):
    # Gap-controlled grid (separation >= 0.2) keeps both routes well conditioned.
    grid = [start]
    for g in gaps:
        grid.append(grid[-1] + g)
    nodes = [g / 20.0 for g in grid]
    rand.shuffle(nodes)
    f = exp_model(domain=(-1.5, 2.5))
    expected = lagrange_dd([math.exp(t) for t in nodes], nodes)
    got = divided_difference(f, NodeMultiset.from_points(nodes))
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6),
    st.integers(-20, 0),
    st.lists(st.integers(3, 6), min_size=0, max_size=6),
)
def test_polynomial_annihilation_and_leading_coefficient(coeffs, start, gaps):
    # Degree-d polynomial: the order-d difference is the leading coefficient,
    # anything higher annihilates.  Separation >= 0.3 keeps rounding in check.
    grid = [start]
    for g in gaps:
        grid.append(grid[-1] + g)
    nodes = [g / 10.0 for g in grid]
    f = poly_model(coeffs, domain=(-2.5, 4.0))
    degree = len(coeffs) - 1
    count = len(nodes)
    value = divided_difference(f, NodeMultiset.from_points(nodes))
    if count == degree + 1:
        assert value == pytest.approx(coeffs[-1], rel=1e-10, abs=1e-10)
    elif count >= degree + 2:
        assert abs(value) <= 1e-10 * (1.0 + abs(coeffs[-1]))


def test_recursion_consistency_for_distinct_nodes():
    f = exp_model()
    nodes = [-0.8, -0.1, 0.4, 1.1, 1.9]
    full = divided_difference(f, NodeMultiset.from_points(nodes))
    left = divided_difference(f, NodeMultiset.from_points(nodes[:-1]))
    right = divided_difference(f, NodeMultiset.from_points(nodes[1:]))
    assert (right - left) / (nodes[-1] - nodes[0]) == pytest.approx(full, abs=1e-11)


def test_node_outside_domain_rejected():
    f = poly_model([0, 1], domain=(0.0, 1.0))
    with pytest.raises(ValueError, match="outside domain"):
        divided_difference(f, NodeMultiset.from_points([0.5, 2.0]))


def test_insufficient_derivative_order_rejected():
    f = FunctionModel(fn=lambda t: t * t, deriv_fn=lambda k, t: 2.0 * t, domain=(0, 2), max_order=1)
    with pytest.raises(ValueError, match="max_order"):
        divided_difference(f, NodeMultiset(((1.0, 3),)))


def test_empty_multiset_rejected():
    with pytest.raises(ValueError, match="empty"):
        NodeMultiset(())


def test_nearly_equal_distinct_nodes_rejected():
    with pytest.raises(ValueError, match="closer than"):
        NodeMultiset(((1.0, 1), (1.0 + 2e-14, 1)))


def test_exactly_equal_entries_merge():
    ms = NodeMultiset(((1.0, 1), (1.0, 2), (0.0, 1)))
    assert ms.entries == ((0.0, 1), (1.0, 3))
    assert len(ms.flatten()) == 4
    assert ms.max_multiplicity == 3


@pytest.mark.parametrize(
    "points",
    [[2.0, 1.0, 2.0, 2.0], [0.0, -0.0, 1.0], [-0.0, 0.0], [3, 1.5, np.float64(0.5), 1.5], [1.0, math.nan],
     [math.nan, None]],
    ids=["duplicates", "zero-then-minus-zero", "minus-zero-then-zero", "unsorted", "nan", "non-number-after-nan"],
)
def test_from_points_is_the_constructors_merge(points):
    # The same entries (hex keeps -0.0 apart from 0.0), or the same error type and text.
    def entries(make):
        try:
            return [(v.hex(), c) for v, c in make().entries]
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    merged = entries(lambda: NodeMultiset(tuple((float(p), 1) for p in points)))
    assert entries(lambda: NodeMultiset.from_points(iter(points))) == merged


# --- endpoint_table -----------------------------------------------------------

_KINDS = ("kl", "hellinger", "harmonic", "jeffreys", "exp", "power")


def _endpoint_intervals(rng):
    """Seeded intervals 1e-3 to 1e3 wide, one of each width starting at 1e-6."""
    for width in (1e-3, 1e-1, 1e1, 1e3):
        yield 1e-6, 1e-6 + width
        a = float(rng.uniform(0.1, 2.0))
        yield a, a + width * float(rng.uniform(1.0, 3.0))


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("kind", _KINDS)
def test_endpoint_table_is_the_confluent_table_bit_for_bit(kind):
    rng = np.random.default_rng(_KINDS.index(kind))
    for a, b in _endpoint_intervals(rng):
        f = make_generator(GeneratorSpec(kind, domain=(a, b), exponent=2.5))
        for n in range(3, 13):
            for x, y in ((a, b), (b, a)):
                table = endpoint_table(f, x, y, n, n)
                for i in range(n + 1):
                    for j in range(n - i + 1):
                        if i + j == 0:
                            continue
                        nodes = NodeMultiset(tuple((t, c) for t, c in ((x, i), (y, j)) if c))
                        assert table[i][j].hex() == divided_difference(f, nodes).hex(), (
                            kind, a, b, n, x, i, j,
                        )


def test_endpoint_table_sub_rectangles_agree():
    f = exp_model(domain=(0.0, 2.0))
    full = endpoint_table(f, 2.0, 0.0, 6, 6)
    for rows in range(1, 7):
        for cols in range(1, 7):
            part = endpoint_table(f, 2.0, 0.0, rows, cols)
            assert [r[: cols + 1] for r in full[: rows + 1]] == part


def test_endpoint_table_reads_integral_float_sizes_as_ints():
    f = exp_model(domain=(0.0, 2.0))
    assert endpoint_table(f, 0.0, 2.0, 3.0, np.int64(2)) == endpoint_table(f, 0.0, 2.0, 3, 2)


# --- newton_interpolant -----------------------------------------------------


def test_two_point_form_is_the_chord():
    f = exp_model()
    form = newton_interpolant(f, NodeMultiset.from_points([0.0, 1.0]))
    assert form.coeffs[0] == pytest.approx(1.0)
    assert form.coeffs[1] == pytest.approx(math.e - 1.0)
    assert form(0.3) == pytest.approx(1.0 + 0.3 * (math.e - 1.0))


def test_cubic_reproduced_by_four_node_hermite():
    # {0 x2, 2 x2} has four conditions, so the remainder of a cubic vanishes.
    f = poly_model([0, 0, 0, 1])
    form = newton_interpolant(f, NodeMultiset(((0.0, 2), (2.0, 2))))
    r = remainder_R(f, 0.0, 2.0, 2, 4, 1.0)
    assert r == pytest.approx(0.0, abs=1e-13)
    assert form(1.0) + r == pytest.approx(1.0)


@pytest.mark.parametrize("coeffs", [[2.0], [1.0, -1.0], [0.5, 0.0, 2.0], [1, 2, 3, 4]])
def test_interpolation_exactness_on_low_degree_polynomials(coeffs):
    f = poly_model(coeffs, domain=(-1.0, 3.0))
    nodes = NodeMultiset(((-0.5, 1), (0.5, 2), (2.5, len(coeffs))))
    form = newton_interpolant(f, nodes)
    for t in np.linspace(-1.0, 3.0, 10):
        assert form(float(t)) == pytest.approx(f(float(t)), rel=1e-10, abs=1e-10)


def test_newton_form_serialization():
    f = poly_model([0, 0, 1])
    form = newton_interpolant(f, NodeMultiset.from_points([0.0, 1.0, 2.0]))
    assert form.to_dict() == {"nodes": [0.0, 1.0, 2.0], "coeffs": [0.0, 1.0, 1.0]}


def _loop_value(form, t):
    """`NewtonForm.__call__` as its own Horner loop was: the reference of the shared recurrence."""
    acc = form.coeffs[-1]
    for i in range(len(form.coeffs) - 2, -1, -1):
        acc = form.coeffs[i] + (t - form.nodes[i]) * acc
    return float(acc)


def _loop_deriv(form, order, t):
    """`NewtonForm.deriv` as its own recurrence was, for an integer order >= 1."""
    d = [0.0] * (order + 1)
    d[0] = float(form.coeffs[-1])
    for i in range(len(form.coeffs) - 2, -1, -1):
        dt = t - form.nodes[i]
        new = [0.0] * (order + 1)
        for j in range(order, 0, -1):
            new[j] = j * d[j - 1] + dt * d[j]
        new[0] = form.coeffs[i] + dt * d[0]
        d = new
    return float(d[order])


def test_newton_form_value_and_derivatives_come_from_one_recurrence():
    # Random forms on confluent nodes (each of 1..5 nodes repeated 1..3 times),
    # coefficients over six decades: every value and derivative keeps its bits.
    rng = np.random.default_rng(30)
    for _ in range(150):
        k = int(rng.integers(1, 6))
        nodes = NodeMultiset(tuple(zip(rng.uniform(-3.0, 3.0, k).tolist(), rng.integers(1, 4, k).tolist())))
        z = nodes.flatten()
        coeffs = (rng.normal(size=len(z)) * 10.0 ** rng.uniform(-3.0, 3.0, len(z))).tolist()
        form = NewtonForm(z, tuple(coeffs))
        for t in [*z[:2], *rng.uniform(-4.0, 4.0, 3).tolist()]:
            assert form(t).hex() == _loop_value(form, t).hex(), (form, t)
            for order in range(1, len(z) + 2):
                assert form.deriv(order, t).hex() == _loop_deriv(form, order, t).hex(), (form, order, t)
    with pytest.raises(ValueError, match="^derivative order must be an integer >= 1, got 0$"):
        form.deriv(0, 0.5)


# --- hermite_mn ---------------------------------------------------------------


def test_m1_n2_is_the_chord(cube):
    form = hermite_mn(cube, 0.0, 2.0, 1, 2)
    for t in (0.0, 0.7, 2.0):
        assert form(t) == pytest.approx(cube(0.0) + t * (cube(2.0) - cube(0.0)) / 2.0)


def test_exp_2_1_coefficients():
    f = exp_model(domain=(0.0, 1.0))
    form = hermite_mn(f, 0.0, 1.0, 2, 3)
    assert form.nodes == (0.0, 0.0, 1.0)
    assert form.coeffs[0] == pytest.approx(1.0)
    assert form.coeffs[1] == pytest.approx(1.0)
    assert form.coeffs[2] == pytest.approx(math.e - 2.0)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (2, 5), (3, 5), (4, 6)])
def test_derivative_matching_conditions(m, n):
    f = exp_model(domain=(0.0, 1.5))
    a, b = 0.0, 1.5
    form = hermite_mn(f, a, b, m, n)
    assert form(a) == pytest.approx(float(f(a)), abs=1e-9)
    for i in range(1, m):
        assert form.deriv(i, a) == pytest.approx(float(f.deriv(i, a)), abs=1e-9)
    assert form(b) == pytest.approx(float(f(b)), abs=1e-9)
    for i in range(1, n - m):
        assert form.deriv(i, b) == pytest.approx(float(f.deriv(i, b)), abs=1e-9)


def test_m_out_of_range_rejected(cube):
    with pytest.raises(ValueError, match=r"^m must be an integer in 1\.\.2, got"):
        hermite_mn(cube, 0.0, 2.0, 0, 3)
    with pytest.raises(ValueError, match=r"^m must be an integer in 1\.\.2, got"):
        hermite_mn(cube, 0.0, 2.0, 3, 3)


# --- remainders ---------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 5)])
def test_remainders_annihilate_low_degree_polynomials(m, n):
    f = poly_model([1.0, -2.0, 0.5, 0.25][: n], domain=(0.0, 2.0))
    for t in (0.3, 1.0, 1.7):
        assert abs(remainder_R(f, 0.0, 2.0, m, n, t)) <= 1e-12
        assert abs(remainder_R(f, 2.0, 0.0, m, n, t)) <= 1e-12


def test_remainders_vanish_exactly_at_endpoints():
    f = exp_model(domain=(0.0, 2.0))
    assert remainder_R(f, 0.0, 2.0, 2, 5, 0.0) == 0.0
    assert remainder_R(f, 0.0, 2.0, 2, 5, 2.0) == 0.0
    assert remainder_R(f, 2.0, 0.0, 2, 5, 2.0) == 0.0
    assert remainder_R(f, 2.0, 0.0, 2, 5, 0.0) == 0.0


def test_remainder_hand_values(cube):
    # t^3, a=0, b=2, m=1, n=3 at t=1: (1)(-1)^2 f[1;0;2,2] = 1, mirror -1.
    assert remainder_R(cube, 0.0, 2.0, 1, 3, 1.0) == pytest.approx(1.0)
    assert remainder_R(cube, 2.0, 0.0, 1, 3, 1.0) == pytest.approx(-1.0)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 3), (2, 4), (3, 5), (4, 7)])
def test_reconstruction_identity(m, n):
    # f(t) = P(t) + R(t) everywhere on the interval.
    f = exp_model(domain=(-0.5, 1.5))
    a, b = -0.5, 1.5
    form = hermite_mn(f, a, b, m, n)
    for t in np.linspace(a, b, 20):
        t = float(t)
        got = form(t) + remainder_R(f, a, b, m, n, t)
        assert got == pytest.approx(float(f(t)), rel=1e-9, abs=1e-12)


def test_mirror_reconstruction_identity():
    # The mirrored remainder belongs to the interpolant on {b x m, a x (n-m)}.
    f = exp_model(domain=(-0.5, 1.5))
    a, b, m, n = -0.5, 1.5, 2, 5
    form = newton_interpolant(f, NodeMultiset(((b, m), (a, n - m))))
    for t in np.linspace(a, b, 20):
        t = float(t)
        got = form(t) + remainder_R(f, b, a, m, n, t)
        assert got == pytest.approx(float(f(t)), rel=1e-9, abs=1e-12)
