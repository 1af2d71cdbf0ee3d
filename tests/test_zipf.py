"""Zipf-Mandelbrot pmfs, ratio extrema and the bound pipeline."""

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
    classify,
    divergence_bounds,
    make_generator,
    normalizer,
    pmf,
    pmf_vector,
    ratio_extrema,
    zm_divergence_bounds,
)


# --- normalizer and pmf ------------------------------------------------------


def test_normalizer_worked_values():
    assert normalizer(ZipfMandelbrotParams(2, 0, 1)) == pytest.approx(1.5, abs=1e-15)
    assert normalizer(ZipfMandelbrotParams(1, 3.7, 2.2)) == pytest.approx(
        (1 + 3.7) ** -2.2, abs=1e-15
    )
    assert normalizer(ZipfMandelbrotParams(3, 1, 2)) == pytest.approx(
        1 / 4 + 1 / 9 + 1 / 16, abs=1e-15
    )


def test_pmf_worked_values():
    assert pmf(1, ZipfMandelbrotParams(2, 0, 1)) == pytest.approx(2.0 / 3.0)
    h = 1 / 4 + 1 / 9 + 1 / 16
    assert pmf(2, ZipfMandelbrotParams(3, 1, 2)) == pytest.approx((1 / 9) / h)


def test_pmf_normalization():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = ZipfMandelbrotParams(
            int(rng.integers(1, 500)), float(rng.uniform(0, 4)), float(rng.uniform(0.3, 3))
        )
        total = math.fsum(pmf(i, params) for i in range(1, params.N + 1))
        assert abs(total - 1.0) <= 1e-12
        vector = pmf_vector(params)
        assert isinstance(vector, ProbabilityVector)
        assert (vector.values[0], vector.values[-1]) == (pmf(1, params), pmf(params.N, params))


def test_pmf_out_of_support_rejected():
    with pytest.raises(ValueError, match="support"):
        pmf(0, ZipfMandelbrotParams(3, 0, 1))
    with pytest.raises(ValueError, match="support"):
        pmf(4, ZipfMandelbrotParams(3, 0, 1))


def test_parameter_validation():
    with pytest.raises(ValueError, match="positive integer"):
        ZipfMandelbrotParams(0, 0, 1)
    with pytest.raises(ValueError, match="q must be"):
        ZipfMandelbrotParams(3, -0.5, 1)
    with pytest.raises(ValueError, match="s must be"):
        ZipfMandelbrotParams(3, 0, 0.0)


# --- ratio extrema --------------------------------------------------------------


def test_ratio_extrema_worked_value():
    rr = ratio_extrema(ZipfMandelbrotParams(2, 0, 1), ZipfMandelbrotParams(2, 0, 2))
    assert rr.a == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert rr.b == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_ratio_extrema_identical_laws():
    params = ZipfMandelbrotParams(5, 1.2, 1.4)
    rr = ratio_extrema(params, params)
    assert rr.a == pytest.approx(1.0, abs=1e-15)
    assert rr.b == pytest.approx(1.0, abs=1e-15)
    assert rr.is_degenerate


def test_ratio_extrema_always_straddles_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        N = int(rng.integers(2, 200))
        P = ZipfMandelbrotParams(N, float(rng.uniform(0, 3)), float(rng.uniform(0.3, 2.5)))
        Q = ZipfMandelbrotParams(N, float(rng.uniform(0, 3)), float(rng.uniform(0.3, 2.5)))
        rr = ratio_extrema(P, Q)
        assert rr.a <= 1.0 + 1e-12 <= rr.b + 2e-12


def test_ratio_extrema_requires_matching_N():
    with pytest.raises(ValueError, match="share N"):
        ratio_extrema(ZipfMandelbrotParams(2, 0, 1), ZipfMandelbrotParams(3, 0, 1))


# --- bound pipeline ---------------------------------------------------------------


def test_zm_bounds_bit_identical_to_materialized_call():
    P = ZipfMandelbrotParams(2, 0, 1)
    Q = ZipfMandelbrotParams(2, 0, 2)
    spec = GeneratorSpec("poly", coeffs=(0, 0, 0, 1))
    got = zm_divergence_bounds(P, Q, spec, n=3, theorem="tm23")
    rr = ratio_extrema(P, Q)
    on_range = GeneratorSpec("poly", coeffs=(0, 0, 0, 1), domain=(rr.a, rr.b))
    assert classify(on_range, 3) == CONVEX
    f = make_generator(on_range)
    want = divergence_bounds(
        f, pmf_vector(P), pmf_vector(Q), n=3, theorem="tm23",
        convexity=CONVEX, interval=(rr.a, rr.b),
    )
    assert got == want  # dataclass equality compares every float bit-for-bit
    # divergence_bounds itself builds the generator on the ratio range and
    # classifies it there: the same bits as the explicit route.
    p, q = pmf_vector(P), pmf_vector(Q)
    assert divergence_bounds(spec, p, q, n=3, theorem="tm23", convexity=None) == want


def test_zm_worked_bracket_against_hand_vectors():
    # N=2 laws materialize to p=(2/3, 1/3), q=(0.8, 0.2).
    P = ZipfMandelbrotParams(2, 0, 1)
    Q = ZipfMandelbrotParams(2, 0, 2)
    p = pmf_vector(P)
    q = pmf_vector(Q)
    assert p.values == pytest.approx((2 / 3, 1 / 3), abs=1e-15)
    assert q.values == pytest.approx((0.8, 0.2), abs=1e-15)
    rep = zm_divergence_bounds(P, Q, GeneratorSpec("poly", coeffs=(0, 0, 0, 1)), n=3, theorem="tm23")
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_zm_large_N_jeffreys_bracket():
    P = ZipfMandelbrotParams(100, 0.0, 1.2)
    Q = ZipfMandelbrotParams(100, 2.7, 1.5)
    rep = zm_divergence_bounds(P, Q, GeneratorSpec("jeffreys"), n=3, theorem="tm24")
    assert rep.direction_valid
    assert rep.case.convexity == CONCAVE  # auto-classified at order 3
    tol = 1e-9 * (1.0 + abs(rep.lr))
    assert rep.lower - tol <= rep.lr <= rep.upper + tol


def test_zm_identical_laws_need_widened_interval():
    P = ZipfMandelbrotParams(4, 0.5, 1.0)
    spec = GeneratorSpec("poly", coeffs=(1.0, 1.0))
    with pytest.raises(ValueError, match="degenerate"):
        zm_divergence_bounds(P, P, spec, n=3, theorem="tm23")
    rep = zm_divergence_bounds(P, P, spec, n=3, theorem="tm23", interval=(0.5, 1.5))
    assert rep.lr == pytest.approx(0.0, abs=1e-12)
    assert rep.lower == pytest.approx(0.0, abs=1e-12)
    assert rep.upper == pytest.approx(0.0, abs=1e-12)


def test_zm_plain_function_model_needs_convexity():
    P = ZipfMandelbrotParams(2, 0, 1)
    Q = ZipfMandelbrotParams(2, 0, 2)
    f = make_generator(GeneratorSpec("exp", domain=(0.5, 2.0)))
    with pytest.raises(ValueError, match="explicit convexity"):
        zm_divergence_bounds(P, Q, f, n=3, theorem="tm23")
    with pytest.raises(ValueError, match="explicit convexity"):
        divergence_bounds(f, pmf_vector(P), pmf_vector(Q), n=3, theorem="tm23")
    rep = zm_divergence_bounds(P, Q, f, n=3, theorem="tm23", convexity=CONVEX)
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12
    assert divergence_bounds(
        f, pmf_vector(P), pmf_vector(Q), n=3, theorem="tm23", convexity=CONVEX
    ) == rep


def test_zm_missing_m_is_a_validation_error():
    P = ZipfMandelbrotParams(5, 0, 1)
    Q = ZipfMandelbrotParams(5, 1, 2)
    with pytest.raises(ValueError, match="m >= 3"):
        zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=5, theorem="tm21")
