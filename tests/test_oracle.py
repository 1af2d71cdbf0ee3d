"""Convexity certification and the audit suites."""

from __future__ import annotations

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    INDEFINITE,
    AuditConfig,
    FunctionModel,
    GeneratorSpec,
    NodeMultiset,
    audit_brackets,
    audit_identities,
    certify_convexity,
    divided_difference,
    make_generator,
)
from elrbounds.oracle import _distinct_dd_rows, _eval_rows

from conftest import poly_model


def sin_model(domain=(0.0, 6.0)):
    return FunctionModel(
        fn=np.sin,
        deriv_fn=lambda k, t: np.sin(t + k * np.pi / 2.0),
        domain=domain,
        name="sin",
    )


# --- certify_convexity --------------------------------------------------------


def test_cube_is_3_convex_with_constant_difference():
    cert = certify_convexity(poly_model([0, 0, 0, 1]), 3, samples=100, seed=0)
    assert cert.verdict == CONVEX
    assert cert.min_dd == pytest.approx(1.0, abs=1e-10)
    assert cert.max_dd == pytest.approx(1.0, abs=1e-10)


def test_kl_is_3_concave_on_positive_interval():
    f = make_generator(GeneratorSpec("kl", domain=(0.5, 2.0)))
    cert = certify_convexity(f, 3, samples=400, seed=1)
    assert cert.verdict == CONCAVE
    assert cert.max_dd <= 1e-12


def test_sine_is_indefinite_at_order_3():
    cert = certify_convexity(sin_model(), 3, samples=400, seed=2)
    assert cert.verdict == INDEFINITE
    assert cert.min_dd < -1e-6 < 1e-6 < cert.max_dd


def test_certification_is_deterministic_given_seed():
    f = make_generator(GeneratorSpec("hellinger", domain=(0.5, 2.0)))
    a = certify_convexity(f, 4, samples=200, seed=123)
    b = certify_convexity(f, 4, samples=200, seed=123)
    assert a == b
    c = certify_convexity(f, 4, samples=200, seed=124)
    assert c.min_dd != a.min_dd


def test_negation_mirrors_the_verdict():
    f = make_generator(GeneratorSpec("exp", domain=(0.0, 2.0)))
    cert = certify_convexity(f, 4, samples=150, seed=7)
    mirrored = certify_convexity(-f, 4, samples=150, seed=7)
    assert cert.verdict == CONVEX
    assert mirrored.verdict == CONCAVE
    assert mirrored.min_dd == -cert.max_dd
    assert mirrored.max_dd == -cert.min_dd


def test_certificate_extremes_bound_each_other():
    cert = certify_convexity(sin_model(), 2, samples=50, seed=3)
    assert cert.min_dd <= cert.max_dd
    assert cert.samples == 50


def test_invalid_sample_count_rejected():
    with pytest.raises(ValueError, match="samples"):
        certify_convexity(poly_model([0, 1]), 2, samples=0)


def test_vectorized_rows_match_divided_difference():
    # The row-parallel table is plumbing; it must agree with the public op.
    f = make_generator(GeneratorSpec("kl", domain=(0.5, 2.0)))
    rng = np.random.default_rng(0)
    Z = np.sort(rng.uniform(0.5, 2.0, size=(12, 5)), axis=1)
    rows = _distinct_dd_rows(_eval_rows(f, Z), Z)
    for row, z in zip(rows, Z):
        expected = divided_difference(f, NodeMultiset.from_points([float(v) for v in z]))
        assert float(row) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_scalar_only_functions_fall_back_to_loops():
    calls = []

    def scalar_only(t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalar only")
        calls.append(t)
        return float(t) ** 3

    f = FunctionModel(fn=scalar_only, deriv_fn=lambda k, t: 0.0, domain=(0.0, 1.0), name="s")
    cert = certify_convexity(f, 3, samples=20, seed=4)
    assert cert.verdict == CONVEX
    assert calls  # the loop path actually ran


# --- audit_identities ------------------------------------------------------------


def test_default_identity_suite_is_clean():
    report = audit_identities(AuditConfig(cases=120, seed=42))
    assert report.ok
    assert report.cases == 120
    assert report.max_residual <= 1e-9


def test_polynomial_only_suite_is_exact_to_rounding():
    report = audit_identities(AuditConfig(cases=80, seed=11, function_pool=("poly",)))
    assert report.ok
    assert report.max_residual <= 1e-12


def test_out_of_reach_orders_are_skipped_not_failed():
    report = audit_identities(AuditConfig(cases=30, seed=1, n_range=(13, 15)))
    assert report.ok
    assert report.skipped == 30


def test_report_serialization_shape():
    data = audit_identities(AuditConfig(cases=10, seed=2)).to_dict()
    assert list(data) == [
        "suite", "seed", "cases", "skipped", "tight", "max_residual", "failures",
    ]


def test_layout_slip_fails_identity_audit(monkeypatch):
    # Negative control: both decompositions share one term layout, and
    # dropping its last term must break the identities.
    from elrbounds import bounds

    honest = bounds._terms
    monkeypatch.setattr(bounds, "_terms", lambda *args: honest(*args)[:-1])
    report = audit_identities(AuditConfig(cases=40, seed=42))
    assert not report.ok
    assert {failure["identity"] for failure in report.failures} == {"lemma21", "lemma22"}


# --- audit_brackets -----------------------------------------------------------------


def test_default_bracket_suite_has_zero_violations():
    report = audit_brackets(AuditConfig(cases_per_theorem=30, seed=42))
    assert report.ok
    assert report.cases == 150
    assert report.tight > 0  # low-degree polynomials hit their bounds exactly


def test_wrong_parity_injection_is_caught():
    report = audit_brackets(
        AuditConfig(cases_per_theorem=20, seed=42, inject_wrong_parity=True)
    )
    assert not report.ok
    first = report.failures[0]
    assert {"theorem", "claimed", "certified", "violation", "lr"} <= set(first)
    assert first["claimed"] != first["certified"]


def test_bracket_audit_is_deterministic():
    a = audit_brackets(AuditConfig(cases_per_theorem=10, seed=9))
    b = audit_brackets(AuditConfig(cases_per_theorem=10, seed=9))
    assert a.to_dict() == b.to_dict()
