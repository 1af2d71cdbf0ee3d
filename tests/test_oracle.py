"""Convexity certification and the audit suites."""

from __future__ import annotations

import math
from dataclasses import replace

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
    decompose_lemma21,
    decompose_lemma22,
    divided_difference,
    lr_difference,
    make_generator,
)
from elrbounds.divided_diff import _values
from elrbounds.oracle import (
    _FUNCTION_KINDS,
    _MIN_SEPARATION_FRAC,
    _distinct_dd_rows,
    _random_function,
    _random_functional,
)

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
    rows = _distinct_dd_rows(_values(f, Z), Z)
    for row, z in zip(rows, Z):
        expected = divided_difference(f, NodeMultiset.from_points([float(v) for v in z]))
        assert float(row) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _row_form(F, Z):
    """Top-order divided difference of each row, stepping along the rows: the
    bitwise reference for the transposed pass of `_distinct_dd_rows`."""
    T = F.copy()
    n = Z.shape[1] - 1
    for j in range(1, n + 1):
        T = (T[:, 1:] - T[:, :-1]) / (Z[:, j:] - Z[:, : Z.shape[1] - j])
    return T[:, 0]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", _FUNCTION_KINDS)
def test_transposed_pass_is_the_row_form_bit_for_bit(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        f, _ = _random_function(rng, (kind,))
        a, b = f.domain
        Z = np.sort(rng.uniform(a, b, size=(120, n + 1)), axis=1)
        F = _values(f, Z)
        expected = _row_form(F, Z)
        assert _distinct_dd_rows(F, Z).tobytes() == expected.tobytes()
        # certify_convexity's extremes are the row form's, on its own draws.
        cert = certify_convexity(f, n, samples=120, seed=n)
        gap = _MIN_SEPARATION_FRAC * (b - a)
        Zc = np.sort(np.random.default_rng(n).uniform(a, b, size=(120, n + 1)), axis=1)
        if np.diff(Zc, axis=1).min() >= gap:
            rows = _row_form(_values(f, Zc), Zc)
            assert (cert.min_dd, cert.max_dd) == (float(rows.min()), float(rows.max()))


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


@pytest.mark.parametrize("name", ["kl", "hellinger", "harmonic", "jeffreys", "exp", "power"])
def test_certificate_is_the_scalar_only_certificate(name):
    # One array call and one call per point give the same samples, bit for bit.
    f = make_generator(GeneratorSpec(name, domain=(0.25, 3.0), exponent=2.7))
    scalar_only = replace(f, fn=lambda t, g=f.fn: g(float(t)))
    for n in (2, 4, 7):
        assert certify_convexity(f, n, samples=50, seed=n) == certify_convexity(scalar_only, n, samples=50, seed=n)


# --- audit_identities ------------------------------------------------------------


def test_default_identity_suite_is_clean():
    report = audit_identities(AuditConfig(cases=120, seed=42))
    assert not report.failures
    assert report.cases == 120
    assert report.max_residual <= 1e-9


def test_polynomial_only_suite_is_exact_to_rounding():
    rng = np.random.default_rng(11)
    for _ in range(80):
        f, _ = _random_function(rng, ("poly",))
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, n))
        A = _random_functional(rng, f.domain)
        lr = lr_difference(f, A)
        for decompose in (decompose_lemma21, decompose_lemma22):
            terms, remainder = decompose(f, A, n, m)
            assert abs(lr - (math.fsum(terms) + remainder)) / (1.0 + abs(lr)) <= 1e-12


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

    def slipped(*args):
        T, M, terms = honest(*args)
        return T, M, terms[:-1]

    monkeypatch.setattr(bounds, "_terms", slipped)
    report = audit_identities(AuditConfig(cases=40, seed=42))
    assert report.failures
    assert {failure["identity"] for failure in report.failures} == {"lemma21", "lemma22"}


def _nan_terms(monkeypatch):
    """Make every side's terms NaN, the table and moments they were formed from left as they are."""
    from elrbounds import bounds

    honest = bounds._terms

    def terms(*args):
        T, M, out = honest(*args)
        return T, M, [math.nan] * len(out)

    monkeypatch.setattr(bounds, "_terms", terms)


def test_nan_sides_fail_the_bracket_audit(monkeypatch):
    # max(0.0, nan) is 0.0: a violation read that way counted a NaN side as held.
    _nan_terms(monkeypatch)
    report = audit_brackets(AuditConfig(cases_per_theorem=5, seed=3))
    assert len(report.failures) == report.cases and report.tight == 0
    assert math.isnan(report.max_residual)
    assert all(math.isnan(failure["violation"]) for failure in report.failures)


def test_nan_terms_fail_the_identity_audit(monkeypatch):
    # nan > tol is False: a residual compared that way counted a NaN identity as held.
    _nan_terms(monkeypatch)
    report = audit_identities(AuditConfig(cases=20, seed=3))
    assert len(report.failures) == 2 * report.cases
    assert math.isnan(report.max_residual)


@pytest.mark.parametrize(
    "field,value",
    [
        ("cases", -3),
        ("cases_per_theorem", -2),
        ("seed", -1),
        ("cases", 2.5),
        ("cases", True),
        ("seed", False),
        ("inject_wrong_parity", "False"),
        ("inject_wrong_parity", 1),
    ],
)
def test_audit_config_rejects_nonsense_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        AuditConfig(**{field: value})


def test_audit_config_accepts_its_defaults_and_numpy_integers():
    assert AuditConfig() == AuditConfig(cases=np.int64(200), seed=np.int64(42))


# --- audit_brackets -----------------------------------------------------------------


def test_default_bracket_suite_has_zero_violations():
    report = audit_brackets(AuditConfig(cases_per_theorem=30, seed=42))
    assert not report.failures
    assert report.cases == 150
    assert report.tight > 0  # low-degree polynomials hit their bounds exactly


def test_wrong_parity_injection_is_caught():
    report = audit_brackets(
        AuditConfig(cases_per_theorem=20, seed=42, inject_wrong_parity=True)
    )
    assert report.failures
    first = report.failures[0]
    assert {"theorem", "claimed", "certified", "violation", "lr"} <= set(first)
    assert first["claimed"] != first["certified"]


@pytest.mark.parametrize("seed", [54522501, 2092831398, 1897170027])
def test_bracket_audit_classes_are_exact(seed, monkeypatch):
    # At these seeds the sampled certificate called a poly n-concave that is
    # not, and its bound escaped.  The audit reads exact classes instead and
    # never calls the sampler.
    from elrbounds import oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the bracket audit sampled a certificate")

    monkeypatch.setattr(oracle, "certify_convexity", refuse)
    assert audit_brackets(AuditConfig(seed=seed)).failures == []


def test_bracket_audit_is_deterministic():
    a = audit_brackets(AuditConfig(cases_per_theorem=10, seed=9))
    b = audit_brackets(AuditConfig(cases_per_theorem=10, seed=9))
    assert a.to_dict() == b.to_dict()
