"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    AuditConfig,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    audit_brackets,
    audit_identities,
    bound,
    certify_convexity,
    classify,
    divergence_bounds,
    f_divergence,
    lr_difference,
    make_generator,
    n3_closed_form,
    pmf_vector,
    ratio_range,
    zm_divergence_bounds,
)
from elrbounds import oracle


def _report(number: int, label: str):
    def outcome(ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {number} [{label}]: {status}" + (f" ({detail})" if detail else ""))
        assert ok, f"criterion {number} ({label}) failed: {detail}"

    return outcome


def test_criterion_1_lemma_exactness():
    outcome = _report(1, "lemma exactness")
    t0 = time.perf_counter()
    # The suite is fixed: orders 3..7, functionals of up to 20 points.
    assert oracle._N_RANGE == (3, 7) and oracle._MAX_POINTS == 20
    report = audit_identities(AuditConfig(cases=200, seed=42))
    elapsed = time.perf_counter() - t0
    outcome(
        not report.failures and report.max_residual <= 1e-9 and elapsed < 5.0,
        f"max residual {report.max_residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_polynomial_tightness():
    outcome = _report(2, "polynomial tightness")
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n23 = int(rng.integers(3, 8))
        n21 = int(rng.integers(4, 8))
        m21 = int(rng.integers(3, n21))
        ncor = int(rng.choice([5, 7]))
        mcor = int(rng.integers(3, ncor))
        degree = int(rng.integers(0, min(n23, n21, ncor)))
        coeffs = tuple(float(c) for c in rng.uniform(-3.0, 3.0, size=degree + 1))
        lo = float(rng.uniform(-2.0, 2.0))
        hi = float(rng.uniform(lo + 0.5, 3.0))
        f = FunctionModel.from_polynomial(coeffs, (lo, hi))
        r = int(rng.integers(1, 12))
        A = DiscreteFunctional(
            tuple(float(x) for x in rng.uniform(lo, hi, size=r)),
            tuple(float(w) for w in rng.dirichlet(np.ones(r))),
            (lo, hi),
        )
        lr = lr_difference(f, A)
        tol = 1e-9 * (1.0 + abs(lr))
        values = []
        for rep in (
            bound("TM21", f, A, n21, m21, CONVEX),
            bound("TM22", f, A, n21, m21, CONVEX),
            bound("COR21", f, A, ncor, mcor, CONVEX),
            bound("TM23", f, A, n23, None, CONVEX),
            bound("TM24", f, A, n23, None, CONVEX),
        ):
            values += [v for v in (rep.lower, rep.upper) if v is not None]
        worst = max(worst, max(abs(v - lr) for v in values))
        assert all(abs(v - lr) <= tol for v in values), (coeffs, lr, values)
    elapsed = time.perf_counter() - t0
    outcome(elapsed < 2.0, f"worst gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_bracket_containment():
    outcome = _report(3, "bracket containment")
    t0 = time.perf_counter()
    report = audit_brackets(AuditConfig(seed=42, cases_per_theorem=100))
    elapsed = time.perf_counter() - t0
    outcome(
        not report.failures and report.cases == 500 and elapsed < 5.0,
        f"{report.cases} cases, worst escape {report.max_residual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_4_worked_bracket():
    outcome = _report(4, "worked bracket")
    f = FunctionModel.from_polynomial([0, 0, 0, 1], (0.0, 2.0))
    A = DiscreteFunctional((0.5, 1.5), (0.5, 0.5), (0.0, 2.0))
    r23 = bound("TM23", f, A, 3, None, CONVEX)
    r24 = bound("TM24", f, A, 3, None, CONVEX)
    closed_lower, closed_upper = n3_closed_form(f, A)
    checks = [
        abs(r23.lr + 2.25) <= 1e-12,
        abs(r23.lower + 3.0) <= 1e-12,
        abs(r23.upper + 1.5) <= 1e-12,
        abs(r24.lr + 2.25) <= 1e-12,
        abs(r24.lower + 3.0) <= 1e-12,
        abs(r24.upper + 1.5) <= 1e-12,
        abs(r23.lower - r24.lower) <= 1e-12,
        abs(r23.upper - r24.upper) <= 1e-12,
        abs(closed_lower - r23.lower) <= 1e-12,
        abs(closed_upper - r23.upper) <= 1e-12,
    ]
    outcome(all(checks), f"lr={r23.lr}, bracket=[{r23.lower}, {r23.upper}]")


def test_criterion_5_divergence_values():
    outcome = _report(5, "divergence worked values")
    p = ProbabilityVector((0.5, 0.5))
    q = ProbabilityVector((0.25, 0.75))
    # Independent arithmetic oracles, evaluated before comparing.
    hellinger_oracle = 0.5 * sum(
        (math.sqrt(qi) - math.sqrt(pi)) ** 2 for pi, qi in zip(p.values, q.values)
    )
    kl_oracle = sum(pi * math.log(pi / qi) for pi, qi in zip(p.values, q.values))
    hellinger = f_divergence(make_generator(GeneratorSpec("hellinger", domain=(0.5, 2.5))), p, q)
    kl = f_divergence(make_generator(GeneratorSpec("kl", domain=(0.5, 2.5))), p, q)
    checks = [
        abs(hellinger - hellinger_oracle) <= 1e-14,
        abs(kl - kl_oracle) <= 1e-14,
        abs(hellinger - 0.03407417) <= 1e-8,
        abs(kl - 0.1438410) <= 1e-6,
    ]
    outcome(all(checks), f"hellinger={hellinger:.9f}, kl={kl:.8f}")


def test_criterion_6_classification_agreement():
    outcome = _report(6, "classification vs oracle")
    domain = (0.5, 2.0)
    builtins = [
        GeneratorSpec("kl", domain),
        GeneratorSpec("hellinger", domain),
        GeneratorSpec("harmonic", domain),
        GeneratorSpec("jeffreys", domain),
        GeneratorSpec("exp", domain),
        GeneratorSpec("poly", domain, coeffs=(0, 0, 0, 0, 0, 0, 1)),
        GeneratorSpec("power", domain, exponent=1.7),
    ]
    contradictions = []
    for spec in builtins:
        f = make_generator(spec)
        for n in range(2, 7):
            stated = classify(spec, n)
            cert = certify_convexity(f, n, samples=500, seed=1000 + n)
            if stated != cert.verdict:
                contradictions.append((spec.name, n, stated, cert.verdict))
    outcome(not contradictions, f"{len(builtins) * 5} pairs, contradictions={contradictions}")


def test_criterion_7_zipf_mandelbrot():
    outcome = _report(7, "Zipf-Mandelbrot pipeline")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        params = ZipfMandelbrotParams(
            int(rng.integers(1, 10_001)),
            float(rng.uniform(0.0, 5.0)),
            float(rng.uniform(0.2, 4.0)),
        )
        total = math.fsum(pmf_vector(params).values)
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-12
    rr = ratio_range(
        pmf_vector(ZipfMandelbrotParams(2, 0, 1)), pmf_vector(ZipfMandelbrotParams(2, 0, 2))
    )
    assert abs(rr.a - 5.0 / 6.0) <= 1e-12
    assert abs(rr.b - 5.0 / 3.0) <= 1e-12
    # Bit-exact delegation to the materialized-vector path.
    P = ZipfMandelbrotParams(20, 0.3, 1.4)
    Q = ZipfMandelbrotParams(20, 1.1, 1.1)
    spec = GeneratorSpec("jeffreys")
    got = zm_divergence_bounds(P, Q, spec, n=4, theorem="tm24")
    rr2 = ratio_range(pmf_vector(P), pmf_vector(Q))
    f = make_generator(GeneratorSpec("jeffreys", domain=(rr2.a, rr2.b)))
    want = divergence_bounds(
        f, pmf_vector(P), pmf_vector(Q), n=4, theorem="tm24",
        convexity=classify(GeneratorSpec("jeffreys", domain=(rr2.a, rr2.b)), 4),
        interval=(rr2.a, rr2.b),
    )
    # divergence_bounds resolves the interval, generator and class itself.
    via_spec = divergence_bounds(spec, pmf_vector(P), pmf_vector(Q), n=4, theorem="tm24", convexity=None)
    exact = got == want == via_spec
    outcome(exact, f"normalization worst {worst:.2e}, bit-exact={exact}")


def test_criterion_8_delegation_crosscheck():
    # The delegated report is checked against lr by the certifying gate: each side
    # must lie on its predicted side of lr by more than the stated rounding error.
    outcome = _report(8, "the gate certifies the right class and contradicts the wrong one")
    rng = np.random.default_rng(88)
    counts = Counter()
    for theorem, needs_m in (
        ("TM21", True), ("TM22", True), ("COR21", True), ("TM23", False), ("TM24", False),
    ):
        for _ in range(10):
            if theorem == "COR21":
                n = int(rng.choice([5, 7]))
            elif needs_m:
                n = int(rng.integers(4, 8))
            else:
                n = int(rng.integers(3, 8))
            m = int(rng.integers(3, n)) if needs_m else None
            r = int(rng.integers(2, 15))
            qv = tuple(float(x) for x in rng.dirichlet(np.ones(r) * 3.0))
            x = rng.uniform(0.5, 2.0, size=r)
            p_raw = np.array(qv) * x
            p = ProbabilityVector(tuple(float(v) for v in p_raw / p_raw.sum()))
            q = ProbabilityVector(qv)
            rr = ratio_range(p, q)
            name = ("kl", "hellinger", "harmonic", "jeffreys")[int(rng.integers(0, 4))]
            spec = GeneratorSpec(name, domain=(rr.a, rr.b))
            right = classify(spec, n)
            for convexity in (CONVEX, CONCAVE):
                try:
                    rep = divergence_bounds(spec, p, q, n=n, m=m, theorem=theorem, convexity=convexity)
                    verdict = "certified"
                    assert rep.lower is None or rep.lower < rep.lr
                    assert rep.upper is None or rep.lr < rep.upper
                except RuntimeError as exc:
                    verdict = str(exc).split(": ")[-1]
                counts["right" if convexity == right else "wrong", verdict] += 1
    detail = ", ".join(f"{k[0]} class {k[1]}: {v}" for k, v in sorted(counts.items()))
    outcome(
        counts["right", "contradicted by lr"] == 0 == counts["wrong", "certified"]
        and counts["right", "certified"] > 25 and counts["wrong", "contradicted by lr"] > 25,
        detail,
    )


def test_criterion_9_negative_control():
    outcome = _report(9, "negative control")
    report = audit_brackets(
        AuditConfig(seed=42, cases_per_theorem=20, inject_wrong_parity=True)
    )
    detailed = report.failures and all(
        {"theorem", "claimed", "certified", "violation"} <= set(f) for f in report.failures
    )
    outcome(
        bool(report.failures) and bool(detailed),
        f"{len(report.failures)} injected violations reported",
    )
