"""Brute-force numerical verification: convexity certificates and audits.

`certify_convexity` samples divided differences over random well-separated
distinct points and classifies their sign; it needs only function values, so
it is independent of the analytic derivative stacks it is typically used to
double-check.  `audit_identities` replays the two chord-gap decompositions
over a randomized suite and reports the worst identity residual;
`audit_brackets` certifies convexity, evaluates the matching bound family,
and reports any direction violation.  Both audits are deterministic given
the config seed; failures are data in the report, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from .bounds import CONCAVE, CONVEX, THEOREMS
from .divided_diff import FunctionModel
from .functional import DiscreteFunctional, lr_difference
from .generators import INDEFINITE, GeneratorSpec, make_generator

__all__ = [
    "ConvexityCertificate",
    "AuditConfig",
    "AuditReport",
    "certify_convexity",
    "audit_identities",
    "audit_brackets",
]

_SIGN_TOL = 1e-12
# Pairwise separation floor for sampled nodes: the quotient table loses
# accuracy as points coalesce.
_MIN_SEPARATION_FRAC = 1e-6
_IDENTITY_REL_TOL = 1e-9
_BRACKET_REL_TOL = 1e-9


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled-sign verdict on the order-n divided differences of a function.

    The verdict is evidence, not proof: `samples`, `min_dd` and `max_dd` let
    callers judge how much to trust it.
    """

    n: int
    verdict: str
    samples: int
    min_dd: float
    max_dd: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "verdict": self.verdict,
            "samples": self.samples,
            "min_dd": self.min_dd,
            "max_dd": self.max_dd,
            "seed": self.seed,
        }


def _eval_rows(f: FunctionModel, Z: np.ndarray) -> np.ndarray:
    try:
        F = np.asarray(f(Z), dtype=float)
        if F.shape == Z.shape:
            return F
    except Exception:
        pass
    return np.array([[float(f(t)) for t in row] for row in Z])


def _distinct_dd_rows(F: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Top-order divided difference of each row of distinct nodes."""
    T = F.copy()
    n = Z.shape[1] - 1
    for j in range(1, n + 1):
        T = (T[:, 1:] - T[:, :-1]) / (Z[:, j:] - Z[:, : Z.shape[1] - j])
    return T[:, 0]


def certify_convexity(
    f: FunctionModel, n: int, samples: int = 500, seed: int = 0
) -> ConvexityCertificate:
    """Classify f as n-convex / n-concave / indefinite from sampled differences.

    Draws `samples` sets of n+1 distinct uniform points in the domain with
    pairwise separation at least 1e-6 of the domain width, computes the
    order-n divided difference of each set from function values alone, and
    reads the verdict off the extreme values with a 1e-12 sign tolerance.
    Deterministic given the seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, b = f.domain
    gap = _MIN_SEPARATION_FRAC * (b - a)
    rng = np.random.default_rng(seed)
    Z = np.sort(rng.uniform(a, b, size=(samples, n + 1)), axis=1)
    for _ in range(1000):
        bad = np.diff(Z, axis=1).min(axis=1) < gap
        if not bad.any():
            break
        Z[bad] = np.sort(rng.uniform(a, b, size=(int(bad.sum()), n + 1)), axis=1)
    else:
        raise RuntimeError("could not draw well-separated sample points")
    dds = _distinct_dd_rows(_eval_rows(f, Z), Z)
    min_dd = float(dds.min())
    max_dd = float(dds.max())
    if min_dd >= -_SIGN_TOL:
        verdict = CONVEX
    elif max_dd <= _SIGN_TOL:
        verdict = CONCAVE
    else:
        verdict = INDEFINITE
    return ConvexityCertificate(
        n=n, verdict=verdict, samples=samples, min_dd=min_dd, max_dd=max_dd, seed=seed
    )


@dataclass(frozen=True)
class AuditConfig:
    """Random-suite parameters shared by both audits."""

    cases: int = 200
    seed: int = 42
    n_range: tuple[int, int] = (3, 7)
    max_points: int = 20
    cases_per_theorem: int = 100
    certify_samples: int = 120
    theorems: tuple[str, ...] = THEOREMS
    function_pool: tuple[str, ...] = ("exp", "poly", "generator")
    inject_wrong_parity: bool = False


@dataclass
class AuditReport:
    """Outcome of an audit run; `failures` is empty when everything held."""

    suite: str
    seed: int
    cases: int
    skipped: int
    tight: int
    max_residual: float
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "skipped": self.skipped,
            "tight": self.tight,
            "max_residual": self.max_residual,
            "failures": self.failures,
        }


def _sub_interval(rng: np.random.Generator, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = float(rng.uniform(lo, hi - min_width))
    b = float(rng.uniform(a + min_width, hi))
    return a, b


def _random_function(rng: np.random.Generator, pool: tuple[str, ...]) -> FunctionModel:
    kind = pool[int(rng.integers(0, len(pool)))]
    if kind == "exp":
        a, b = _sub_interval(rng, -2.0, 3.0, 0.5)
        return make_generator(GeneratorSpec("exp", domain=(a, b)))
    if kind == "poly":
        a, b = _sub_interval(rng, -2.0, 3.0, 0.5)
        degree = int(rng.integers(0, 9))
        coeffs = tuple(float(c) for c in rng.uniform(-3.0, 3.0, size=degree + 1))
        return FunctionModel.from_polynomial(coeffs, (a, b))
    # Divergence generators stay on ratio-like intervals away from 0, where
    # their derivative stacks are tame.
    name = ("kl", "hellinger", "harmonic", "jeffreys")[int(rng.integers(0, 4))]
    a, b = _sub_interval(rng, 0.4, 2.5, 0.4)
    return make_generator(GeneratorSpec(name, domain=(a, b)))


def _random_functional(
    rng: np.random.Generator, interval: tuple[float, float], max_points: int
) -> DiscreteFunctional:
    r = int(rng.integers(1, max_points + 1))
    points = tuple(float(x) for x in rng.uniform(interval[0], interval[1], size=r))
    weights = tuple(float(w) for w in rng.dirichlet(np.ones(r)))
    return DiscreteFunctional(points=points, weights=weights, interval=interval)


def audit_identities(config: AuditConfig | None = None) -> AuditReport:
    """Replay both decompositions on random configurations.

    Each case checks |lr - (sum of terms + remainder)| <= 1e-9 (1 + |lr|) for
    both anchorings; `max_residual` is the worst relative residual seen.
    Cases whose n exceeds the function's derivative stack are skipped.
    """
    cfg = config or AuditConfig()
    rng = np.random.default_rng(cfg.seed)
    failures: list[dict] = []
    skipped = 0
    max_rel = 0.0
    for idx in range(cfg.cases):
        f = _random_function(rng, cfg.function_pool)
        n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
        m = int(rng.integers(1, n))
        A = _random_functional(rng, f.domain, cfg.max_points)
        if n > f.max_order:
            skipped += 1
            continue
        lr = lr_difference(f, A)
        for label, decompose in (
            ("lemma21", _bounds.decompose_lemma21),
            ("lemma22", _bounds.decompose_lemma22),
        ):
            terms, remainder = decompose(f, A, n, m)
            rel = abs(lr - (math.fsum(terms) + remainder)) / (1.0 + abs(lr))
            max_rel = max(max_rel, rel)
            if rel > _IDENTITY_REL_TOL:
                failures.append(
                    {
                        "case": idx,
                        "identity": label,
                        "function": f.name,
                        "n": n,
                        "m": m,
                        "lr": lr,
                        "residual": rel,
                    }
                )
    return AuditReport(
        suite="identities",
        seed=cfg.seed,
        cases=cfg.cases,
        skipped=skipped,
        tight=0,
        max_residual=max_rel,
        failures=failures,
    )


def _flip(verdict: str) -> str:
    return CONCAVE if verdict == CONVEX else CONVEX


def audit_brackets(config: AuditConfig | None = None) -> AuditReport:
    """Certify convexity, evaluate the matching bound family, check direction.

    Collects `cases_per_theorem` configurations with a definite certificate
    per theorem tag; indefinite draws are skipped.  A case where the chord
    gap meets its bound(s) within tolerance on every certified side is
    counted as tight.  With `inject_wrong_parity` the claimed convexity class
    is deliberately flipped; the resulting direction violations are the
    negative control for the dispatcher.
    """
    cfg = config or AuditConfig()
    rng = np.random.default_rng(cfg.seed + 1)
    failures: list[dict] = []
    skipped = 0
    tight = 0
    total = 0
    worst = 0.0
    for theorem in cfg.theorems:
        family = _bounds.FAMILIES[theorem]
        # Orders at which the family's direction is certified; that depends on
        # n alone, since the two sides of a bracket share m.
        orders = [
            k for k in range(max(family.min_n, cfg.n_range[0]), cfg.n_range[1] + 1)
            if len(set(family.signs(k, 3, CONVEX))) == len(family.sides)
        ]
        collected = 0
        attempts = 0
        while collected < cfg.cases_per_theorem:
            attempts += 1
            if attempts > 100 * cfg.cases_per_theorem:
                raise RuntimeError(f"unable to collect definite cases for {theorem}")
            f = _random_function(rng, cfg.function_pool)
            n = orders[int(rng.integers(0, len(orders)))]
            m = int(rng.integers(3, n)) if family.takes_m else None
            cert_seed = int(rng.integers(0, 2**31 - 1))
            if n > f.max_order:
                skipped += 1
                continue
            cert = certify_convexity(f, n, samples=cfg.certify_samples, seed=cert_seed)
            if cert.verdict == INDEFINITE:
                skipped += 1
                continue
            A = _random_functional(rng, f.domain, cfg.max_points)
            claimed = _flip(cert.verdict) if cfg.inject_wrong_parity else cert.verdict
            report = _bounds.bound(theorem, f, A, n, m, claimed)
            tol = _BRACKET_REL_TOL * (1.0 + abs(report.lr))
            violation = report.violation()
            worst = max(worst, violation)
            if violation > tol:
                failures.append(
                    {
                        "theorem": theorem,
                        "function": f.name,
                        "n": n,
                        "m": m,
                        "claimed": claimed,
                        "certified": cert.verdict,
                        "lr": report.lr,
                        "lower": report.lower,
                        "upper": report.upper,
                        "violation": violation,
                    }
                )
            else:
                sides = [v for v in (report.lower, report.upper) if v is not None]
                if sides and all(abs(report.lr - v) <= tol for v in sides):
                    tight += 1
            collected += 1
            total += 1
    return AuditReport(
        suite="brackets",
        seed=cfg.seed,
        cases=total,
        skipped=skipped,
        tight=tight,
        max_residual=worst,
        failures=failures,
    )
