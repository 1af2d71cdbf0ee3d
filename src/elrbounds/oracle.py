"""Brute-force numerical verification: convexity certificates and audits.

`certify_convexity` samples divided differences over random well-separated
distinct points and classifies their sign; it needs only function values, so
it is independent of the analytic derivative stacks it is typically used to
double-check.  `audit_identities` replays the two chord-gap decompositions
over a randomized suite and reports the worst identity residual;
`audit_brackets` takes each drawn function's exact class from
`generators.classify`, evaluates the matching bound family and reports
any direction violation; it samples no certificate, which could call a
function definite that is not.  Both audits are deterministic given the
config seed; failures are data in the report, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bounds as _bounds
from .bounds import CONCAVE, CONVEX, _worst
from .divided_diff import FunctionModel, _integer, _values
from .functional import DiscreteFunctional, lr_difference
from .generators import INDEFINITE, GeneratorSpec, classify, make_generator

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
# The audit suite's fixed shape: orders n in 3..7, functionals of up to 20
# points, and functions drawn from an exp generator, a random polynomial or a
# divergence generator.  Every model drawn has derivatives up to order 12, and
# every bound family has a certified order in 3..7.
_N_RANGE = (3, 7)
_MAX_POINTS = 20
_FUNCTION_KINDS = ("exp", "poly", "generator")


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
        return asdict(self)


def _distinct_dd_rows(F: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Top-order divided difference of each row of distinct nodes.

    The table runs on contiguous transposed copies, one row per node index,
    so each step is a few ufunc calls over long contiguous rows; every
    element sees the same IEEE operations as in a row-by-row table.
    """
    T, Z = np.ascontiguousarray(F.T), np.ascontiguousarray(Z.T)
    n = len(Z) - 1
    for j in range(1, n + 1):
        T = (T[1:] - T[:-1]) / (Z[j:] - Z[: n + 1 - j])
    return T[0]


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
    n, samples, seed = _integer(n, "n", 1), _integer(samples, "samples", 1), _integer(seed, "seed", 0)
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
    dds = _distinct_dd_rows(_values(f, Z), Z)
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
    """Run parameters shared by both audits over their fixed suite.

    Checked on construction: a field outside its range raises a ValueError
    that names it.  The counts and the seed are integral reals, not bools,
    stored as int, and `inject_wrong_parity` is a bool.
    """

    cases: int = 200
    seed: int = 42
    cases_per_theorem: int = 100
    inject_wrong_parity: bool = False

    def __post_init__(self) -> None:
        for name, low in (("cases", 0), ("seed", 0), ("cases_per_theorem", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        if not isinstance(self.inject_wrong_parity, bool):
            raise ValueError(f"inject_wrong_parity must be a bool, got {self.inject_wrong_parity!r}")


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

    def to_dict(self) -> dict:
        return asdict(self)


def _sub_interval(rng: np.random.Generator, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = float(rng.uniform(lo, hi - min_width))
    b = float(rng.uniform(a + min_width, hi))
    return a, b


def _random_function(rng: np.random.Generator, kinds: tuple[str, ...] = _FUNCTION_KINDS) -> tuple:
    """A drawn function's model and its spec; a poly's model is `from_polynomial`'s, named by its coefficients."""
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "exp":
        spec = GeneratorSpec("exp", domain=_sub_interval(rng, -2.0, 3.0, 0.5))
        return make_generator(spec), spec
    if kind == "poly":
        a, b = _sub_interval(rng, -2.0, 3.0, 0.5)
        degree = int(rng.integers(0, 9))
        coeffs = tuple(float(c) for c in rng.uniform(-3.0, 3.0, size=degree + 1))
        return FunctionModel.from_polynomial(coeffs, (a, b)), GeneratorSpec("poly", (a, b), coeffs)
    # Divergence generators stay on ratio-like intervals away from 0, where
    # their derivative stacks are tame.
    name = ("kl", "hellinger", "harmonic", "jeffreys")[int(rng.integers(0, 4))]
    spec = GeneratorSpec(name, domain=_sub_interval(rng, 0.4, 2.5, 0.4))
    return make_generator(spec), spec


def _random_functional(rng: np.random.Generator, interval: tuple[float, float]) -> DiscreteFunctional:
    r = int(rng.integers(1, _MAX_POINTS + 1))
    points = rng.uniform(interval[0], interval[1], size=r)
    weights = rng.dirichlet(np.ones(r))
    return DiscreteFunctional(points=points, weights=weights, interval=interval)


def audit_identities(config: AuditConfig | None = None) -> AuditReport:
    """Replay both decompositions on random configurations.

    Each case checks |lr - (sum of terms + remainder)| <= 1e-9 (1 + |lr|) for
    both anchorings; `max_residual` is the worst relative residual seen.  A NaN
    residual fails the check and is the worst (`bounds._worst`).
    """
    cfg = config or AuditConfig()
    rng = np.random.default_rng(cfg.seed)
    failures: list[dict] = []
    max_rel = 0.0
    for idx in range(cfg.cases):
        f, _ = _random_function(rng)
        n = int(rng.integers(_N_RANGE[0], _N_RANGE[1] + 1))
        m = int(rng.integers(1, n))
        A = _random_functional(rng, f.domain)
        lr = lr_difference(f, A)
        for label, decompose in (
            ("lemma21", _bounds.decompose_lemma21),
            ("lemma22", _bounds.decompose_lemma22),
        ):
            terms, remainder = decompose(f, A, n, m)
            rel = abs(lr - (math.fsum(terms) + remainder)) / (1.0 + abs(lr))
            max_rel = _worst(max_rel, rel)
            if not rel <= _IDENTITY_REL_TOL:  # NaN fails
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
        skipped=0,
        tight=0,
        max_residual=max_rel,
        failures=failures,
    )


def audit_brackets(config: AuditConfig | None = None) -> AuditReport:
    """Take the exact class, evaluate the matching bound family, check direction.

    Collects `cases_per_theorem` configurations with a definite class per
    theorem tag; indefinite draws are skipped.  A case where the chord
    gap meets its bound(s) within tolerance on every certified side is
    counted as tight; a NaN violation (`BoundReport.violation`) is a failure, and
    the worst.  With `inject_wrong_parity` the claimed convexity class
    is deliberately flipped; the resulting direction violations are the
    negative control for the dispatcher.
    """
    cfg = config or AuditConfig()
    rng = np.random.default_rng(cfg.seed + 1)
    failures: list[dict] = []
    skipped = 0
    tight = 0
    worst = 0.0
    for theorem, family in _bounds.FAMILIES.items():
        # Orders at which the family's direction is certified; that depends on
        # n alone, since the two sides of a bracket share m.
        orders = [
            k for k in range(max(family.min_n, _N_RANGE[0]), _N_RANGE[1] + 1)
            if family.arrange(k, 3, CONVEX, [0.0] * len(family.sides))[2]
        ]
        collected = 0
        attempts = 0
        while collected < cfg.cases_per_theorem:
            attempts += 1
            if attempts > 100 * cfg.cases_per_theorem:
                raise RuntimeError(f"unable to collect definite cases for {theorem}")
            f, spec = _random_function(rng)
            n = orders[int(rng.integers(0, len(orders)))]
            m = int(rng.integers(3, n)) if family.takes_m else None
            rng.integers(0, 2**31 - 1)  # drawn and unused: it keeps each seed's cases as they were
            certified = classify(spec, n)
            if certified == INDEFINITE:
                skipped += 1
                continue
            A = _random_functional(rng, f.domain)
            claimed = {CONVEX: CONCAVE, CONCAVE: CONVEX}[certified] if cfg.inject_wrong_parity else certified
            report = _bounds.bound(theorem, f, A, n, m, claimed)
            tol = _BRACKET_REL_TOL * (1.0 + abs(report.lr))
            violation = report.violation()
            worst = _worst(worst, violation)
            if not violation <= tol:  # NaN fails
                failures.append(
                    {
                        "theorem": theorem,
                        "function": f.name,
                        "n": n,
                        "m": m,
                        "claimed": claimed,
                        "certified": certified,
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
    return AuditReport(
        suite="brackets",
        seed=cfg.seed,
        cases=len(_bounds.FAMILIES) * cfg.cases_per_theorem,
        skipped=skipped,
        tight=tight,
        max_residual=worst,
        failures=failures,
    )
