"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: divided
differences are recomputed with the partial-fraction (Lagrange) sum, chord
gaps with plain loops, and derivative stacks with high-precision central
differences in the generator tests.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest

from elrbounds import CONVEX, DiscreteFunctional, FunctionModel, GeneratorSpec, functional, make_generator
from elrbounds.bounds import _family, _moments, _side_terms
from elrbounds.divided_diff import _ETA, _U, _UP, _float_power


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error of k roundings (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., lemma 3.1)."""
    return k * _U / (1.0 - k * _U)


def lagrange_dd(fvals, nodes):
    """Divided difference over distinct nodes via sum f(t_i) / prod (t_i - t_j)."""
    total = 0.0
    for i, ti in enumerate(nodes):
        denom = 1.0
        for j, tj in enumerate(nodes):
            if j != i:
                denom *= ti - tj
        total += fvals[i] / denom
    return total


def brute_lr(f, points, weights, a, b):
    """Chord-gap value by direct loops, no fsum, no shared helpers."""
    mean = sum(w * x for w, x in zip(weights, points))
    afg = sum(w * float(f(x)) for w, x in zip(weights, points))
    chord = ((b - mean) * float(f(a)) + (mean - a) * float(f(b))) / (b - a)
    return afg - chord


def poly_model(coeffs, domain=(0.0, 2.0)):
    return FunctionModel.from_polynomial(coeffs, domain)


def exp_model(domain=(-1.0, 2.0)):
    return make_generator(GeneratorSpec("exp", domain=domain))


def pq_moment(p, q, a: float, b: float, j: int, k: int) -> float:
    """sum_i (p_i - a q_i)^j (p_i - b q_i)^k / q_i^(j+k-1), point by point: the probability-sum
    form of the ratio functional's moment A[(g-a)^j (g-b)^k], a summand whose q_i^(j+k-1)
    underflows to 0 as q_i ((p_i - a q_i)/q_i)^j ((p_i - b q_i)/q_i)^k."""
    return math.fsum(
        (pi - a * qi) ** j * (pi - b * qi) ** k / d if (d := qi ** (j + k - 1))
        else qi * ((pi - a * qi) / qi) ** j * ((pi - b * qi) / qi) ** k
        for pi, qi in zip(p, q)
    )


def direct_sides(f, p, q, a: float, b: float, n: int, theorem: str, m=None, convexity=CONVEX) -> tuple:
    """(lower, upper) of family `theorem` from the probability-sum moments (`pq_moment`) instead
    of the functional's: the same term layout and endpoint tables, none of the moment arithmetic."""
    family = _family(theorem)
    moments = lambda x, y, keys: [pq_moment(p, q, x, y, j, k) for j, k in keys]  # noqa: E731
    sides = _side_terms(f, family.resolve(n, m), (a, b), n, moments, 1.0)
    return family.arrange(n, m, convexity, [value for *_, value in sides])[:2]


def libm_power_table(base):
    """e -> base ** e by libm `pow`, each exponent raised once: the reference for `_chain_table`."""
    return cache(lambda e: 1.0 if e == 0 else base if e == 1 else _float_power(base, float(e)))


def table_moment_bound(A: DiscreteFunctional, j: int, k: int) -> float:
    """The bound `DiscreteFunctional._chain_moments` states on |A.moment(j, k) - the
    point-by-point sum|: g sum|t| + alpha, sum|t| over the scalar sum's terms."""
    (a, b), N = A.interval, len(A)
    size = math.fsum(abs(w * (x - a) ** j * (x - b) ** k) for w, x in zip(A.weights, A.points))
    chain, ref = max(j - 1, 0) + max(k - 1, 0) + 2, 2 * ((j > 1) + (k > 1)) + 2
    g = (_gamma(chain) + _gamma(ref)) / (1.0 - max(_gamma(chain), _gamma(ref))) + 3 * _U
    top_x, top_y = (float(np.max(np.abs(A._x - e))) for e in (a, b))
    alpha = 4 * N * _ETA * ((j + k + 6) * max(1.0, top_x) ** j * max(1.0, top_y) ** k + 1)
    return _UP * (g * size * (1 + 2 * N * _U) + alpha)


def side_bounds(tag, f, A: DiscreteFunctional, n, m, convexity) -> tuple:
    """(lower, upper) bounds on the distance of `bound`'s sides on a table functional A
    from the scalar sums' sides: each moment's `table_moment_bound` fed through
    `bounds._side_terms`, and the terms' products and fsum."""
    family, a = _family(tag), A.interval[0]

    def sides(moment):
        return (terms for *_, terms, _ in _side_terms(f, family.resolve(n, m), A.interval, n, moment, A.mean))

    def error(x, y, keys):
        return [table_moment_bound(A, j, k) if x == a else table_moment_bound(A, k, j) for j, k in keys]

    bounds = []
    for terms, errs, leads in zip(sides(_moments(A)), sides(error), sides(lambda x, y, keys: [0.0] * len(keys))):
        carried = sum(abs(e - z) for e, z in zip(errs, leads))
        slack = 3 * _U * sum(map(abs, terms)) + 2 * _U * abs(math.fsum(terms)) + (3 * len(terms) + 2) * _ETA
        bounds.append(_UP * (carried + slack))
    return family.arrange(n, m, convexity, bounds)[:2]


@pytest.fixture
def scalar_moments(monkeypatch):
    """A call that sends the moments of every functional built after it down the
    point-by-point sums: it sets the one gate, `functional._TABLE_MIN_POINTS`, to
    inf, so `_store` turns every later functional's chains off; the patch ends with the test.
    """
    return lambda: monkeypatch.setattr(functional, "_TABLE_MIN_POINTS", math.inf)


@pytest.fixture
def cube():
    """f(t) = t^3 on [0, 2]."""
    return poly_model([0.0, 0.0, 0.0, 1.0])


@pytest.fixture
def worked_functional():
    """Points {0.5, 1.5}, equal weights, interval [0, 2]."""
    return DiscreteFunctional((0.5, 1.5), (0.5, 0.5), (0.0, 2.0))


def random_functional(rng: np.random.Generator, interval, size=None) -> DiscreteFunctional:
    r = int(rng.integers(1, 12)) if size is None else size
    points = tuple(float(x) for x in rng.uniform(interval[0], interval[1], size=r))
    weights = tuple(float(w) for w in rng.dirichlet(np.ones(r)))
    return DiscreteFunctional(points, weights, interval)


def assert_close(actual, expected, rel=1e-12, abs_tol=1e-12):
    assert actual == pytest.approx(expected, rel=rel, abs=abs_tol), (
        f"{actual!r} != {expected!r} (rel={rel}, abs={abs_tol})"
    )
