"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: divided
differences are recomputed with the partial-fraction (Lagrange) sum, chord
gaps with plain loops, and derivative stacks with high-precision central
differences in the generator tests.
"""

from __future__ import annotations

import contextlib
import math
import re
from functools import cache

import numpy as np
import pytest

from elrbounds import DiscreteFunctional, FunctionModel, GeneratorSpec, divergence, functional, make_generator
from elrbounds.bounds import _family, _moments
from elrbounds.divergence import _ETA, _UP, _gamma
from elrbounds.divided_diff import _U, _float_power


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


_SIDES = ("lower", "upper")
_REFUSAL = re.compile(
    r"\w+ (?P<side>lower|upper): delegated value (?P<delegated>\S+) and direct value (?P<direct>\S+) differ"
)


def keeps_the_outcome(libm, chained, sides_and_bounds) -> bool:
    """True when `chained`, an op's outcome with the functional's chains and the
    crosscheck's chain stage, is one they may give where the point-by-point
    moments and the libm route alone give `libm`.

    Outcomes are report dicts with float.hex values or (type name, text).
    `sides_and_bounds()` returns the libm sides, (lower, upper) from
    `direct_bound_values`, the chain stage's bound E of each, and the bound S
    of each delegated side's distance from the point-by-point one
    (`side_bounds`); it is called only when the outcomes differ.  Allowed:
    - both report, and only the sides differ, each by at most S;
    - the libm route refused a side that `chained` reports within S of the
      refused delegated value;
    - `chained` refuses a side whose delegated value is more than 1e-12 from
      the libm side (so the libm route refuses it too), with the direct value
      it prints within E of the libm side; where `libm` reports, that
      delegated value is within S of its side.
    """
    if chained == libm:
        return True
    sides, bounds, moved = sides_and_bounds()

    def side(report, i):
        return None if report[_SIDES[i]] is None else float.fromhex(report[_SIDES[i]])

    def near(x, y, i):
        return x is None and y is None or x is not None and y is not None and abs(x - y) <= moved[i]

    ours, theirs = (_REFUSAL.match(o[1]) if isinstance(o, tuple) else None for o in (chained, libm))
    if isinstance(chained, dict) and isinstance(libm, dict):
        rest = [{key: v for key, v in o.items() if key not in _SIDES} for o in (chained, libm)]
        return rest[0] == rest[1] and all(near(side(chained, i), side(libm, i), i) for i in (0, 1))
    if isinstance(chained, dict):
        if theirs is None:
            return False
        i = _SIDES.index(theirs["side"])
        return near(side(chained, i), float(theirs["delegated"]), i)
    if ours is None or not (isinstance(libm, dict) or theirs):
        return False
    i = _SIDES.index(ours["side"])
    delegated = float(ours["delegated"])
    if not (abs(delegated - sides[i]) > 1e-12 and abs(float(ours["direct"]) - sides[i]) <= bounds[i]):
        return False
    return not isinstance(libm, dict) or near(delegated, side(libm, i), i)


@contextlib.contextmanager
def chains_off():
    """The chain stage off: from `_TABLE_MIN_POINTS` points on, every crosscheck is
    the libm route's check of the point-by-point moments' report, as it was before
    the stage existed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_chain_bound_values", lambda *args: None)
        yield


def libm_power_table(base):
    """e -> base ** e by libm `pow`, each exponent raised once: the reference for `_chain_table`."""
    return cache(lambda e: 1.0 if e == 0 else base if e == 1 else _float_power(base, float(e)))


def table_moment_bound(A: DiscreteFunctional, j: int, k: int) -> float:
    """The bound `DiscreteFunctional._table_moment` states on |A.moment(j, k) - the
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
    `family.terms`, as `divergence._chain_bound_values` feeds the chain stage's."""
    family, a = _family(tag), A.interval[0]
    tables: dict = {}

    def sides(moment):
        return family.terms(f, A.interval, n, m, moment, A.mean, tables)

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
    inf, so `_store` turns every later functional's chains off (and with them the
    crosscheck's chain stage); the patch ends with the test.
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
