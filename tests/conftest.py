"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: divided
differences are recomputed with the partial-fraction (Lagrange) sum, chord
gaps with plain loops, and derivative stacks with high-precision central
differences in the generator tests.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import elrbounds
from elrbounds import DiscreteFunctional, FunctionModel, GeneratorSpec, make_generator


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


def is_refusal_flip(libm, chained) -> bool:
    """True when `libm`, an outcome ("RuntimeError", text) of the crosscheck's libm
    route, refused the report that `chained`, a report dict with float.hex
    values, carries: the side it names is bit for bit the refused delegated value."""
    if not (isinstance(libm, tuple) and libm[0] == "RuntimeError" and isinstance(chained, dict)):
        return False
    side, value = re.match(r"\w+ (lower|upper): delegated value (\S+) and", libm[1]).groups()
    return float.fromhex(chained[side]) == float(value)


@pytest.fixture
def scalar_moments(monkeypatch):
    """A call that sends every later moment down the point-by-point sums.

    It sets `_TABLE_MIN_POINTS` to inf in every elrbounds module that binds
    the name (read from `vars(module)`, so a copy of the gate in a new module
    is patched too); the patch ends with the test.
    """
    modules = [
        importlib.import_module(f"elrbounds.{info.name}")
        for info in pkgutil.iter_modules(elrbounds.__path__)
    ]

    def scalar_everywhere():
        for module in modules:
            if "_TABLE_MIN_POINTS" in vars(module):
                monkeypatch.setattr(module, "_TABLE_MIN_POINTS", math.inf)

    return scalar_everywhere


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
