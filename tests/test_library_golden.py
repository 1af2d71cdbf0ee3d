"""Golden library outcomes on large inputs: every value must stay bit for bit.

The CLI goldens use a handful of points, so they never reach the moment
chains (64 points and up) or the certified sum (1,024 elements and up).
This file pins the library calls that do, in `tests/golden/library.json`:

- `zm_divergence_bounds` at N = 20,000 for every theorem tag and the four
  divergence generators at two orders;
- `divergence_bounds` on Dirichlet pairs with K = 63, 65 and 5,000 entries
  (either side of the functional's chain gate), concentration 1 (wide ratio
  ranges) and 20 (ratios near 1), with the gate's refusals;
- `lr_difference` at N = 20,000, and both decompositions at N = 5,000, of
  negated, `dataclasses.replace`d, scalar-only and polynomial models;
- `certify_convexity` on the same kinds of model.

Values are stored as `float.hex`, errors as their type and text.
Regenerate after an intended change with

    PYTHONPATH=src python tests/test_library_golden.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from elrbounds import (
    FAMILIES,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    certify_convexity,
    decompose_lemma21,
    decompose_lemma22,
    divergence_bounds,
    lr_difference,
    make_generator,
    zm_divergence_bounds,
)

GOLDEN = Path(__file__).parent / "golden" / "library.json"

GENERATORS = ("kl", "hellinger", "harmonic", "jeffreys")
ORDERS = (5, 8)
SPECS = {"poly": {"coeffs": (1.0, -2.0, 0.5, 3.0)}, "power": {"exponent": 2.7}}
ALL_GENERATORS = ("kl", "hellinger", "harmonic", "jeffreys", "exp", "poly", "power")


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    if hasattr(result, "to_dict"):
        result = result.to_dict()
    return {"value": _encode(result)}


def _tag_orders():
    """(tag, n, m) for every tag at each order; m = n - 2 where the tag takes one."""
    for tag in tuple(FAMILIES):
        for n in ORDERS:
            yield tag, n, (n - 2 if tag in ("TM21", "TM22", "COR21") else None)


def _dirichlet_pair(K, alpha):
    rng = np.random.default_rng(K)
    return tuple(ProbabilityVector(rng.dirichlet(np.full(K, alpha))) for _ in range(2))


def _functional(N):
    rng = np.random.default_rng(N)
    a, b = 0.05, 7.5
    points = np.exp(rng.uniform(math.log(a), math.log(b), N))
    weights = rng.dirichlet(np.full(N, 0.3))
    return DiscreteFunctional(points, weights, (a, b))


def _models(domain):
    """Negations, copies and scalar-only wrappers of every generator, and a polynomial."""
    for name in ALL_GENERATORS:
        f = make_generator(GeneratorSpec(name, domain=domain, **SPECS.get(name, {})))
        yield f"-{name}", -f
        yield f"replace({name})", dataclasses.replace(f)
        yield f"scalar({name})", dataclasses.replace(f, fn=lambda t, g=f.fn: g(float(t)))
    yield "from_polynomial", FunctionModel.from_polynomial((0.5, -1.0, 0.25, 0.125, -0.03), domain)


def cases():
    """Yield (case id, outcome) for every pinned call."""
    P = ZipfMandelbrotParams(20_000, 1.0, 1.1)
    Q = ZipfMandelbrotParams(20_000, 2.5, 1.3)
    for name in GENERATORS:
        for tag, n, m in _tag_orders():
            yield (f"zm N=20000 {name} {tag} n={n} m={m}",
                   _outcome(zm_divergence_bounds, P, Q, GeneratorSpec(name), n=n, theorem=tag, m=m))
    for K, alpha in itertools.product((63, 65, 5000), (1.0, 20.0)):
        p, q = _dirichlet_pair(K, alpha)
        for name in GENERATORS:
            for tag, n, m in _tag_orders():
                yield (f"div K={K} alpha={alpha:g} {name} {tag} n={n} m={m}",
                       _outcome(divergence_bounds, GeneratorSpec(name), p, q, n=n, theorem=tag, m=m))
    A = _functional(20_000)
    for label, f in _models(A.interval):
        yield f"lr N=20000 {label}", _outcome(lr_difference, f, A)
    A = _functional(5_000)
    for label, f in _models(A.interval):
        for decompose in (decompose_lemma21, decompose_lemma22):
            yield (f"{decompose.__name__} N=5000 {label} n=5 m=3",
                   _outcome(decompose, f, A, 5, 3))
    for label, f in _models((0.25, 3.0)):
        yield f"certify {label} n=4", _outcome(certify_convexity, f, 4, samples=200, seed=11)


def generate() -> dict:
    return dict(cases())


def test_library_outcomes_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = generate()
    assert list(actual) == list(expected)
    drifted = [key for key in expected if actual[key] != expected[key]]
    if drifted:
        pytest.fail(
            f"{len(drifted)} library outcomes drifted from the golden file, first: "
            f"{drifted[0]}\n  golden:  {expected[drifted[0]]}\n  current: {actual[drifted[0]]}"
        )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n")
