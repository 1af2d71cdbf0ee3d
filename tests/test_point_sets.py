"""Point sets keep validated float64 arrays and build their public tuples lazily.

`ProbabilityVector.values` and `DiscreteFunctional.points`/`weights` are
built from the stored read-only arrays on first read.  Equality, hashing,
repr, copies, pickles, `replace` and `asdict` must not depend on whether a
tuple was read yet, and copies and pickles keep read-only arrays and nothing
cached.  `pmf_vector` and `divergence_bounds` build their point
sets through the classes' store step alone; routed through the public
constructors instead, they must give the same arrays, reports and errors.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import (
    FAMILIES,
    DiscreteFunctional,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    divergence_bounds,
    pmf_vector,
    zm_divergence_bounds,
)
from elrbounds import bounds as bounds_module
from elrbounds import zipf as zipf_module
from elrbounds.zipf import _weights

_TUPLES = {ProbabilityVector: ("values",), DiscreteFunctional: ("points", "weights")}
_ARRAYS = {ProbabilityVector: ("_v",), DiscreteFunctional: ("_x", "_w")}

_CASES = [
    (
        lambda: ProbabilityVector(np.array([0.25, 0.5, 0.25])),
        "ProbabilityVector(values=(0.25, 0.5, 0.25))",
        {"values": (0.25, 0.5, 0.25)},
    ),
    (
        lambda: DiscreteFunctional(points=[0.5, 1.5], weights=(0.25, 0.75), interval=(0, 2)),
        "DiscreteFunctional(points=(0.5, 1.5), weights=(0.25, 0.75), interval=(0.0, 2.0))",
        {"points": (0.5, 1.5), "weights": (0.25, 0.75), "interval": (0.0, 2.0)},
    ),
]


def _read(obj):
    for name in _TUPLES[type(obj)]:
        getattr(obj, name)
    return obj


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("make, text, fields", _CASES, ids=["vector", "functional"])
def test_representation_does_not_depend_on_reading_the_tuples(make, text, fields, read_first):
    def fresh():
        obj = make()
        return _read(obj) if read_first else obj

    assert all(name not in vars(make()) for name in _TUPLES[type(make())])
    assert fresh() == fresh() and fresh() == _read(make())
    assert hash(fresh()) == hash(tuple(fields.values()))
    assert repr(fresh()) == text
    assert dataclasses.asdict(fresh()) == fields
    for clone in (
        copy.copy(fresh()),
        copy.deepcopy(fresh()),
        pickle.loads(pickle.dumps(fresh())),
        dataclasses.replace(fresh()),
    ):
        assert type(clone) is type(make())
        assert clone == make() and hash(clone) == hash(make()) and repr(clone) == text
        assert dataclasses.asdict(clone) == fields
    for name in _TUPLES[type(make())]:
        value = getattr(fresh(), name)
        assert type(value) is tuple and all(type(x) is float for x in value)


def _copies(obj):
    return copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("make", [case[0] for case in _CASES], ids=["vector", "functional"])
def test_copies_rebuild_read_only_arrays_without_cached_values(make):
    obj = _read(make())
    for clone in _copies(obj):
        assert set(vars(clone)) == set(vars(make()))  # no tuple, mean or power table
        for name in _ARRAYS[type(obj)]:
            arr, original = getattr(clone, name), getattr(obj, name)
            assert arr.dtype == np.float64 and not arr.flags.writeable
            assert arr.tobytes() == original.tobytes()
        assert clone == obj and hash(clone) == hash(obj)
        assert getattr(clone, "interval", None) == getattr(obj, "interval", None)
        assert getattr(clone, "_total", None) == getattr(obj, "_total", None)


def test_a_pickle_does_not_carry_what_was_read():
    rng = np.random.default_rng(5)
    size = 2_000
    x, w = rng.uniform(0.5, 2.0, size), rng.dirichlet(np.ones(size))

    def fresh():
        return DiscreteFunctional(x, w, (0.5, 2.0))

    used = fresh()
    _read(used)
    assert used.mean == fresh().mean and used.moment(3, 4) == fresh().moment(3, 4)
    assert "_chain_moments" in vars(used)
    assert pickle.dumps(used) == pickle.dumps(fresh())
    assert len(pickle.dumps(used)) < 2 * 8 * size + 1_000
    for clone in _copies(used):
        assert clone.moment(3, 4) == used.moment(3, 4) and clone.mean == used.mean
    p = ProbabilityVector(w)
    _read(p)
    assert pickle.dumps(p) == pickle.dumps(ProbabilityVector(w))


def test_a_tuple_is_built_once_and_kept():
    pv = ProbabilityVector((0.5, 0.5))
    assert "values" not in vars(pv)
    assert pv.values is pv.values and vars(pv)["values"] is pv.values
    with pytest.raises(dataclasses.FrozenInstanceError):
        pv.values = (1.0,)
    with pytest.raises(AttributeError, match="'ProbabilityVector' object has no attribute 'nope'"):
        pv.nope


def test_unequal_point_sets_compare_unequal():
    assert ProbabilityVector((0.25, 0.75)) != ProbabilityVector((0.75, 0.25))
    A = DiscreteFunctional(points=(0.5, 1.5), weights=(0.25, 0.75), interval=(0.0, 2.0))
    assert A != dataclasses.replace(A, interval=(0.0, 3.0))


def test_stored_arrays_are_read_only_and_never_the_callers(monkeypatch):
    raw = np.array([0.25, 0.75])
    stored = [ProbabilityVector(raw), DiscreteFunctional(points=raw, weights=raw, interval=(0, 1))]
    assert raw.flags.writeable
    stored.append(pmf_vector(ZipfMandelbrotParams(100, 1.0, 1.2)))
    evaluate = bounds_module._evaluate

    def spy(family, sides, f, A, *args, **kwargs):
        stored.append(A)
        return evaluate(family, sides, f, A, *args, **kwargs)

    monkeypatch.setattr(bounds_module, "_evaluate", spy)
    p, q = ProbabilityVector((0.2, 0.3, 0.5)), ProbabilityVector((0.3, 0.3, 0.4))
    divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="tm23")
    assert isinstance(stored[-1], DiscreteFunctional)
    for obj in stored:
        for name in _ARRAYS[type(obj)]:
            arr = getattr(obj, name)
            assert arr.dtype == np.float64 and not arr.flags.writeable and arr is not raw
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_zm_divergence_bounds_builds_no_tuple(monkeypatch):
    """A tuple, once read, is kept in the instance dict; none is there after a call."""
    seen = []
    for module, name in ((zipf_module, "divergence_bounds"), (bounds_module, "_evaluate")):
        original = getattr(module, name)

        def spy(*args, original=original, **kwargs):
            seen.extend(arg for arg in args if type(arg) in _TUPLES)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    P, Q = ZipfMandelbrotParams(2000, 1.0, 1.1), ZipfMandelbrotParams(2000, 0.0, 1.7)
    for name, theorem, n, m, interval in (
        ("kl", "tm21", 6, 3, None),
        ("hellinger", "tm22", 7, 4, None),
        ("harmonic", "cor21", 7, 4, (0.01, 400.0)),
        ("jeffreys", "tm23", 9, None, None),
        ("kl", "tm24", 5, None, (0.001, 1000.0)),
    ):
        zm_divergence_bounds(P, Q, GeneratorSpec(name), n=n, m=m, theorem=theorem, interval=interval)
    assert sorted(type(obj).__name__ for obj in seen) == ["DiscreteFunctional"] * 5 + ["ProbabilityVector"] * 10
    assert not [name for obj in seen for name in _TUPLES[type(obj)] if name in vars(obj)]
    assert seen[0].values and "values" in vars(seen[0])  # a read is kept where the check looks


# --- the store-step path against the public constructors ---------------------------


@contextlib.contextmanager
def _public_constructors():
    """Build every point set that skips `__post_init__` through the public
    constructor instead, with all of its checks and copies."""
    stores = {cls: cls._store for cls in _TUPLES}

    def vector_store(self, v, total):
        if vars(self):  # called by __post_init__
            return stores[ProbabilityVector](self, v, total)
        return ProbabilityVector(v)

    def functional_store(self, x, w, total, interval):
        if vars(self):
            return stores[DiscreteFunctional](self, x, w, total, interval)
        return DiscreteFunctional(points=x, weights=w, interval=interval)

    with mock.patch.object(ProbabilityVector, "_store", vector_store), \
            mock.patch.object(DiscreteFunctional, "_store", functional_store):
        yield


def _outcome(call):
    """What `call()` gives, bit for bit: a vector's array and total, a
    report's repr, or the error's type and text."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc).__name__, str(exc)
    if isinstance(out, ProbabilityVector):
        return out._v.tobytes(), out._total.hex()
    return repr(out)


def _both_paths(call):
    with _public_constructors():
        public = _outcome(call)
    return _outcome(call), public


_GENERATORS = st.sampled_from(("kl", "hellinger", "harmonic", "jeffreys"))


@st.composite
def _bound_args(draw):
    theorem = draw(st.sampled_from(tuple(FAMILIES)))
    if theorem in ("TM23", "TM24"):
        return {"n": draw(st.integers(3, 9)), "m": None, "theorem": theorem}
    n = draw(st.integers(4, 9))
    return {"n": n, "m": draw(st.integers(3, n - 1)), "theorem": theorem}


# One law in five takes an extreme shift and exponent: s = 62 with q = 1e5 - 1
# makes the normalizer subnormal, and q = 1e6 underflows it to zero.  The
# others are drawn from one seeded generator, so that two laws rarely coincide.
@st.composite
def _zm_pair(draw):
    N = draw(st.one_of(st.integers(2, 80), st.sampled_from((64, 200, 5000, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    laws = []
    for _ in range(2):
        if draw(st.integers(0, 4)):
            q, s = rng.uniform(0.0, 5.0), rng.uniform(0.6, 2.5)
        else:
            q = draw(st.sampled_from((0.0, 2.0, 99_999.0, 1e6)))
            s = draw(st.sampled_from((1e-3, 1.1, 40.0, 62.0, 700.0)))
        laws.append(ZipfMandelbrotParams(N, q, s))
    return laws


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    laws=_zm_pair(),
    name=_GENERATORS,
    args=_bound_args(),
    widen=st.sampled_from((None, None, 0.5, 1.0, 2.0)),
)
def test_zm_store_path_matches_the_public_constructors(laws, name, args, widen):
    """`widen` scales the ratio range outward (< 1), keeps it (1) or narrows it (> 1)."""
    P, Q = laws
    for law in laws:
        got, public = _both_paths(lambda: pmf_vector(law))
        assert got == public
        with contextlib.suppress(ValueError):
            terms, h = _weights(law)
            assert got == _outcome(lambda: ProbabilityVector(terms / h))
    interval = None
    if widen is not None:
        with contextlib.suppress(ValueError), np.errstate(all="ignore"):
            ratios = pmf_vector(P)._v / pmf_vector(Q)._v
            interval = (float(ratios.min()) * widen, float(ratios.max()) / widen)
    got, public = _both_paths(
        lambda: zm_divergence_bounds(P, Q, GeneratorSpec(name), interval=interval, **args)
    )
    assert got == public


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.one_of(st.integers(2, 30), st.sampled_from((64, 100))),
    concentration=st.floats(0.03, 5.0),
    name=_GENERATORS,
    args=_bound_args(),
    widen=st.one_of(st.none(), st.floats(0.5, 1.5)),
)
def test_dirichlet_store_path_matches_the_public_constructors(seed, K, concentration, name, args, widen):
    """`widen` scales the ratio range outward (< 1) or narrows it (> 1)."""
    rng = np.random.default_rng(seed)
    p, q = (ProbabilityVector(rng.dirichlet(np.full(K, concentration))) for _ in range(2))
    interval = None
    if widen is not None:
        with np.errstate(all="ignore"):
            ratios = p._v / q._v
        interval = (float(ratios.min()) * widen, float(ratios.max()) / widen)
    got, public = _both_paths(
        lambda: divergence_bounds(GeneratorSpec(name), p, q, interval=interval, **args)
    )
    assert got == public
