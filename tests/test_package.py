"""The package namespace: the library modules' `__all__`, without the CLI."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elrbounds
from elrbounds import AuditConfig, BoundReport, DiscreteFunctional, NodeMultiset, ProbabilityVector

LIBRARY = ("divided_diff", "functional", "bounds", "divergence", "generators", "zipf", "oracle")

# Names that only re-spelled another call, by the module that defined them.
# Their replacements: bound(tag, ...), remainder_R(f, b, a, ...),
# ratio_range(pmf_vector(P), pmf_vector(Q)), pmf_vector(params).values.
REMOVED_FUNCTIONS = {
    "bounds": ("bound_tm21", "bound_tm22", "bracket_cor21", "bracket_tm23", "bracket_tm24"),
    "divided_diff": ("remainder_Rstar",),
    "zipf": ("pmf", "ratio_extrema"),
}
# Their replacements: ProbabilityVector(values), len(nodes.flatten()),
# violation() against a tolerance and apply(h), which calls h once on the
# point array when h accepts one.
REMOVED_MEMBERS = (
    (ProbabilityVector, "of"), (NodeMultiset, "total_count"), (BoundReport, "contains"),
    (DiscreteFunctional, "apply_array"),
)
# AuditConfig fields that only set the audit suite's shape, with a value each
# once accepted.  The suite is fixed: orders 3..7, at most 20 points, every
# bound family and the exp/poly/generator draws.  `certify_samples` set
# nothing: the bracket audit reads exact classes, not sampled ones.
REMOVED_AUDIT_FIELDS = {
    "n_range": (3, 7), "max_points": 20, "theorems": ("TM21",), "function_pool": ("poly",),
    "certify_samples": 120,
}


@pytest.mark.parametrize(
    "module,name", [(m, n) for m, names in REMOVED_FUNCTIONS.items() for n in names]
)
def test_removed_function_is_unreachable(module, name):
    assert not hasattr(elrbounds, name)
    assert not hasattr(getattr(elrbounds, module), name)
    assert name not in elrbounds.__all__


@pytest.mark.parametrize("owner,name", REMOVED_MEMBERS, ids=lambda v: getattr(v, "__name__", v))
def test_removed_member_is_unreachable(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("name", REMOVED_AUDIT_FIELDS)
def test_removed_audit_field_is_rejected(name):
    assert name not in {f.name for f in dataclasses.fields(AuditConfig)}
    with pytest.raises(TypeError):
        AuditConfig(**{name: REMOVED_AUDIT_FIELDS[name]})


def test_report_holds_n_m_and_convexity_itself():
    # ParityCase, which nested them in a second class, is gone.
    assert not hasattr(elrbounds, "ParityCase")
    assert not hasattr(elrbounds.bounds, "ParityCase")
    fields = [f.name for f in dataclasses.fields(BoundReport)]
    assert "case" not in fields
    assert fields[fields.index("theorem"):] == ["theorem", "n", "m", "convexity", "direction_valid"]


def test_namespace_is_every_library_name():
    modules = [getattr(elrbounds, name) for name in LIBRARY]
    names = [name for module in modules for name in module.__all__]
    assert elrbounds.__all__ == names + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(elrbounds, name) is getattr(module, name)
    for name in ("bound", "FAMILIES", "endpoint_table", "definite_class"):
        assert name in elrbounds.__all__


def test_import_does_not_load_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, elrbounds; print('elrbounds.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
