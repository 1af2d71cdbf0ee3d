"""The pytest configuration in pyproject.toml, run on a project of its own."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just(0))
def test_fails(x):
    assert x


def test_passes():
    pass
'''


@pytest.mark.slow  # over 2 s: writing the failure's patch imports libcst, about 0.7 s alone
def test_a_failing_hypothesis_test_fails_and_the_run_goes_on(tmp_path):
    # Hypothesis writes a failing example's patch with libcst, whose import
    # warns a DeprecationWarning; turned into an error, it used to abort the
    # run with INTERNALERROR (exit 3), losing the failure and every later test.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
