"""Every script under demos/ runs to completion and prints its pinned output.

tests/golden/demos/<name>.txt holds the stdout of demos/<name>.py byte for
byte.  Regenerate one after an intended output change with

    PYTHONPATH=src python demos/<name>.py > tests/golden/demos/<name>.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert proc.stdout == (GOLDEN_DIR / f"{demo.stem}.txt").read_bytes()
