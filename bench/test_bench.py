"""Tests of the benchmark itself: negative controls, trace determinism, refusal.

Run from the repository root with `python3 -m pytest bench/test_bench.py`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
P, Q = (0.2, 0.3, 0.5), (0.5, 0.25, 0.25)


def test_crossed_bracket_is_flagged():
    lr, _ = checks.reference_lr("kl", P, Q)
    reason = checks.check_divergence("kl", P, Q, lr, lr + 0.1, lr - 0.1, True)
    assert reason is not None and reason.startswith(checks.WRONG)


def test_bracket_excluding_lr_is_flagged():
    lr, _ = checks.reference_lr("hellinger", P, Q)
    reason = checks.check_divergence("hellinger", P, Q, lr, lr + 0.01, lr + 0.02, True)
    assert reason is not None and reason.startswith(checks.WRONG)


def test_wrong_lr_is_flagged():
    lr, _ = checks.reference_lr("kl", P, Q)
    reason = checks.check_divergence("kl", P, Q, lr * (1 + 1e-9), None, None, True)
    assert reason is not None and not reason.startswith(checks.WRONG)


def test_right_report_and_invalid_direction_pass():
    lr, _ = checks.reference_lr("jeffreys", P, Q)
    assert checks.check_divergence("jeffreys", P, Q, lr, lr - 1.0, lr + 1.0, True) is None
    # Crossed sides on a report not marked valid are not a certification error.
    assert checks.check_divergence("jeffreys", P, Q, lr, lr + 1.0, lr - 1.0, False) is None


def test_selftest_trips_both_controls():
    assert checks.selftest() == []


def test_cli_closed_forms():
    assert checks.check_cli("dd", 0, "0.5", {"value": 0.5}) is None
    assert checks.check_cli("dd", 0, "0.5000001", {"value": 0.5}) is not None
    expect = {"lower": -3.0, "lr": -2.25, "upper": -1.5}
    good = json.dumps({"lr": -2.25, "lower": -3.0, "upper": -1.5, "direction_valid": True})
    assert checks.check_cli("bounds", 0, good, expect) is None
    crossed = json.dumps({"lr": -2.25, "lower": -1.5, "upper": -3.0, "direction_valid": True})
    assert checks.check_cli("bounds", 0, crossed, expect) is not None
    assert checks.check_cli("zm", 0, json.dumps({"a": 5 / 6, "b": 5 / 3}), {}) is None
    assert checks.check_cli("zm", 0, json.dumps({"a": 5 / 6, "b": 1.6}), {}) is not None


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_counts_repeat_exactly():
    args = ("--workload", "div_small", "--seed", "3", "--seconds", "0.3", "--trace", "1")
    runs = [json.loads(_run(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"].startswith("count")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["divided_diff.remainder_calls"] > 0
    assert runs[0]["failed"] == runs[1]["failed"]


def test_refuses_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "div_small", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
