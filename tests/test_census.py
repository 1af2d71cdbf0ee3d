"""`tools/census.py`: the op-by-op outcome census of a benchmark workload, and its pin.

The slow tests pin the `div_small` census of seeds 9001 and 5151 at 6,000 ops
(the workload's full run) and the `zm_large` census of seeds 7101, 7919, 8120
and 40001 at 40 ops (one cycle): the seeds of `census.py compare`.  A change that moves any op's outcome kind fails them;
update a pin only with a line in CHANGES.md that says which ops moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "census.py"


def _census(workload: str, seed: int, ops: int) -> list[dict]:
    out = subprocess.run(
        [sys.executable, str(TOOL), "run", str(ROOT), workload, str(seed), str(ops)],
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def _tool():
    """tools/census.py as a module."""
    spec = importlib.util.spec_from_file_location("census", TOOL)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def _diff(tmp_path, a: list[dict], b: list[dict], capsys) -> tuple[int, str]:
    census = _tool()
    paths = []
    for name, recs in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(r) + "\n" for r in recs))
    code = census.main(["diff", *map(str, paths)])
    return code, capsys.readouterr().out


def test_run_writes_one_record_per_op():
    recs = _census("div_small", 9001, 20)
    assert [r["op"] for r in recs] == list(range(20))
    for r in recs:
        assert len(r["case"]) == 4
        if "error" in r:
            assert r["kind"] == r["error"] and r["text"]
        else:
            assert r["kind"] in ("ok", "wrong_bracket", "wrong_value")
            float.fromhex(r["lr"])


def test_diff_sorts_each_difference(tmp_path, capsys):
    report = {"case": ["TM23", "kl", 3, None], "kind": "ok", "lr": "0x1.0p-1", "lower": None,
              "upper": "0x1.0p+0", "direction_valid": True, "reason": None}
    error = {"case": ["TM21", "kl", 4, 3], "kind": "RuntimeError", "error": "RuntimeError", "text": "differ"}
    a = [dict(report, op=0), dict(report, op=1), dict(error, op=2), dict(error, op=3)]
    b = [dict(report, op=0, upper="0x1.0000000000001p+0"), dict(report, op=1), dict(error, op=2, text="other"),
         dict(report, op=3, case=error["case"])]
    assert _diff(tmp_path, a, a, capsys)[0] == 0
    code, out = _diff(tmp_path, a, b, capsys)
    assert code == 1
    for line in ("report<->refusal flips: 1", "moved reports: 1", "changed errors: 1",
                 "RuntimeError                   2       1", "ok                             2       3"):
        assert line in out.splitlines(), out
    assert _diff(tmp_path, a, a[:3], capsys)[0] == 2


def test_diff_stops_quietly_when_its_reader_closes(tmp_path):
    # One changed error whose text outgrows a pipe's buffer: the printing
    # outlasts a reader that takes one line and closes.
    error = {"op": 0, "case": ["TM21", "kl", 4, 3], "kind": "RuntimeError", "error": "RuntimeError"}
    paths = []
    for name, text in (("a", "x"), ("b", "y" * 2**22)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text(json.dumps(dict(error, text=text)) + "\n")
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "diff", *map(str, paths)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().split() == [b"kind", b"A", b"B"]
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1  # the runs differ: the verdict stands
    assert proc.stderr.read() == b""


def test_run_stops_quietly_when_its_reader_closes():
    # 6,000 records outgrow a pipe's buffer: `run` is still printing when a
    # reader that takes one line closes, and stops there.
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "run", str(ROOT), "div_small", "9001", "6000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["op"] == 0
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""


def test_compare_diffs_two_checkouts_seed_by_seed(tmp_path, capsys):
    # A copy whose crosscheck accepts any difference: div_small seed 9001's
    # first two ops return alike, its third (a crosscheck refusal) flips.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    module = tmp_path / "src" / "elrbounds" / "divergence.py"
    text = module.read_text()
    assert "_CROSSCHECK_TOL = 1e-12\n" in text
    module.write_text(text.replace("_CROSSCHECK_TOL = 1e-12\n", "_CROSSCHECK_TOL = 1e300\n"))
    code = _tool().compare(str(ROOT), str(tmp_path), (("div_small", 9001, 2), ("div_small", 9001, 3)))
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "== div_small seed 9001, 2 ops: same"
    assert "== div_small seed 9001, 3 ops: differ" in out
    assert out.count("report<->refusal flips: 0") == 1 and "report<->refusal flips: 1" in out


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,counts,texts,digest",
    [
        (9001, {"ok": 3088, "wrong_bracket": 22, "RuntimeError": 2660, "OverflowError": 126, "ValueError": 104},
         {"domain": 89, "-inf + inf in fsum": 15}, "d0b89ce84e9e32c90222ea64b81459a1b78312f34d782bacfea966d4c0d8ed95"),
        (5151, {"ok": 3109, "wrong_bracket": 17, "RuntimeError": 2627, "OverflowError": 153, "ValueError": 94},
         {"domain": 80, "-inf + inf in fsum": 14}, "ab945467161e5e25881f2185acc97702396ed59cce3c642f6c29c91bdfea3427"),
    ],
    ids=["9001", "5151"],
)
def test_the_div_small_census_is_pinned(seed, counts, texts, digest):
    recs = _census("div_small", seed, 6000)
    kinds = [r["kind"] for r in recs]
    # The wrong brackets are a known certification defect, pinned here so they stay visible.
    assert Counter(kinds) == counts
    assert Counter(
        "domain" if "requires a domain inside" in r["text"] else r["text"]
        for r in recs if r["kind"] == "ValueError"
    ) == texts
    # Flips in opposite directions would leave the counts alone; the sequence catches them.
    assert hashlib.sha256("\n".join(kinds).encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,counts,refused,digest",
    [
        (7101, {"ok": 40}, [], "0235a1368b41b1467593f5c989530f5627d7a0a21723fd8356219c0ba03d4af7"),
        # One TM24 lower side that the chain stage itself proves off by more than its bound.
        (7919, {"ok": 39, "RuntimeError": 1}, ["TM24 lower"],
         "d03cffb784416540784827c3c87ca74072adea6656d6b06664b5103c814288dd"),
        (8120, {"ok": 40}, [], "0235a1368b41b1467593f5c989530f5627d7a0a21723fd8356219c0ba03d4af7"),
        # Its op 34 is refused on the same side, by the same crosscheck.
        (40001, {"ok": 39, "RuntimeError": 1}, ["TM24 lower"],
         "d03cffb784416540784827c3c87ca74072adea6656d6b06664b5103c814288dd"),
    ],
)
def test_the_zm_large_census_is_pinned(seed, counts, refused, digest):
    # Kinds only: the chain-read values may move in their last bits.
    recs = _census("zm_large", seed, 40)
    kinds = [r["kind"] for r in recs]
    assert Counter(kinds) == counts
    assert [r["text"].split(":")[0] for r in recs if "error" in r] == refused
    assert hashlib.sha256("\n".join(kinds).encode()).hexdigest() == digest
