"""`tools/census.py`: the op-by-op outcome census of a benchmark workload, and its pin.

The slow tests pin the `div_small` census of seeds 9001 and 5151 at 6,000 ops
(the workload's full run), the `zm_large` census of seeds 7101, 7919, 8120
and 40001 at 40 ops (one cycle) and the `verify_suite` census of seeds 9111
and 29001 at 6 ops: the seeds of `census.py compare`.  A change that moves any op's outcome kind fails them;
update a pin only with a line in CHANGES.md that says which ops moved and why.
"""

from __future__ import annotations

import ast
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
    for line in ("report<->refusal flips: 1", "  RuntimeError → ok: 1", "moved reports: 1", "changed errors: 1",
                 "RuntimeError                   2       1", "ok                             2       3"):
        assert line in out.splitlines(), out
    assert _diff(tmp_path, a, a[:3], capsys)[0] == 2
    # The gate's refusals count by their reason, any other error by its type.
    texts = ("TM23 lower: within rounding of lr", "TM23 upper: contradicted by lr", "TM23 lr is not finite: NaN")
    b = [dict(error, op=i, case=a[i]["case"], text=text) for i, text in enumerate(texts)]
    b.append(dict(report, op=3, case=a[3]["case"]))
    code, out = _diff(tmp_path, a, b, capsys)
    for line in ("within rounding                0       1", "contradicted                   0       1",
                 "not finite                     0       1", "  ok → within rounding: 1"):
        assert line in out.splitlines(), out


def test_verify_suite_records_hold_the_audit_counts(tmp_path, capsys):
    recs = _census("verify_suite", 9111, 1)
    assert set(recs[0]) == {"op", "case", "kind", "identities", "brackets", "reason"}
    for suite in ("identities", "brackets"):
        assert list(recs[0][suite]) == ["skipped", "tight", "failures", "max_residual"]
        float.fromhex(recs[0][suite]["max_residual"])
    # diff names each audit op's moved counts, every op, beyond the first few.
    a = [dict(recs[0], op=i) for i in range(7)]
    b = [dict(r, brackets=dict(r["brackets"], skipped=98 + i, tight=30)) for i, r in enumerate(a)]
    b[6]["brackets"] = dict(a[6]["brackets"], skipped=22)
    code, out = _diff(tmp_path, a, b, capsys)
    assert code == 1
    moved = [line for line in out.splitlines() if "→" in line]
    assert moved[6] == f"  op 6 {recs[0]['case']}: brackets skipped {a[6]['brackets']['skipped']}→22"
    assert len(moved) == 7 and "brackets tight" in moved[0]


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
    # A copy whose gate refuses every COR21 side it cannot fault: div_small seed
    # 9001's first two ops (TM21, TM22) return alike, its third (COR21) flips.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    module = tmp_path / "src" / "elrbounds" / "bounds.py"
    text = module.read_text()
    assert "        if not gap > margin:\n" in text
    module.write_text(text.replace("        if not gap > margin:\n", "        if not gap > margin or tag == 'COR21':\n"))
    code = _tool().compare(str(ROOT), str(tmp_path), (("div_small", 9001, 2), ("div_small", 9001, 3)))
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0] == "== div_small seed 9001, 2 ops: same"
    assert "== div_small seed 9001, 3 ops: differ" in out
    assert out.count("report<->refusal flips: 0") == 1 and "report<->refusal flips: 1" in out
    # Where the flip went, by reason.
    assert "  ok → within rounding: 1" in out
    # Then each checkout's src/ code lines per module and in all, counted here line by line,
    lines = {p.name: p.read_bytes().count(b"\n") for p in (ROOT / "src" / "elrbounds").glob("*.py")}
    code = {p.name: _code_lines_by_text(p) for p in (ROOT / "src" / "elrbounds").glob("*.py")}
    rows = len(lines) + 3  # the title, the column names, a row per module and the total
    assert out[-2 * rows:-rows] == [
        "== src/ code lines (no blank, comment or docstring line)", f"{'module':<24}{'A':>8}{'B':>8}",
        *(f"{name:<24}{code[name]:>8}{code[name]:>8}" for name in sorted(code)),
        f"{'total':<24}{sum(code.values()):>8}{sum(code.values()):>8}",
    ]
    # and their lines as `wc -l` counts them.
    assert out[-len(lines) - 3:-len(lines) - 1] == ["== src/ lines (wc -l)", f"{'module':<24}{'A':>8}{'B':>8}"]
    assert f"{'divergence.py':<24}{lines['divergence.py']:>8}{lines['divergence.py']:>8}" in out
    assert out[-1] == f"{'total':<24}{sum(lines.values()):>8}{sum(lines.values()):>8}"


def _code_lines_by_text(path: Path) -> int:
    """Lines that are not blank, not a comment alone and not in a docstring's line span: a count
    from the text, not from `census.py`'s tokens (the two agree where no string literal holds a
    blank line or one that starts with #)."""
    text = path.read_text()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docstring)


def test_code_lines_count_tokens_of_code(tmp_path):
    # A string that is no docstring counts on every line it spans, blank or # lines inside it too.
    package = tmp_path / "src" / "elrbounds"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\nX = """\n# kept\n\n"""\n\n\n'
        'class C:\n    """Class docstring."""\n\n    def f(self):  # code and a comment\n'
        '        """Function\n        docstring."""\n        return 1\n'
    )
    assert _tool()._code_lines(str(tmp_path)) == {"m.py": 7}


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,counts,reasons,texts,digest",
    [
        # The class is read, not sampled: no op fails in classify any more.
        (9001, {"ok": 5459, "RuntimeError": 361, "OverflowError": 57, "_TableOverflow": 10, "ValueError": 113},
         {"within rounding": 347, "not finite": 14}, {"domain": 89, "-inf + inf in fsum": 24},
         "75c0a7b369c9695cd9f5fcc8619c788997d21a15f5707a36435c3e462437ad2c"),
        (5151, {"ok": 5414, "RuntimeError": 401, "OverflowError": 69, "_TableOverflow": 6, "ValueError": 110},
         {"within rounding": 377, "not finite": 24}, {"domain": 80, "-inf + inf in fsum": 30},
         "d22b234f94f077e3e9af5a3a37e6556dcd737bec9b5cb0ffeca57b421d920738"),
    ],
    ids=["9001", "5151"],
)
def test_the_div_small_census_is_pinned(seed, counts, reasons, texts, digest):
    recs = _census("div_small", seed, 6000)
    kinds = [r["kind"] for r in recs]
    # No report is a wrong bracket: every one the gate returns is certified.
    assert Counter(kinds) == counts
    assert Counter(map(_tool()._kind, (r for r in recs if r["kind"] == "RuntimeError"))) == reasons
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
        # Op 34 (TM24 harmonic n = 8), once refused by the removed crosscheck, is certified.
        (7919, {"ok": 40}, [], "0235a1368b41b1467593f5c989530f5627d7a0a21723fd8356219c0ba03d4af7"),
        (8120, {"ok": 40}, [], "0235a1368b41b1467593f5c989530f5627d7a0a21723fd8356219c0ba03d4af7"),
        (40001, {"ok": 40}, [], "0235a1368b41b1467593f5c989530f5627d7a0a21723fd8356219c0ba03d4af7"),
    ],
)
def test_the_zm_large_census_is_pinned(seed, counts, refused, digest):
    # Kinds only: the chain-read values may move in their last bits.
    recs = _census("zm_large", seed, 40)
    kinds = [r["kind"] for r in recs]
    assert Counter(kinds) == counts
    assert [r["text"].split(":")[0] for r in recs if "error" in r] == refused
    assert hashlib.sha256("\n".join(kinds).encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,digest",
    [
        (9111, "948b2c228855817838e2b377095611cd91cc631dee3382a9f21c4b2aa0b3528e"),
        (29001, "de5ba1b27cbc429415b2d74e00d4a98d481ef6ffbcec3be1b92734c296b1a794"),
    ],
)
def test_the_verify_suite_census_is_pinned(seed, digest):
    # Every default audit holds; the digest covers both reports of each op (their
    # skipped and tight counts, failure counts and worst residuals), as
    # tests/golden/verify.txt does.
    recs = _census("verify_suite", seed, 6)
    assert Counter(r["kind"] for r in recs) == {"ok": 6}
    reports = (json.dumps([r["identities"], r["brackets"]]) for r in recs)
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == digest
