"""Golden CLI transcripts: every output must stay byte-identical.

Each file under tests/golden/ is the transcript of one subcommand over a
fixed case list: the argv, the exit code, stdout and stderr of `cli.main`.
The cases cover every bound family for n = 3..7 in json and csv, COR21 at
even n (direction_valid false), a functional with every point at b (signed
zeros in the csv term rows), validation errors, and the default and
wrong-parity verify suites.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
from pathlib import Path

import pytest

from elrbounds import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

TAGS = ("tm21", "tm22", "cor21", "tm23", "tm24")


def _tag_cases():
    """(theorem, n, m) for every tag and n = 3..7; m in {3, n-1} where the tag takes m."""
    for tag in TAGS:
        for n in range(3, 8):
            if tag in ("tm23", "tm24"):
                yield tag, n, None
            else:
                for m in sorted({3, max(n - 1, 3)}):
                    yield tag, n, m


def _bound_argvs(prefix):
    for tag, n, m in _tag_cases():
        for fmt in ("json", "csv"):
            argv = prefix + ["--theorem", tag, "--n", str(n), "--format", fmt]
            if m is not None:
                argv += ["--m", str(m)]
            yield argv


def _bounds_cases():
    functionals = (
        ["--function", "exp", "--points", "0.4,0.9,1.7", "--weights", "0.25,0.35,0.4", "--interval", "0,2"],
        ["--function", "kl", "--points", "0.6,1.1,1.9", "--weights", "0.3,0.3,0.4", "--interval", "0.5,2"],
        # Every point at b: mean == b, so the lemma 2.2 lead term is a signed zero.
        ["--function", "exp", "--points", "2,2", "--weights", "0.5,0.5", "--interval", "0,2"],
    )
    for functional in functionals:
        yield from _bound_argvs(["bounds"] + functional)
    yield ["bounds", "--function", "exp", "--points", "0.4,1.7", "--weights", "0.5,0.5",
           "--interval", "0,2", "--theorem", "tm21", "--n", "5", "--m", "2"]
    yield ["bounds", "--function", "exp", "--points", "0.4,1.7", "--weights", "0.5,0.5",
           "--interval", "0,2", "--theorem", "tm23", "--n", "2"]
    yield ["bounds", "--function", "exp", "--points", "0.4,1.7", "--weights", "0.5,0.5",
           "--interval", "0,2", "--theorem", "tm22", "--n", "5", "--m", "4", "--convexity", "n-concave"]


def _div_cases():
    pairs = (
        ["--function", "hellinger", "--p", "0.2,0.3,0.5", "--q", "0.4,0.4,0.2"],
        ["--function", "kl", "--p", "0.1,0.6,0.3", "--q", "0.3,0.3,0.4", "--interval", "0.25,2.5"],
    )
    for pair in pairs:
        yield from _bound_argvs(["div"] + pair)
    yield ["div", "--function", "jeffreys", "--p", "0.5,0.5", "--q", "0.25,0.75",
           "--theorem", "cor21", "--n", "5", "--m", "2"]


def _zm_cases():
    laws = ["--zm", "30,0.5,1.1", "--zm", "30,1.0,1.3"]
    for function in ("kl", "hellinger"):
        yield from _bound_argvs(["zm"] + laws + ["--function", function])
    yield ["zm"] + laws + ["--ratio-range"]
    yield ["zm", "--zm", "30,0.5,1.1", "--zm", "20,1.0,1.3", "--function", "kl",
           "--theorem", "tm24", "--n", "4"]


def _verify_cases():
    yield ["verify"]
    yield ["verify", "--format", "csv"]
    yield ["verify", "--inject-wrong-parity"]


SUITES = {
    "bounds": _bounds_cases,
    "div": _div_cases,
    "zm": _zm_cases,
    "verify": _verify_cases,
}


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return (
        f"$ elrbounds {' '.join(argv)}\n"
        f"exit {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def transcript(suite: str) -> str:
    return "".join(_run(argv) for argv in SUITES[suite]())


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_cli_output_matches_golden(suite, monkeypatch):
    monkeypatch.delenv("ELR_SEED", raising=False)
    expected = (GOLDEN_DIR / f"{suite}.txt").read_text()
    actual = transcript(suite)
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(), actual.splitlines(), "golden", "current", lineterm="", n=2
        )
        pytest.fail("CLI output drifted from the golden transcript:\n" + "\n".join(list(diff)[:60]))


if __name__ == "__main__":
    os.environ.pop("ELR_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in SUITES:
        (GOLDEN_DIR / f"{name}.txt").write_text(transcript(name))
