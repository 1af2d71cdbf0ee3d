"""Outcome census: every op of an in-process benchmark workload, value by value.

    python tools/census.py run ROOT WORKLOAD SEED OPS > out.jsonl
    python tools/census.py diff A.jsonl B.jsonl
    python tools/census.py compare ROOT_A ROOT_B

`run` imports the package from ROOT/src and draws the ops with the case
generators of ROOT/bench/workloads.py, so two checkouts (say, a parent and a
change, each in its own directory or `git worktree`) run the same ops on their
own code.  It writes one JSON line per op: its case (tag, generator, n and m;
the op seed for `verify_suite`), its kind, and either the report (`lr`,
`lower`, `upper` as `float.hex`, `direction_valid` and the bench check's
`reason`; for `verify_suite`, each audit report's `skipped`, `tight`,
failure count and `max_residual` (`float.hex`) under its suite's name; any
other output as its repr) or the error's type and text.  The kind is ok,
wrong_bracket or wrong_value by the check, or the error's type.

`diff` prints the count of each kind on both sides, a refusal counted by its
reason (the gate's "within rounding", "contradicted" or "not finite", else the
error's type), then the report<->refusal flips with their count from kind to
kind, the reports whose values moved and the errors whose type or text
changed, with the first few of each, and each audit op's moved counts (such
as `brackets skipped 98→22`); it exits 1 when any op differs, 2 when
the runs hold different ops.  `compare` runs `run` for both checkouts, in two
child processes at a time, on each of `SEEDS` (the workloads' pinned seeds),
and prints each seed's `diff` summary, then two tables of each checkout's
`src/` lines per module and their total: its code lines (a line counts unless
it is blank, holds only a comment or lies inside a module, class or function
docstring), then all its lines (as `wc -l src/elrbounds/*.py` counts them);
its exit code is the worst of the seeds'.
A reader that closes early (`| head`) stops the printing of any command
quietly, with the same exit code (0 for `run`).
Nothing under bench/ is written.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

SHOWN = 5  # ops listed per difference class
REASONS = ("within rounding", "contradicted", "not finite")  # the gate's refusals, by their text
# (workload, seed, ops) that `compare` runs: a whole `div_small` run each, one `zm_large` cycle each,
# and six default audits (about 2 s on a 2-vCPU x86-64 host) for each `verify_suite` seed.
SEEDS = (
    ("div_small", 9001, 6000), ("div_small", 5151, 6000),
    ("zm_large", 7101, 40), ("zm_large", 7919, 40), ("zm_large", 8120, 40), ("zm_large", 40001, 40),
    ("verify_suite", 9111, 6), ("verify_suite", 29001, 6),
)


def run(root: str, workload: str, seed: int, ops: int) -> None:
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import elrbounds
    import workloads

    wl = workloads.workload(workload, root)
    if not wl.in_process:
        sys.exit(f"error: {workload} runs each op in a child process; the census covers in-process workloads")
    try:
        for i, case in enumerate(wl.make(seed, ops)):
            rec = {"op": i, "case": list(case[:4]) if isinstance(case, tuple) else case}
            try:
                output = wl.run(elrbounds, case)
            except Exception as exc:  # an op that raises is an outcome, as in the benchmark
                rec.update(kind=type(exc).__name__, error=type(exc).__name__, text=str(exc))
            else:
                reason = wl.check(case, output)
                rec["kind"] = workloads.Outcome(None, reason).kind  # ok, wrong_bracket or wrong_value
                if hasattr(output, "lr"):
                    rec.update({k: _hex(getattr(output, k)) for k in ("lr", "lower", "upper")})
                    rec["direction_valid"] = output.direction_valid
                elif workload == "verify_suite":
                    rec.update({report.suite: _audit_fields(report) for report in output})
                else:
                    rec["value"] = repr(output)
                rec["reason"] = reason
            print(json.dumps(rec), flush=True)
    except BrokenPipeError:  # the reader stopped early (`run ... | head`): no more ops
        _silence_stdout()


def _silence_stdout() -> None:
    """Point stdout at the null device, so the exit flush after a closed pipe writes nowhere."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _hex(x):
    return None if x is None else float.hex(x)


def _audit_fields(report) -> dict:
    return {"skipped": report.skipped, "tight": report.tight, "failures": len(report.failures),
            "max_residual": _hex(report.max_residual)}


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _is_report(rec: dict) -> bool:
    return "error" not in rec


def diff(path_a: str, path_b: str) -> int:
    code, lines = _compare(_load(path_a), _load(path_b))
    _print(*lines)
    return code


def compare(root_a: str, root_b: str, seeds=SEEDS) -> int:
    """`diff` of the two checkouts' `run` on each (workload, seed, ops) of `seeds`."""
    code = 0
    for workload, seed, ops in seeds:
        procs = [
            subprocess.Popen([sys.executable, __file__, "run", root, workload, str(seed), str(ops)],
                             stdout=subprocess.PIPE, text=True)
            for root in (root_a, root_b)
        ]
        outs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode for proc in procs):
            sys.exit(f"error: `run` failed on {workload} seed {seed}")
        seed_code, lines = _compare(*([json.loads(line) for line in out.splitlines()] for out in outs))
        code = max(code, seed_code)
        _print(f"== {workload} seed {seed}, {ops} ops: {'same' if seed_code == 0 else 'differ'}", *lines)
    for title, count in (("code lines (no blank, comment or docstring line)", _code_lines),
                         ("lines (wc -l)", _src_lines)):
        a, b = (count(root) for root in (root_a, root_b))
        _print(f"== src/ {title}", f"{'module':<24}{'A':>8}{'B':>8}",
               *(f"{name:<24}{a.get(name, 0):>8}{b.get(name, 0):>8}" for name in sorted(a.keys() | b.keys())),
               f"{'total':<24}{sum(a.values()):>8}{sum(b.values()):>8}")
    return code


def _print(*lines: str) -> None:
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:  # the reader stopped early (`| head`): the exit code keeps the verdict
        _silence_stdout()


def _src_lines(root: str) -> dict[str, int]:
    """The newlines of each module in ROOT/src/elrbounds (`wc -l`'s count), by file name."""
    return {path.name: path.read_bytes().count(b"\n") for path in Path(root, "src", "elrbounds").glob("*.py")}


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(root: str) -> dict[str, int]:
    """The lines of each module in ROOT/src/elrbounds that hold a token of code, by file name:
    a comment, a docstring (of the module, a class or a function) and a blank line hold none."""
    counts = {}
    for path in Path(root, "src", "elrbounds").glob("*.py"):
        text = path.read_text()
        docstrings = {  # where each docstring's token starts
            (node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE and tok.start not in docstrings:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        counts[path.name] = len(lines)
    return counts


def _kind(rec: dict) -> str:
    """The op's kind, a refusal by its reason: the gate's verdict (within rounding, contradicted,
    not finite) for the RuntimeError of `divergence_bounds`, else the error's type."""
    if rec.get("error") == "RuntimeError":
        return next((reason for reason in REASONS if reason in rec["text"]), rec["kind"])
    return rec["kind"]


def _compare(a: list[dict], b: list[dict]) -> tuple[int, list[str]]:
    """diff's exit code and the lines it prints."""
    if [r["case"] for r in a] != [r["case"] for r in b]:
        return 2, ["the two runs do not hold the same ops (workload, seed or op count differ)"]
    ka, kb = Counter(map(_kind, a)), Counter(map(_kind, b))
    lines = [f"{'kind':<24}{'A':>8}{'B':>8}"]
    lines += [f"{kind:<24}{ka[kind]:>8}{kb[kind]:>8}" for kind in sorted(ka.keys() | kb.keys())]
    classes = {"report<->refusal flips": [], "moved reports": [], "changed errors": []}
    for ra, rb in zip(a, b):
        if ra == rb:
            continue
        if _is_report(ra) != _is_report(rb):
            classes["report<->refusal flips"].append((ra, rb))
        elif _is_report(ra):
            classes["moved reports"].append((ra, rb))
        else:
            classes["changed errors"].append((ra, rb))
    for name, pairs in classes.items():
        lines.append(f"{name}: {len(pairs)}")
        if name == "report<->refusal flips":  # where the flips went, kind to kind
            flows = Counter((_kind(ra), _kind(rb)) for ra, rb in pairs)
            lines += [f"  {ka_} → {kb_}: {count}" for (ka_, kb_), count in sorted(flows.items())]
        for i, (ra, rb) in enumerate(pairs):
            if moved := _audit_moves(ra, rb):  # one line per audit op, every op
                lines.append(f"  op {ra['op']} {ra['case']}: {moved}")
            elif i < SHOWN:
                lines.append(f"  op {ra['op']} {ra['case']}\n    A {_brief(ra)}\n    B {_brief(rb)}")
    return (1 if any(classes.values()) else 0), lines


def _audit_moves(ra: dict, rb: dict) -> str:
    """The audit counts that moved between two `verify_suite` records, as `brackets skipped 98→22`."""
    return ", ".join(f"{suite} {k} {v}→{rb[suite][k]}" for suite in ("identities", "brackets")
                     if suite in ra and suite in rb for k, v in ra[suite].items() if v != rb[suite][k])


def _brief(rec: dict) -> str:
    return json.dumps({k: v for k, v in rec.items() if k not in ("op", "case")})


def main(argv: list[str]) -> int:
    if len(argv) == 5 and argv[0] == "run":
        run(argv[1], argv[2], int(argv[3]), int(argv[4]))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage:\n" + "\n".join(__doc__.splitlines()[2:5]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
