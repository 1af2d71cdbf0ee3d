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
`reason`; any other output as its repr) or the error's type and text.  The
kind is ok, wrong_bracket or wrong_value by the check, or the error's type.

`diff` prints the count of each kind on both sides, then the report<->refusal
flips, the reports whose values moved and the errors whose type or text
changed, with the first few of each; it exits 1 when any op differs, 2 when
the runs hold different ops.  `compare` runs `run` for both checkouts, in two
child processes at a time, on each of `SEEDS` (the workloads' pinned seeds),
and prints each seed's `diff` summary; its exit code is the worst of theirs.
A reader that closes early (`| head`) stops the printing of any command
quietly, with the same exit code (0 for `run`).
Nothing under bench/ is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

SHOWN = 5  # ops listed per difference class
# (workload, seed, ops) that `compare` runs: a whole `div_small` run each, one `zm_large` cycle each.
SEEDS = (
    ("div_small", 9001, 6000), ("div_small", 5151, 6000),
    ("zm_large", 7101, 40), ("zm_large", 7919, 40), ("zm_large", 8120, 40), ("zm_large", 40001, 40),
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


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _is_report(rec: dict) -> bool:
    return "error" not in rec


def diff(path_a: str, path_b: str) -> int:
    code, lines = _compare(_load(path_a), _load(path_b))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader stopped early (`diff A B | head`): keep the verdict
        _silence_stdout()
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
        try:
            print(f"== {workload} seed {seed}, {ops} ops: {'same' if seed_code == 0 else 'differ'}", *lines,
                  sep="\n", flush=True)
        except BrokenPipeError:  # the reader stopped early: the verdict still covers every seed
            _silence_stdout()
    return code


def _compare(a: list[dict], b: list[dict]) -> tuple[int, list[str]]:
    """diff's exit code and the lines it prints."""
    if [r["case"] for r in a] != [r["case"] for r in b]:
        return 2, ["the two runs do not hold the same ops (workload, seed or op count differ)"]
    ka, kb = Counter(r["kind"] for r in a), Counter(r["kind"] for r in b)
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
        for ra, rb in pairs[:SHOWN]:
            lines.append(f"  op {ra['op']} {ra['case']}\n    A {_brief(ra)}\n    B {_brief(rb)}")
    return (1 if any(classes.values()) else 0), lines


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
