#!/usr/bin/env python3
"""elrbounds benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 bench/run.py --workload zm_large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

Workloads are described in bench/README.md and bench/workloads.py.  With
`--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the per-layer
metrics.  The line before it is the full report (error and wrong rates, tail
percentile, sample count, environment), which is also written to
bench/out/.  The package is imported from ./src of the checkout the script
sits in; the run exits non-zero without a result when it is missing, when a
negative control does not trip, or when tracing changes an op's outcome.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    """Import elrbounds from this checkout's src and time it (the first setup_s sample)."""
    if not os.path.isfile(os.path.join(SRC, "elrbounds", "__init__.py")):
        sys.exit(f"error: no elrbounds package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import elrbounds

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(elrbounds.__file__)) != os.path.join(SRC, "elrbounds"):
        sys.exit(f"error: elrbounds was imported from {elrbounds.__file__}, not {SRC}")
    return elrbounds, elapsed


# While timing child processes (import samples, CLI ops) this process and its
# children stay on one CPU, so the speed probe and the work it rescales share
# it.  In-process ops run on every CPU of the original set: the probe runs in
# the same thread and moves with them, and a pinned thread cannot leave a CPU
# that another tenant is using, which showed up as latency spikes.
CPUS = sorted(os.sched_getaffinity(0))
if __name__ == "__main__":
    os.sched_setaffinity(0, {CPUS[0]})
    # Time the import before anything else loads modules it shares.
    E, FIRST_IMPORT_S = _import_package()

import argparse
import json
import platform
import resource
import statistics
import subprocess
from collections import Counter

import numpy as np

import checks
import tracer as tracing
import workloads

OUT = os.path.join(ROOT, "bench", "out")
SETUP_SAMPLES = 7
PROBE_ITERS = 20_000
PROBE_INTERVAL_S = 0.2
PROBE_SHARE = 0.1
# The host stalls a ~1 ms op by several ms about twice a second.  Over a
# whole div_small run (6000 ops, ~8 s) those stalls outnumber the ten samples
# beyond the tail, which then times the host instead of the program; the tail
# of a 1200-op segment (six div_small cycles) is the program's own.
TAIL_SEGMENT = 1200
# Typical probe times on the reference machine (2 vCPU Intel Xeon,
# Python 3.11.7): the reference loop, and `python -c pass` in a fresh process.
# Scaled times are wall-clock times at that speed.
REF_LOOP_S = 0.005
REF_INTERP_S = 0.05
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import elrbounds; print(time.perf_counter() - t)"
)


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout has no history to name
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(CPUS),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
    }


# -- fresh-process timings -------------------------------------------------------


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )


def import_seconds() -> float:
    """`import elrbounds` in a fresh interpreter."""
    return float(_python(["-c", IMPORT_TIMER, SRC]).stdout)


def importtime_seconds() -> tuple[float, float]:
    """Cumulative import time of elrbounds and of numpy, from `-X importtime`."""
    stderr = _python(["-X", "importtime", "-c", f"import sys; sys.path.insert(0, {SRC!r}); import elrbounds"]).stderr
    found = {}
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("elrbounds", "numpy"):
            found[parts[2]] = int(parts[1]) * 1e-6
    return found["elrbounds"], found["numpy"]


def interpreter_seconds() -> float:
    """`python -c pass` in a fresh process."""
    start = time.perf_counter()
    _python(["-c", "pass"])
    return time.perf_counter() - start


# -- measurement -----------------------------------------------------------------


def reference_loop(min_seconds: float) -> float:
    """Seconds per pass of a fixed pure-Python loop, repeated for at least `min_seconds`.

    This is the interpreter's speed on this machine right now.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        acc, table = 0.0, {}
        for i in range(PROBE_ITERS):
            acc += (i * 0.5) ** 0.5
            table[i & 63] = (acc, i)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / passes


class SpeedScale:
    """Rescales wall-clock times to the reference machine's speed.

    A shared host runs the same code up to ~1.7x slower or faster from one
    second to the next.  A probe is timed between blocks of ops (every
    PROBE_INTERVAL_S, or after each longer op), and each time measured in a
    block is multiplied by the probe's reference time over the mean of the
    two probe timings around the block.  In-process work is probed with the
    reference loop; fresh CLI processes, whose time is mostly process start
    and imports, with a bare interpreter start.  Neither probe runs elrbounds
    code, so a change to the package moves the scaled times exactly as it
    moves the raw ones.
    """

    def __init__(self, interpreter: bool = False):
        self.interpreter = interpreter
        self.reference = REF_INTERP_S if interpreter else REF_LOOP_S
        self.last_probe = self.probe(0.0)
        self.last_time = time.perf_counter()

    def probe(self, block_s: float) -> float:
        if self.interpreter:
            return interpreter_seconds()
        # A loop probe as long as a tenth of the block it closes keeps its
        # own jitter out of the scaled times.
        return reference_loop(PROBE_SHARE * block_s)

    def due(self) -> bool:
        return time.perf_counter() - self.last_time >= PROBE_INTERVAL_S

    def close_block(self, raw: list[float]) -> list[float]:
        probe = self.probe(sum(raw))
        factor = self.reference / ((self.last_probe + probe) / 2)
        self.last_probe = probe
        self.last_time = time.perf_counter()
        return [t * factor for t in raw]


def run_ops(wl, cases, traced: bool, tracer=None) -> tuple[list[float], list[float], list]:
    """Closed loop over `cases`: raw and speed-scaled per-op seconds, and outcomes.

    `cases` is the workload's case generator, so each case is drawn just
    before its op and only one is held at a time.
    """
    raw, scaled, outcomes = [], [], []
    runner = wl.run_traced if traced else wl.run
    speed = SpeedScale(interpreter=not (traced or wl.in_process))
    block = 0
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            output = runner(E, case)
            error = None
        except Exception as exc:  # a raising op is a measured failure, never retried
            error = f"{type(exc).__name__}: {str(exc)[:160]}"
        raw.append(time.perf_counter() - start)
        reason = wl.check(case, output) if error is None else None
        outcomes.append(workloads.Outcome(error, reason))
        if speed.due():
            scaled += speed.close_block(raw[block:])
            block = len(raw)
    if block < len(raw):
        scaled += speed.close_block(raw[block:])
    return raw, scaled, outcomes


def setup_samples() -> tuple[list[float], list[float]]:
    """Raw and speed-scaled `import elrbounds` times: this process's own, then fresh ones."""
    speed = SpeedScale()
    raw = [FIRST_IMPORT_S]
    # The first import ran before any loop timing: scale it by the loop right after it.
    scaled = [FIRST_IMPORT_S * REF_LOOP_S / speed.last_probe]
    for _ in range(SETUP_SAMPLES - 1):
        raw.append(import_seconds())
        scaled += speed.close_block(raw[-1:])
    return raw, scaled


def tail(latencies: list[float]) -> tuple[float, int, float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    A run of at least 2 * TAIL_SEGMENT ops is cut into that many whole
    segments of TAIL_SEGMENT ops (the last one takes what is left over), and
    the tail is the median of the segments' tails.  Returns the percentile
    and samples beyond it in the first segment, the tail, and the number of
    segments.
    """
    segments = max(1, len(latencies) // TAIL_SEGMENT)
    size = len(latencies) if segments == 1 else TAIL_SEGMENT
    starts = [k * size for k in range(segments)]
    tails = []
    for start, end in zip(starts, starts[1:] + [len(latencies)]):
        ordered = sorted(latencies[start:end])
        tails.append(ordered[max(1, len(ordered) - 10) - 1])
    rank = max(1, size - 10)
    return 100.0 * rank / size, size - rank, statistics.median(tails), segments


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def negative_controls(wl_name: str) -> list[str]:
    """Checks that must trip before any result is reported; returns those that did not."""
    missed = [f"checker: {m}" for m in checks.selftest()]
    if wl_name == "verify_suite":
        report = E.audit_brackets(E.AuditConfig(inject_wrong_parity=True))
        if not report.failures:
            missed.append("audit_brackets(inject_wrong_parity=True) found no violation")
    return missed


def end_to_end(wl, raw, scaled, outcomes, setup_raw, setup_scaled) -> tuple[dict, dict]:
    """Metrics from speed-scaled times, plus the raw wall-clock figures for the report."""
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.kind != "ok")
    wrong = sum(1 for o in outcomes if o.kind == "wrong_bracket")
    by_kind: dict[str, list[float]] = {}
    for o, t in zip(outcomes, scaled):
        by_kind.setdefault(o.kind, []).append(t)
    pct, beyond, tail_s, segments = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (attempted / sum(scaled), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "error_rate": (failed / attempted, "ratio"),
        "wrong_rate": (wrong / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children=not wl.in_process), "MB"),
    }
    extra = {
        "tail_percentile": f"p{pct:.4g}",
        "tail_samples_beyond": beyond,
        "tail_segments": segments,
        "samples": attempted,
        # Whether the median times the op or the mix of raising and completing ops.
        "latency_p50_ms_by_outcome": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
        "raw_wall_clock": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": attempted / sum(raw),
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * tail(raw)[2],
            "speed_scale": sum(raw) / sum(scaled),
        },
        "setup_samples_s": setup_raw,
    }
    return metrics, extra


def per_layer(tr, ops: int, plain_s: float, traced_s: float, fresh: dict) -> dict:
    """Per-op layer metrics from one traced pass over the run's ops."""
    c, t, s = tr.count, tr.inclusive, tr.self_seconds
    rem = tracing.REMAINDERS
    dec = tracing.DECOMPOSITIONS
    dd = "divided_diff.divided_difference"
    dd_in_rem_calls, dd_in_rem_s = tr.nested((dd,), rem)
    _, rem_in_dec_s = tr.nested(rem, dec)
    rem_useful, _ = tr.nested(rem, ("oracle.audit_identities",))
    bounds_fns = [f"bounds.{n}" for n in ("bound_tm21", "bound_tm22", "bracket_cor21", "bracket_tm23", "bracket_tm24")]
    per_op = {
        "divided_diff.dd_calls": (c(dd) - dd_in_rem_calls, "count"),
        "divided_diff.dd_s": (t(dd) - dd_in_rem_s, "s"),
        "divided_diff.remainder_calls": (c(*rem), "count"),
        "divided_diff.remainder_s": (t(*rem), "s"),
        "divided_diff.nodesets_built": (c("divided_diff.NodeMultiset.__init__"), "count"),
        "divided_diff.f_evals": (c("divided_diff.FunctionModel.__call__"), "count"),
        "divided_diff.deriv_evals": (c("divided_diff.FunctionModel.deriv"), "count"),
        "functional.moment_calls": (c("functional.DiscreteFunctional.moment"), "count"),
        "functional.moment_s": (t("functional.DiscreteFunctional.moment"), "s"),
        "functional.apply_s": (s("functional.DiscreteFunctional.apply"), "s"),
        "functional.lr_s": (t("functional.lr_difference"), "s"),
        "functional.build_s": (t("functional.DiscreteFunctional.__init__"), "s"),
        "bounds.decompose_calls": (c(*dec), "count"),
        "bounds.decompose_s": (t(*dec), "s"),
        "bounds.terms_s": (t(*dec) - rem_in_dec_s, "s"),
        "bounds.bound_s": (t(*bounds_fns), "s"),
        "divergence.crosscheck_s": (t("divergence.direct_bound_values"), "s"),
        "divergence.crosscheck_raises": (tr.raised("divergence.divergence_bounds", "RuntimeError"), "count"),
        "divergence.build_s": (t("divergence.ProbabilityVector.__init__", "divergence.ratio_range"), "s"),
        "zipf.pmf_calls": (c("zipf.pmf_vector", "zipf.pmf"), "count"),
        "zipf.pmf_s": (t("zipf.pmf_vector", "zipf.pmf"), "s"),
        "zipf.ratio_s": (t("zipf.ratio_extrema"), "s"),
        "generators.classify_calls": (c("generators.classify"), "count"),
        "generators.classify_s": (t("generators.classify"), "s"),
        "generators.make_s": (t("generators.make_generator"), "s"),
        "oracle.certify_calls": (c("oracle.certify_convexity"), "count"),
        "oracle.certify_s": (t("oracle.certify_convexity"), "s"),
        "oracle.identities_s": (t("oracle.audit_identities"), "s"),
        "oracle.brackets_s": (t("oracle.audit_brackets"), "s"),
        "cli.main_s": (t("cli.main"), "s"),
    }
    metrics = {name: (value / ops, unit + "/op") for name, (value, unit) in per_op.items()}
    metrics["divided_diff.remainder_useful_ratio"] = (rem_useful / c(*rem) if c(*rem) else 0.0, "ratio")
    metrics["oracle.useful_ratio"] = (
        tr.audit_useful / tr.audit_attempted if tr.audit_attempted else 0.0, "ratio"
    )
    metrics["cli.interp_s"] = (fresh["interp_s"], "s")
    metrics["cli.import_s"] = (fresh["import_s"], "s")
    metrics["cli.numpy_import_s"] = (fresh["numpy_import_s"], "s")
    metrics["trace.untraced_op_s"] = (plain_s / ops, "s/op")
    metrics["trace.traced_op_s"] = (traced_s / ops, "s/op")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / ops, "s/op")
    metrics["trace.spans"] = (len(tr.spans) + tr.spans_dropped, "count")
    return metrics


def fresh_process_layers() -> dict:
    samples = [importtime_seconds() for _ in range(SETUP_SAMPLES)]
    return {
        "interp_s": statistics.median(interpreter_seconds() for _ in range(SETUP_SAMPLES)),
        "import_s": statistics.median(s[0] for s in samples),
        "numpy_import_s": statistics.median(s[1] for s in samples),
    }


def measure(args) -> dict:
    wl = workloads.workload(args.workload, ROOT)
    missed = negative_controls(wl.name)
    if missed:
        sys.exit("error: negative control did not trip: " + "; ".join(missed))
    count = wl.op_count(args.seconds)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        setup_raw, setup_scaled = setup_samples()
        if wl.in_process:
            os.sched_setaffinity(0, CPUS)
        raw, scaled, outcomes = run_ops(wl, wl.make(args.seed, count), traced=False)
        metrics, extra = end_to_end(wl, raw, scaled, outcomes, setup_raw, setup_scaled)
        report.update(extra)
    else:
        os.sched_setaffinity(0, CPUS)
        if wl.name == "cli_cold":
            import elrbounds.cli  # noqa: F401  -- imported before both passes, so neither pays for it
        plain, _, outcomes = run_ops(wl, wl.make(args.seed, count), traced=True)
        tr = tracing.Tracer()
        tr.install(E)
        try:
            traced, _, traced_outcomes = run_ops(wl, wl.make(args.seed, count), traced=True, tracer=tr)
        finally:
            tr.uninstall()
        if traced_outcomes != outcomes:
            sys.exit("error: tracing changed the outcome of some op")
        metrics = per_layer(tr, count, sum(plain), sum(traced), fresh_process_layers())
        report["spans_kept"] = len(tr.spans)
        report["spans_dropped"] = tr.spans_dropped
        report["layers"] = tr.table()[:40]
        os.makedirs(OUT, exist_ok=True)
        tr.write_spans(os.path.join(OUT, f"spans_{wl.name}_seed{args.seed}.jsonl"))
    kinds = Counter(o.kind for o in outcomes if o.kind != "ok")
    report.update(
        correct=kinds["wrong_value"] == 0,
        attempted=len(outcomes),
        failed=sum(kinds.values()),
        failures_by_kind=dict(kinds),
        raised_by_type=dict(Counter(o.error.split(":", 1)[0] for o in outcomes if o.error)),
        failure_examples=[o.reason or o.error for o in outcomes if o.kind != "ok"][:5],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        environment=environment(),
    )
    return report


def contract_line(report: dict, names: list[str]) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in names},
    }


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    os.sched_setaffinity(0, CPUS)  # each child pins itself as it needs
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            final["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    report = measure(args)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(contract_line(report, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
