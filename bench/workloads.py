"""The four closed-loop workloads: how each makes its inputs and runs one op.

Every workload is driven by one client in one process: the next op starts
when the previous one has returned or raised.  Inputs come only from the
seed.  The structured part of each op (theorem tag, generator, n, CLI
command) cycles through a fixed order, so every seed runs the same mix of
work; the seed draws the numbers (law parameters, distributions, m, audit
seeds).  A run is a whole number of cycles: `--seconds` divided by the
cycle's nominal duration on the reference machine (2 vCPU x86-64,
Python 3.11, numpy 2.4), at least one and at most `max_cycles`.  So every
run of a seed attempts the same ops, and its failure counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import checks

TAGS = ("TM21", "TM22", "COR21", "TM23", "TM24")
GENERATORS = ("kl", "hellinger", "harmonic", "jeffreys")


def n_choices(tag: str, n_max: int) -> list[int]:
    """Orders a tag accepts: m >= 3 needs n >= 4, COR21 odd n >= 5, TM23/TM24 n >= 3."""
    if tag in ("TM21", "TM22"):
        return list(range(4, n_max + 1))
    if tag == "COR21":
        return [n for n in range(5, n_max + 1) if n % 2]
    return list(range(3, n_max + 1))


def draw_m(rng, tag: str, n: int) -> int | None:
    return int(rng.integers(3, n)) if tag in ("TM21", "TM22", "COR21") else None


@dataclass(frozen=True)
class Outcome:
    """What the benchmark keeps of one op: its error (if it raised) or check result."""

    error: str | None
    reason: str | None

    @property
    def kind(self) -> str:
        """ok, raised, wrong_bracket (a certified bracket is wrong) or wrong_value."""
        if self.error is not None:
            return "raised"
        if self.reason is None:
            return "ok"
        return "wrong_bracket" if self.reason.startswith(checks.WRONG) else "wrong_value"


class Workload:
    name = ""
    cycle = 1
    nominal_cycle_s = 1.0
    in_process = True  # False when each op is a child process
    max_cycles = None

    def op_count(self, seconds: float) -> int:
        cycles = max(1, round(seconds / self.nominal_cycle_s))
        return self.cycle * (cycles if self.max_cycles is None else min(cycles, self.max_cycles))

    def make(self, seed: int, count: int):
        """Yield `count` cases drawn from `seed`, one at a time."""
        raise NotImplementedError

    def run(self, E, case):
        raise NotImplementedError

    def run_traced(self, E, case):
        """The op as the traced run executes it (in this process)."""
        return self.run(E, case)

    def check(self, case, output) -> str | None:
        raise NotImplementedError


class ZmLarge(Workload):
    """`zm_divergence_bounds` on two Zipf-Mandelbrot laws with N = 20 000."""

    name = "zm_large"
    N = 20_000
    # Every tag with every generator twice, at eight orders per tag: enough
    # ops that the median does not hinge on one or two of them.
    cycle = 40
    nominal_cycle_s = 44.0

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            tag = TAGS[i % 5]
            gen = GENERATORS[i % 4]
            ns = n_choices(tag, 9)
            n = ns[round(((i // 5) % 8) * (len(ns) - 1) / 7)]
            laws = [(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.6, 2.5))) for _ in range(2)]
            yield tag, gen, n, draw_m(rng, tag, n), laws

    def run(self, E, case):
        tag, gen, n, m, laws = case
        P, Q = (E.ZipfMandelbrotParams(self.N, q, s) for q, s in laws)
        return E.zm_divergence_bounds(P, Q, E.GeneratorSpec(gen), n=n, m=m, theorem=tag)

    def check(self, case, report):
        _, gen, _, _, laws = case
        p, q = (checks.zm_pmf(self.N, lq, ls) for lq, ls in laws)
        return checks.check_divergence(
            gen, p, q, report.lr, report.lower, report.upper, report.direction_valid
        )


class DivSmall(Workload):
    """Vectors, ratio range, generator and class, then `divergence_bounds`."""

    name = "div_small"
    cycle = 200  # 5 tags x 4 generators x 10 order slots, K stepping through 3..30
    nominal_cycle_s = 0.3
    # Five tail segments of six cycles each (see run.TAIL_SEGMENT); twice as
    # many ops gave no steadier figures.
    max_cycles = 30

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            tag = TAGS[i % 5]
            gen = GENERATORS[(i // 5) % 4]
            ns = n_choices(tag, 12)
            n = ns[(i // 20) % len(ns)]
            # Each slot of the cycle steps through K = 3..30 from one cycle to the next.
            K = 3 + (i + i // self.cycle) % 28
            conc = math.exp(rng.uniform(math.log(0.03), math.log(5.0)))
            while True:
                p = rng.dirichlet(np.full(K, conc))
                q = rng.dirichlet(np.full(K, conc))
                # The API rejects q_i = 0 for ratio bounds by contract.
                if (q > 0.0).all():
                    break
            yield tag, gen, n, draw_m(rng, tag, n), tuple(map(float, p)), tuple(map(float, q))

    def run(self, E, case):
        tag, gen, n, m, p_vals, q_vals = case
        p = E.ProbabilityVector(p_vals)
        q = E.ProbabilityVector(q_vals)
        rr = E.ratio_range(p, q)
        spec = E.GeneratorSpec(gen, domain=(rr.a, rr.b))
        f = E.make_generator(spec)
        convexity = E.classify(spec, n)
        return E.divergence_bounds(f, p, q, n=n, m=m, theorem=tag, convexity=convexity)

    def check(self, case, report):
        _, gen, _, _, p, q = case
        return checks.check_divergence(
            gen, p, q, report.lr, report.lower, report.upper, report.direction_valid
        )


class VerifySuite(Workload):
    """The default `verify` run: both audits with `AuditConfig` defaults and a per-op seed."""

    name = "verify_suite"
    cycle = 1
    nominal_cycle_s = 0.73

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield int(rng.integers(0, 2**31 - 1))

    def run(self, E, op_seed):
        cfg = E.AuditConfig(seed=op_seed)
        return E.audit_identities(cfg), E.audit_brackets(cfg)

    def check(self, op_seed, output):
        identities, brackets = output
        if identities.failures:
            return f"identity audit failed {len(identities.failures)} cases"
        if brackets.failures:
            return f"{checks.WRONG} bracket audit found {len(brackets.failures)} violations"
        return None


class CliError(RuntimeError):
    """A CLI process reported an error (exit status other than 0 or 2)."""


class CliCold(Workload):
    """One fresh `python -m elrbounds.cli` process per op, one at a time."""

    name = "cli_cold"
    cycle = 6  # dd, lr, bounds, div, zm, verify
    nominal_cycle_s = 2.0
    in_process = False

    def __init__(self, root: str):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k != "ELR_SEED"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        for i in range(count):
            kind = ("dd", "lr", "bounds", "div", "zm", "verify")[i % 6]
            op_seed = int(rng.integers(0, 2**31 - 1))
            if kind == "dd":
                argv, expect = ["dd", "--function", "exp", "--nodes", "0:3"], {"value": 0.5}
            elif kind == "lr":
                a, b = sorted(float(x) for x in rng.uniform(-2.0, 2.0, size=2))
                pts = [float(x) for x in rng.uniform(a, b, size=4)]
                w = [float(x) for x in rng.dirichlet(np.ones(4))]
                m1 = math.fsum(wi * x for wi, x in zip(w, pts))
                m2 = math.fsum(wi * x * x for wi, x in zip(w, pts))
                expect = {"value": m2 - (a + b) * m1 + a * b, "scale": abs(m2) + abs((a + b) * m1) + abs(a * b)}
                # "--flag=value" keeps argparse from reading a leading minus as a flag.
                argv = ["lr", "--function", "poly:0,0,1", f"--points={_csv(pts)}",
                        f"--weights={_csv(w)}", f"--interval={_csv([a, b])}"]
            elif kind == "bounds":
                argv = ["bounds", "--function", "poly:0,0,0,1", "--points", "0.5,1.5",
                        "--weights", "0.5,0.5", "--interval", "0,2", "--theorem", "tm23", "--n", "3",
                        "--convexity", "auto", "--seed", str(op_seed)]
                expect = {"lower": -3.0, "lr": -2.25, "upper": -1.5}
            elif kind == "div":
                p = [float(x) for x in rng.dirichlet(np.ones(5))]
                q = [float(x) for x in rng.dirichlet(np.ones(5))]
                argv = ["div", "--function", "kl", "--p", _csv(p), "--q", _csv(q), "--theorem", "tm24",
                        "--n", "4", "--convexity", "auto", "--seed", str(op_seed)]
                expect = {"generator": "kl", "p": p, "q": q}
            elif kind == "zm":
                argv, expect = ["zm", "--zm", "2,0,1", "--zm", "2,0,2", "--ratio-range"], {}
            else:
                argv = ["verify", "--cases", "20", "--cases-per-theorem", "4", "--samples", "60",
                        "--seed", str(op_seed)]
                expect = {}
            yield kind, argv, expect

    def run(self, E, case):
        _, argv, _ = case
        proc = subprocess.run(
            [sys.executable, "-m", "elrbounds.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode not in (0, 2):
            raise CliError(f"exit status {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.returncode, proc.stdout

    def run_traced(self, E, case):
        from elrbounds import cli

        _, argv, _ = case
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code not in (0, 2):
            raise CliError(f"exit status {code}")
        return code, buf.getvalue()

    def check(self, case, output):
        kind, _, expect = case
        code, stdout = output
        return checks.check_cli(kind, code, stdout, expect)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def workload(name: str, root: str) -> Workload:
    if name == "cli_cold":
        return CliCold(root)
    for cls in (ZmLarge, DivSmall, VerifySuite):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("zm_large", "div_small", "verify_suite", "cli_cold")
