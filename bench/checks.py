"""Correctness checks the benchmark applies to every op, independent of elrbounds.

Nothing here imports elrbounds.  The chord gap of a divergence is recomputed
with plain `math.fsum` loops over the ratios p_i / q_i and the generator
formulas written out again, and compared with the reported `lr` under a
tolerance that scales with the size of the summands:

    |lr - lr_ref| <= LR_ULPS * eps * (S + M * |f(b) - f(a)| / (b - a))

where S = sum |q_i f(p_i/q_i)| + |chord_a| + |chord_b| (chord_a and chord_b
are the two weighted endpoint terms of the chord) and M = sum |q_i p_i/q_i|.
The second term is the chord's sensitivity to the rounding of the mean A(g),
which dominates when b - A(g) or A(g) - a is tiny.
A report marked valid (`direction_valid`) must also have its sides in order
and contain `lr`, within the same tolerance plus a few ulps of the sides.

A check returns None when the output is right, otherwise a short reason.
Reasons starting with "wrong:" are certified brackets that are wrong (sides
crossed or `lr` outside them), a defect of bound certification.  Any other
reason is a wrong value: a chord gap, divided difference or ratio range that
disagrees with its independent or closed-form value, or a failed identity.
"""

from __future__ import annotations

import json
import math
import sys

WRONG = "wrong:"
EPS = sys.float_info.epsilon
# Both routes evaluate each summand with a handful of correctly rounded
# operations and sum with fsum, so they agree to a few ulps of sum |terms|.
LR_ULPS = 16.0
SIDE_ULPS = 16.0

GENERATORS = {
    "kl": lambda t: t * math.log(t),
    "hellinger": lambda t: 0.5 * (1.0 - math.sqrt(t)) ** 2,
    "harmonic": lambda t: 2.0 * t / (1.0 + t),
    "jeffreys": lambda t: (t - 1.0) * math.log(t),
}


def reference_lr(generator: str, p, q) -> tuple[float, float]:
    """Chord gap of sum q_i f(p_i/q_i) on [min ratio, max ratio], and its error scale.

    The scale, times a few ulps, bounds how far two correctly rounded
    evaluations of the same chord gap can differ (see the module docstring).
    """
    f = GENERATORS[generator]
    ratios = [pi / qi for pi, qi in zip(p, q)]
    a, b = min(ratios), max(ratios)
    terms = [qi * f(r) for qi, r in zip(q, ratios)]
    weighted = [qi * r for qi, r in zip(q, ratios)]
    mean = math.fsum(weighted)
    chord_a = (b - mean) / (b - a) * f(a)
    chord_b = (mean - a) / (b - a) * f(b)
    lr = math.fsum(terms + [-chord_a, -chord_b])
    scale = math.fsum(abs(t) for t in terms) + abs(chord_a) + abs(chord_b)
    slope = abs(f(b) - f(a)) / (b - a)
    return lr, scale + math.fsum(abs(w) for w in weighted) * slope


def check_bracket(lr: float, lower, upper, valid: bool, tol: float) -> str | None:
    """Side order and containment of a report marked valid."""
    if not valid:
        return None
    sides = [abs(v) for v in (lower, upper) if v is not None]
    slack = tol + SIDE_ULPS * EPS * sum(sides)
    if lower is not None and upper is not None and lower > upper + slack:
        return f"{WRONG} sides cross, lower {lower!r} > upper {upper!r}"
    if lower is not None and lr < lower - slack:
        return f"{WRONG} lr {lr!r} below lower {lower!r}"
    if upper is not None and lr > upper + slack:
        return f"{WRONG} lr {lr!r} above upper {upper!r}"
    return None


def check_divergence(generator: str, p, q, lr: float, lower, upper, valid: bool) -> str | None:
    """Recompute lr independently, then check the certified sides."""
    ref, scale = reference_lr(generator, p, q)
    tol = LR_ULPS * EPS * scale
    if not math.isfinite(lr) or abs(lr - ref) > tol:
        return f"lr {lr!r} differs from reference {ref!r} by more than {tol:.3g}"
    return check_bracket(lr, lower, upper, valid, tol)


def zm_pmf(N: int, q: float, s: float) -> list[float]:
    """Zipf-Mandelbrot pmf (i + q)^(-s) / H on 1..N by a plain fsum loop."""
    terms = [(i + q) ** -s for i in range(1, N + 1)]
    h = math.fsum(terms)
    return [t / h for t in terms]


# -- CLI outputs --------------------------------------------------------------


def _close(x: float, ref: float, ulps: float = 8.0) -> bool:
    return abs(x - ref) <= ulps * EPS * max(1.0, abs(ref))


def check_cli(kind: str, code: int, stdout: str, expect: dict) -> str | None:
    """Check one CLI process's stdout against closed-form values.

    Exit status 2 (a violated identity or bracket) is only expected of verify;
    the caller has already counted any other non-zero status as a failed op.
    """
    if code != 0 and kind != "verify":
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if kind == "dd":
        return None if _close(out, expect["value"]) else f"dd {out!r} != {expect['value']!r}"
    if kind == "lr":
        # x^2 on [a, b]: A(x^2) - (a + b) A(x) + a b, up to the sum's rounding.
        tol = LR_ULPS * EPS * expect["scale"]
        return None if abs(out - expect["value"]) <= tol else f"lr {out!r} != {expect['value']!r}"
    if kind == "bounds":
        for key in ("lower", "lr", "upper"):
            if not _close(out[key], expect[key]):
                return f"bounds {key} {out[key]!r} != {expect[key]!r}"
        return check_bracket(out["lr"], out["lower"], out["upper"], out["direction_valid"], 0.0)
    if kind == "div":
        return check_divergence(
            expect["generator"], expect["p"], expect["q"],
            out["lr"], out["lower"], out["upper"], out["direction_valid"],
        )
    if kind == "zm":
        if _close(out["a"], 5.0 / 6.0) and _close(out["b"], 5.0 / 3.0):
            return None
        return f"zm ratio range ({out['a']!r}, {out['b']!r}) != (5/6, 5/3)"
    if kind == "verify":
        if out["identities"]["failures"]:
            return f"verify: {len(out['identities']['failures'])} identity failures"
        if out["brackets"]["failures"]:
            return f"{WRONG} verify: {len(out['brackets']['failures'])} bracket violations"
        return None
    raise ValueError(f"unknown CLI check {kind!r}")


def selftest() -> list[str]:
    """Negative controls: a crossed bracket and a wrong lr must both be flagged.

    Returns the controls that did NOT trip (empty when the checker works).
    """
    p, q = (0.2, 0.3, 0.5), (0.5, 0.25, 0.25)
    lr, _ = reference_lr("kl", p, q)
    missed = []
    if check_divergence("kl", p, q, lr, lr + 0.1, lr - 0.1, True) is None:
        missed.append("crossed bracket")
    if check_divergence("kl", p, q, lr * (1.0 + 1e-9) + 1e-12, None, None, True) is None:
        missed.append("wrong lr")
    if check_divergence("kl", p, q, lr, lr - 0.1, lr + 0.1, True) is not None:
        missed.append("a right report was flagged")
    return missed
