"""Command-line front end: dd, lr, bounds, div, zm and verify subcommands.

Output is byte-stable for fixed inputs and seed: JSON fields appear in a
fixed order and floats are printed with 17 significant digits, so re-parsing
reproduces the exact values.  Each subcommand returns its JSON value and its
CSV rows, and `main` writes the one that --format asks for.  Exit status is
0 on success, 1 on validation errors (reported with the offending field)
and when a div or zm bound fails its dual-route crosscheck, and 2 when
`verify` finds a violated identity or bracket.  `--convexity auto`
takes the class from `generators.classify` in bounds, div and zm alike (an
indefinite class is a validation error); only verify samples, so --samples
is a verify flag and --seed matters only there.  The ELR_SEED environment
variable overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .bounds import CONCAVE, CONVEX, FAMILIES, bound
from .divergence import ProbabilityVector, divergence_bounds, f_divergence
from .divided_diff import FunctionModel, NodeMultiset, divided_difference, newton_interpolant
from .functional import DiscreteFunctional, lr_difference
from .generators import definite_class, make_generator, parse_function_spec
from .oracle import AuditConfig, audit_brackets, audit_identities
from .zipf import ZipfMandelbrotParams, pmf_vector, ratio_extrema, zm_divergence_bounds

__all__ = ["main"]

_THEOREM_CHOICES = tuple(tag.lower() for tag in FAMILIES)
_SEED_HELP = "accepted for uniformity; only verify draws random numbers"


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(value) -> str:
    """JSON with insertion-ordered fields and 17-significant-digit floats."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _csv_lines(rows) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row) for row in rows)


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _parse_interval(text: str, flag: str) -> tuple[float, float]:
    vals = _parse_floats(text, flag)
    if len(vals) != 2:
        raise ValueError(f"{flag}: expected two comma-separated numbers, got {text!r}")
    return vals[0], vals[1]


def _parse_nodes(text: str) -> NodeMultiset:
    entries = []
    for chunk in text.split(","):
        value, _, mult = chunk.partition(":")
        try:
            entries.append((float(value), int(mult) if mult else 1))
        except ValueError as exc:
            raise ValueError(f"--nodes: bad entry {chunk!r} ({exc})") from exc
    return NodeMultiset(tuple(entries))


def _function_for_nodes(args, nodes: NodeMultiset) -> FunctionModel:
    if args.domain:
        domain = _parse_interval(args.domain, "--domain")
    else:
        lo = nodes.entries[0][0]
        hi = nodes.entries[-1][0]
        domain = (lo, hi) if lo < hi else (lo - 0.5, hi + 0.5)
    return make_generator(parse_function_spec(args.function, domain=domain))


def _load_functional(args) -> DiscreteFunctional:
    if args.functional_file:
        with open(args.functional_file) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"--functional-file: malformed JSON ({exc})") from exc
        return DiscreteFunctional.from_dict(data)
    missing = [
        flag
        for flag, val in (
            ("--points", args.points),
            ("--weights", args.weights),
            ("--interval", args.interval),
        )
        if not val
    ]
    if missing:
        raise ValueError(f"{', '.join(missing)}: required unless --functional-file is given")
    return DiscreteFunctional(
        points=_parse_floats(args.points, "--points"),
        weights=_parse_floats(args.weights, "--weights"),
        interval=_parse_interval(args.interval, "--interval"),
    )


def _load_distribution(inline: str | None, path: str | None, key: str, flag: str) -> ProbabilityVector:
    if inline:
        return ProbabilityVector(_parse_floats(inline, flag))
    if not path:
        raise ValueError(f"{flag} or {flag}-file: required")
    if path.endswith(".csv"):
        column = 0 if key == "p" else 1
        values = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                try:
                    values.append(float(cells[column] if len(cells) > column else cells[0]))
                except ValueError as exc:
                    raise ValueError(f"{flag}-file: bad CSV row {line!r} ({exc})") from exc
        return ProbabilityVector(tuple(values))
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{flag}-file: malformed JSON ({exc})") from exc
    if isinstance(data, dict):
        if key not in data:
            raise ValueError(f"{flag}-file: JSON object lacks key {key!r}")
        data = data[key]
    return ProbabilityVector(tuple(float(v) for v in data))


def _parse_zm(text: str) -> ZipfMandelbrotParams:
    vals = _parse_floats(text, "--zm")
    if len(vals) != 3:
        raise ValueError(f"--zm: expected N,q,s, got {text!r}")
    if vals[0] != int(vals[0]):
        raise ValueError(f"--zm: N must be an integer, got {vals[0]!r}")
    return ZipfMandelbrotParams(N=int(vals[0]), q=vals[1], s=vals[2])


# ---------------------------------------------------------------------------
# Subcommands


def _report_rows(report: dict) -> list[tuple]:
    return [("kind", "k", "value")] + [(k, None, v) for k, v in report.items()]


def _bound_term_rows(args, f: FunctionModel, A: DiscreteFunctional):
    """One row per displayed summand, mirroring the bound's summation structure."""
    family = FAMILIES[args.theorem.upper()]
    for side, terms in zip(family.labels, family.terms(f, A, args.n, args.m)):
        for k, term in enumerate(terms, start=1):
            yield (f"{side}_term", k, term)


def _auto(args) -> str | None:
    return None if args.convexity == "auto" else args.convexity


def _run_dd(args):
    nodes = _parse_nodes(args.nodes)
    f = _function_for_nodes(args, nodes)
    if args.interpolant:
        form = newton_interpolant(f, nodes)
        return form.to_dict(), [("node", "coeff")] + list(zip(form.nodes, form.coeffs))
    value = divided_difference(f, nodes)
    return value, [("value",), (value,)]


def _run_lr(args):
    A = _load_functional(args)
    f = make_generator(parse_function_spec(args.function, domain=A.interval))
    value = lr_difference(f, A)
    return value, [("value",), (value,)]


def _run_bounds(args):
    A = _load_functional(args)
    spec = parse_function_spec(args.function, domain=A.interval)
    f = make_generator(spec)
    try:
        convexity = _auto(args) or definite_class(spec, args.n)
    except OverflowError as exc:
        raise ValueError(f"order-{args.n} derivative overflow in classify: {exc}") from exc
    report = _crosschecked(
        lambda theorem: bound(theorem, f, A, args.n, args.m, convexity), theorem=args.theorem
    ).to_dict()
    # Lazy: the term rows are computed only when --format csv writes them.
    return report, itertools.chain(_report_rows(report), _bound_term_rows(args, f, A))


def _crosschecked(bounds, *args, **kwargs):
    """`bounds(*args, **kwargs)`, with the crosscheck's refusal (a plain
    RuntimeError; subclasses such as RecursionError propagate) and a moment's
    OverflowError (too wide a ratio range) as a ValueError."""
    try:
        return bounds(*args, **kwargs)
    except OverflowError as exc:
        raise ValueError(f"{kwargs['theorem'].upper()} moment overflow: {exc}") from exc
    except RuntimeError as exc:
        if type(exc) is not RuntimeError:
            raise
        raise ValueError(str(exc)) from exc


def _run_div(args):
    p = _load_distribution(args.p, args.p_file, "p", "--p")
    q = _load_distribution(args.q, args.q_file, "q", "--q")
    interval = _parse_interval(args.interval, "--interval") if args.interval else None
    spec = parse_function_spec(args.function, domain=interval)
    if args.theorem is None:
        value = f_divergence(make_generator(spec), p, q)
        return value, [("divergence",), (value,)]
    report = _crosschecked(
        divergence_bounds, spec, p, q, n=args.n, m=args.m, theorem=args.theorem,
        convexity=_auto(args), interval=interval,
    )
    out = {"divergence": f_divergence(make_generator(spec), p, q)}
    out.update(report.to_dict())
    return out, _report_rows(out)


def _run_zm(args):
    laws = [_parse_zm(text) for text in args.zm]
    if args.ratio_range:
        if len(laws) != 2:
            raise ValueError("--ratio-range: needs exactly two --zm laws")
        rr = ratio_extrema(laws[0], laws[1])
        return {"a": rr.a, "b": rr.b}, [("a", "b"), (rr.a, rr.b)]
    if args.theorem is None:
        if not laws:
            raise ValueError("--zm: at least one law required")
        if len(laws) > 1 and laws[1].N != laws[0].N:
            raise ValueError(f"--zm: laws must share N, got {laws[0].N} and {laws[1].N}")
        vectors = [pmf_vector(law) for law in laws]
        out = {"i": list(range(1, laws[0].N + 1)), "p": list(vectors[0].values)}
        if len(vectors) > 1:
            out["q"] = list(vectors[1].values)
        return out, [tuple(out)] + list(zip(*out.values()))
    if len(laws) != 2:
        raise ValueError("--theorem: needs exactly two --zm laws")
    interval = _parse_interval(args.interval, "--interval") if args.interval else None
    report = _crosschecked(
        zm_divergence_bounds, laws[0], laws[1], parse_function_spec(args.function),
        n=args.n, m=args.m, theorem=args.theorem, convexity=_auto(args), interval=interval,
    ).to_dict()
    return report, _report_rows(report)


def _run_verify(args):
    cfg = AuditConfig(
        cases=args.cases,
        seed=args.seed,
        cases_per_theorem=args.cases_per_theorem,
        certify_samples=args.samples,
        inject_wrong_parity=args.inject_wrong_parity,
    )
    out = {}
    if args.suite in ("identities", "all"):
        out["identities"] = audit_identities(cfg).to_dict()
    if args.suite in ("brackets", "all"):
        out["brackets"] = audit_brackets(cfg).to_dict()
    rows = [("suite", "cases", "skipped", "tight", "failures", "max_residual")]
    rows += [
        (name, s["cases"], s["skipped"], s["tight"], len(s["failures"]), s["max_residual"])
        for name, s in out.items()
    ]
    return out, rows


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    # Validation problems exit 1, reserving 2 for verify violations.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub, *, function=True, seed=True):
    if function:
        sub.add_argument(
            "--function",
            required=True,
            help="kl|hellinger|harmonic|jeffreys|exp|poly:<c0,c1,...>|power:<p>",
        )
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help=_SEED_HELP)


def _add_functional_flags(sub):
    sub.add_argument("--points", help="comma-separated point values")
    sub.add_argument("--weights", help="comma-separated nonnegative weights summing to 1")
    sub.add_argument("--interval", help="a,b enclosing interval")
    sub.add_argument("--functional-file", help='JSON {"points":[...],"weights":[...],"interval":[a,b]}')


def _add_bound_flags(sub, required=True):
    sub.add_argument("--theorem", choices=_THEOREM_CHOICES, required=required)
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--m", type=int)
    sub.add_argument("--convexity", choices=("auto", CONVEX, CONCAVE), default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elrbounds", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    dd = subs.add_parser("dd", help="divided difference over a node multiset")
    _add_common(dd, seed=False)
    dd.add_argument("--nodes", required=True, help="v[:mult],... e.g. 0:3 or 0,1,2")
    dd.add_argument("--domain", help="a,b (defaults to the node span)")
    dd.add_argument("--interpolant", action="store_true", help="emit the Newton form instead of the top difference")
    dd.set_defaults(run=_run_dd)

    lr = subs.add_parser("lr", help="chord-gap value for a discrete functional")
    _add_common(lr, seed=False)
    _add_functional_flags(lr)
    lr.set_defaults(run=_run_lr)

    bounds = subs.add_parser("bounds", help="bound report for a discrete functional")
    _add_common(bounds)
    _add_functional_flags(bounds)
    _add_bound_flags(bounds)
    bounds.set_defaults(run=_run_bounds)

    div = subs.add_parser("div", help="f-divergence value and bound report")
    _add_common(div)
    div.add_argument("--p", help="comma-separated probabilities")
    div.add_argument("--q", help="comma-separated probabilities")
    div.add_argument("--p-file", help='JSON {"p":[...]} / bare array / CSV column 1')
    div.add_argument("--q-file", help='JSON {"q":[...]} / bare array / CSV column 2')
    div.add_argument("--interval", help="a,b widened ratio interval")
    _add_bound_flags(div, required=False)
    div.set_defaults(run=_run_div)

    zm = subs.add_parser("zm", help="Zipf-Mandelbrot pmf tables, ratio range and bounds")
    zm.add_argument("--zm", action="append", default=[], metavar="N,q,s", help="law parameters (repeatable)")
    zm.add_argument("--ratio-range", action="store_true")
    zm.add_argument("--function", help="generator for bound mode")
    zm.add_argument("--interval", help="a,b widened ratio interval")
    _add_bound_flags(zm, required=False)
    zm.add_argument("--format", choices=("json", "csv"), default="json")
    zm.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    zm.set_defaults(run=_run_zm)

    verify = subs.add_parser("verify", help="run the identity and bracket audit suites")
    verify.add_argument("--suite", choices=("identities", "brackets", "all"), default="all")
    verify.add_argument("--cases", type=int, default=200)
    verify.add_argument("--cases-per-theorem", type=int, default=100)
    verify.add_argument("--samples", type=int, default=120)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--inject-wrong-parity", action="store_true")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(run=_run_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env_seed = os.environ.get("ELR_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: ELR_SEED: not an integer: {env_seed!r}", file=sys.stderr)
            return 1
    try:
        if getattr(args, "theorem", None) is not None:
            for flag in ("n", "function"):
                if getattr(args, flag) is None:
                    raise ValueError(f"--{flag}: required with --theorem")
            if args.m is None and FAMILIES[args.theorem.upper()].takes_m:
                raise ValueError(f"--m: required for --theorem {args.theorem}")
        value, rows = args.run(args)
        print(_csv_lines(rows) if args.format == "csv" else dumps(value))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = args.subcommand == "verify" and any(section["failures"] for section in value.values())
    return 2 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
