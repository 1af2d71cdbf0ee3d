"""Command-line front end: dd, lr, bounds, div, zm and verify subcommands.

Output is byte-stable for fixed inputs and seed: JSON fields appear in a
fixed order and floats are printed with 17 significant digits, so re-parsing
reproduces the exact values.  Exit status is 0 on success, 1 on validation
errors (reported with the offending field), and 2 when `verify` finds a
violated identity or bracket.  The ELR_SEED environment variable overrides
--seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import CONCAVE, CONVEX, FAMILIES, bound
from .divergence import ProbabilityVector, divergence_bounds, f_divergence, ratio_range
from .divided_diff import FunctionModel, NodeMultiset, divided_difference, newton_interpolant
from .functional import DiscreteFunctional, lr_difference
from .generators import INDEFINITE, GeneratorSpec, make_generator, parse_function_spec
from .oracle import AuditConfig, audit_brackets, audit_identities, certify_convexity
from .zipf import ZipfMandelbrotParams, pmf_vector, ratio_extrema, zm_divergence_bounds

__all__ = ["main"]

_THEOREM_CHOICES = tuple(tag.lower() for tag in FAMILIES)


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


def _resolve_convexity(args, f: FunctionModel, n: int) -> str:
    if args.convexity != "auto":
        return args.convexity
    cert = certify_convexity(f, n, samples=args.samples, seed=args.seed)
    if cert.verdict == INDEFINITE:
        raise ValueError(
            f"--convexity: auto-certification found {f.name!r} indefinite at order {n} "
            f"(min_dd={cert.min_dd:g}, max_dd={cert.max_dd:g}); pass it explicitly"
        )
    return cert.verdict


def _parse_zm(text: str) -> ZipfMandelbrotParams:
    vals = _parse_floats(text, "--zm")
    if len(vals) != 3:
        raise ValueError(f"--zm: expected N,q,s, got {text!r}")
    if vals[0] != int(vals[0]):
        raise ValueError(f"--zm: N must be an integer, got {vals[0]!r}")
    return ZipfMandelbrotParams(N=int(vals[0]), q=vals[1], s=vals[2])


# ---------------------------------------------------------------------------
# Subcommands


def _bound_term_rows(args, f: FunctionModel, A: DiscreteFunctional) -> list[tuple]:
    """One row per displayed summand, mirroring the bound's summation structure."""
    family = FAMILIES[args.theorem.upper()]
    return [
        (f"{side}_term", k, term)
        for side, terms in zip(family.labels, family.decompose(f, A, args.n, args.m))
        for k, term in enumerate(terms, start=1)
    ]


def _run_dd(args) -> tuple[str, int]:
    nodes = _parse_nodes(args.nodes)
    f = _function_for_nodes(args, nodes)
    if args.interpolant:
        form = newton_interpolant(f, nodes)
        if args.format == "csv":
            rows = [("node", "coeff")] + list(zip(form.nodes, form.coeffs))
            return _csv_lines(rows), 0
        return dumps(form.to_dict()), 0
    value = divided_difference(f, nodes)
    if args.format == "csv":
        return _csv_lines([("value",), (value,)]), 0
    return dumps(value), 0


def _run_lr(args) -> tuple[str, int]:
    A = _load_functional(args)
    f = make_generator(parse_function_spec(args.function, domain=A.interval))
    value = lr_difference(f, A)
    if args.format == "csv":
        return _csv_lines([("value",), (value,)]), 0
    return dumps(value), 0


def _run_bounds(args) -> tuple[str, int]:
    A = _load_functional(args)
    f = make_generator(parse_function_spec(args.function, domain=A.interval))
    report = bound(args.theorem, f, A, args.n, args.m, _resolve_convexity(args, f, args.n))
    if args.format == "csv":
        rows: list[tuple] = [("kind", "k", "value")]
        rows += [(k, None, v) for k, v in report.to_dict().items()]
        rows += _bound_term_rows(args, f, A)
        return _csv_lines(rows), 0
    return dumps(report.to_dict()), 0


def _run_div(args) -> tuple[str, int]:
    p = _load_distribution(args.p, args.p_file, "p", "--p")
    q = _load_distribution(args.q, args.q_file, "q", "--q")
    interval = _parse_interval(args.interval, "--interval") if args.interval else None
    if args.theorem is None:
        spec = parse_function_spec(args.function)
        if interval is not None:
            spec = parse_function_spec(args.function, domain=interval)
        value = f_divergence(make_generator(spec), p, q)
        if args.format == "csv":
            return _csv_lines([("divergence",), (value,)]), 0
        return dumps(value), 0
    rr = ratio_range(p, q)
    a, b = interval if interval is not None else (rr.a, rr.b)
    f = make_generator(parse_function_spec(args.function, domain=(a, b)))
    convexity = _resolve_convexity(args, f, args.n)
    report = divergence_bounds(
        f, p, q, n=args.n, m=args.m, theorem=args.theorem, convexity=convexity,
        interval=(a, b),
    )
    out = {"divergence": f_divergence(f, p, q)}
    out.update(report.to_dict())
    if args.format == "csv":
        rows = [("kind", "k", "value")] + [(k, None, v) for k, v in out.items()]
        return _csv_lines(rows), 0
    return dumps(out), 0


def _run_zm(args) -> tuple[str, int]:
    laws = [_parse_zm(text) for text in args.zm]
    if args.ratio_range:
        if len(laws) != 2:
            raise ValueError("--ratio-range: needs exactly two --zm laws")
        rr = ratio_extrema(laws[0], laws[1])
        if args.format == "csv":
            return _csv_lines([("a", "b"), (rr.a, rr.b)]), 0
        return dumps({"a": rr.a, "b": rr.b}), 0
    if args.theorem is None:
        if not laws:
            raise ValueError("--zm: at least one law required")
        vectors = [pmf_vector(law) for law in laws]
        if args.format == "csv":
            header = ("i", "p") if len(laws) == 1 else ("i", "p", "q")
            rows = [header]
            for i in range(laws[0].N):
                rows.append((i + 1,) + tuple(vec.values[i] for vec in vectors))
            return _csv_lines(rows), 0
        out = {"i": list(range(1, laws[0].N + 1)), "p": list(vectors[0].values)}
        if len(vectors) > 1:
            out["q"] = list(vectors[1].values)
        return dumps(out), 0
    if len(laws) != 2:
        raise ValueError("--theorem: needs exactly two --zm laws")
    spec = parse_function_spec(args.function)
    interval = _parse_interval(args.interval, "--interval") if args.interval else None
    convexity = None if args.convexity == "auto" else args.convexity
    report = zm_divergence_bounds(
        laws[0], laws[1], spec, n=args.n, m=args.m, theorem=args.theorem,
        convexity=convexity, interval=interval,
    )
    if args.format == "csv":
        rows = [("kind", "k", "value")] + [(k, None, v) for k, v in report.to_dict().items()]
        return _csv_lines(rows), 0
    return dumps(report.to_dict()), 0


def _run_verify(args) -> tuple[str, int]:
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
    failed = any(section["failures"] for section in out.values())
    if args.format == "csv":
        rows = [("suite", "cases", "skipped", "tight", "failures", "max_residual")]
        for name, section in out.items():
            rows.append(
                (
                    name,
                    section["cases"],
                    section["skipped"],
                    section["tight"],
                    len(section["failures"]),
                    section["max_residual"],
                )
            )
        return _csv_lines(rows), 2 if failed else 0
    return dumps(out), 2 if failed else 0


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
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (ELR_SEED overrides)")


def _add_functional_flags(sub):
    sub.add_argument("--points", help="comma-separated point values")
    sub.add_argument("--weights", help="comma-separated nonnegative weights summing to 1")
    sub.add_argument("--interval", help="a,b enclosing interval")
    sub.add_argument("--functional-file", help='JSON {"points":[...],"weights":[...],"interval":[a,b]}')


def _add_bound_flags(sub):
    sub.add_argument("--theorem", choices=_THEOREM_CHOICES, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int)
    sub.add_argument("--convexity", choices=("auto", CONVEX, CONCAVE), default="auto")
    sub.add_argument("--samples", type=int, default=200, help="certification samples for auto convexity")


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
    div.add_argument("--theorem", choices=_THEOREM_CHOICES)
    div.add_argument("--n", type=int)
    div.add_argument("--m", type=int)
    div.add_argument("--convexity", choices=("auto", CONVEX, CONCAVE), default="auto")
    div.add_argument("--samples", type=int, default=200)
    div.set_defaults(run=_run_div)

    zm = subs.add_parser("zm", help="Zipf-Mandelbrot pmf tables, ratio range and bounds")
    zm.add_argument("--zm", action="append", default=[], metavar="N,q,s", help="law parameters (repeatable)")
    zm.add_argument("--ratio-range", action="store_true")
    zm.add_argument("--function", help="generator for bound mode")
    zm.add_argument("--theorem", choices=_THEOREM_CHOICES)
    zm.add_argument("--n", type=int)
    zm.add_argument("--m", type=int)
    zm.add_argument("--interval", help="a,b widened ratio interval")
    zm.add_argument("--convexity", choices=("auto", CONVEX, CONCAVE), default="auto")
    zm.add_argument("--format", choices=("json", "csv"), default="json")
    zm.add_argument("--seed", type=int, default=0)
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
            if args.n is None:
                raise ValueError("--n: required with --theorem")
            if args.m is None and FAMILIES[args.theorem.upper()].takes_m:
                raise ValueError(f"--m: required for --theorem {args.theorem}")
        output, code = args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
