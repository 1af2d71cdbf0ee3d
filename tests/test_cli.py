"""CLI subcommands: worked values, determinism, formats, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from elrbounds import CONCAVE, CONVEX, FAMILIES, GeneratorSpec, ZipfMandelbrotParams, classify, cli, pmf_vector


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- worked examples -----------------------------------------------------------


def test_dd_quadratic(capsys):
    code, out, _ = run(capsys, "dd", "--function", "poly:0,0,1", "--nodes", "0,1,2")
    assert code == 0
    assert json.loads(out) == 1


def test_dd_confluent_multiplicity_syntax(capsys):
    code, out, _ = run(capsys, "dd", "--function", "exp", "--nodes", "0:3")
    assert code == 0
    assert json.loads(out) == pytest.approx(0.5)


@pytest.mark.parametrize("function,nodes,value", [
    ("kl", "0.5:3", 1.0),  # f''(t)/2! = 1/(2t)
    ("hellinger", "0.2:3", 0.2**-1.5 / 8),  # f''(t)/2! = t^(-3/2)/8
    ("harmonic", "-0.7:2", 2 / 0.3**2),  # f'(t) = 2/(1 + t)^2
], ids=["kl", "hellinger", "harmonic"])
def test_dd_single_node_default_domain_stays_inside_the_generator(capsys, function, nodes, value):
    # A single node v defaults to [v, v + 1], which never crosses the lower limit below v.
    code, out, err = run(capsys, "dd", "--function", function, "--nodes", nodes)
    assert (code, err) == (0, "")
    assert json.loads(out) == pytest.approx(value, rel=1e-12)


def test_dd_single_node_at_the_lower_limit_gets_the_domain_text(capsys):
    code, out, err = run(capsys, "dd", "--function", "kl", "--nodes", "0:3")
    assert (code, out, err) == (1, "", "error: kl requires a domain inside (0, inf), got [0.0, 1.0]\n")


def test_lr_worked_value(capsys):
    code, out, _ = run(
        capsys, "lr", "--function", "poly:0,0,1",
        "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "0,2",
    )
    assert code == 0
    assert json.loads(out) == pytest.approx(-0.75)


def test_bounds_worked_bracket(capsys):
    code, out, _ = run(
        capsys, "bounds", "--function", "poly:0,0,0,1",
        "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "0,2",
        "--theorem", "tm23", "--n", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lr"] == -2.25
    assert report["lower"] == -3.0
    assert report["upper"] == -1.5
    assert report["theorem"] == "TM23"
    assert report["direction_valid"] is True


def test_zm_ratio_range(capsys):
    code, out, _ = run(capsys, "zm", "--zm", "2,0,1", "--zm", "2,0,2", "--ratio-range")
    assert code == 0
    rr = json.loads(out)
    assert rr["a"] == pytest.approx(5 / 6, abs=1e-12)
    assert rr["b"] == pytest.approx(5 / 3, abs=1e-12)


def test_zm_bound_report(capsys):
    code, out, _ = run(
        capsys, "zm", "--zm", "3,0,1", "--zm", "3,0,2",
        "--function", "poly:0,0,0,1", "--theorem", "tm23", "--n", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lower"] - 1e-12 <= report["lr"] <= report["upper"] + 1e-12


def test_div_value_only(capsys):
    code, out, _ = run(capsys, "div", "--function", "hellinger", "--p", "0.5,0.5", "--q", "0.25,0.75")
    assert code == 0
    assert json.loads(out) == pytest.approx(0.03407417, abs=1e-8)


def test_div_with_bound_report(capsys):
    code, out, _ = run(
        capsys, "div", "--function", "jeffreys", "--p", "0.2,0.5,0.3", "--q", "0.4,0.3,0.3",
        "--theorem", "tm24", "--n", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["divergence"] > 0
    assert report["lower"] - 1e-12 <= report["lr"] <= report["upper"] + 1e-12
    assert report["convexity"] == "n-concave"


# --- auto convexity: one class source (classify) in every subcommand ----------


def test_auto_convexity_orients_wide_hellinger_bracket(capsys):
    # f^(5) < 0 everywhere on (0, inf): hellinger is 5-concave.  A sampled
    # divided-difference verdict called it 5-convex here and swapped the sides.
    code, out, _ = run(
        capsys, "bounds", "--function", "hellinger",
        "--points", "1e-6,1,1e6", "--weights", "0.3,0.4,0.3", "--interval", "1e-6,1e6",
        "--theorem", "cor21", "--n", "5", "--m", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["convexity"] == CONCAVE
    assert report["direction_valid"] is True
    assert report["lower"] <= report["lr"] <= report["upper"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("kl", ("bounds", "--function", "kl", "--points", "1e-6,1,1e6", "--weights", "0.3,0.4,0.3",
                "--interval", "1e-6,1e6", "--theorem", "tm23", "--n", "5")),
        # Ratio range [1e-6, 999998]: only the class is asserted.
        ("hellinger", ("div", "--function", "hellinger", "--p", "0.999998,0.000001,0.000001",
                       "--q", "0.000001,0.999998,0.000001", "--theorem", "cor21", "--n", "5", "--m", "3")),
        ("kl", ("zm", "--zm", "20,0,0.5", "--zm", "20,3,3", "--function", "kl",
                "--interval", "1e-6,1e6", "--theorem", "tm23", "--n", "5")),
    ],
)
def test_auto_convexity_is_classify_in_every_subcommand(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = classify(GeneratorSpec(name, domain=(1e-6, 1e6)), 5)
    assert want == CONCAVE
    assert json.loads(out)["convexity"] == want


def test_auto_convexity_indefinite_is_a_validation_error(capsys):
    # t^3 - t^4 has f''' = 6 - 24t, which changes sign at t = 1/4.
    code, out, err = run(
        capsys, "bounds", "--function", "poly:0,0,0,1,-1",
        "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "0,2",
        "--theorem", "tm23", "--n", "3",
    )
    assert code == 1
    assert out == ""
    assert "indefinite order-3 convexity" in err


@pytest.mark.parametrize("convexity", [[], ["--convexity", CONVEX]], ids=["auto", "explicit"])
@pytest.mark.parametrize("command", [
    ["div", "--function", "kl", "--p", "0.5,0.3,0.2", "--q", "0.4,0.3,0.3"],
    ["bounds", "--function", "kl", "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "0.25,2"],
], ids=["div", "bounds"])
def test_n_1_gets_the_n_text_before_the_class(capsys, command, convexity):
    # kl is indefinite at order 1, but the n rule is checked first, with and without a class.
    code, out, err = run(capsys, *command, "--theorem", "tm23", "--n", "1", *convexity)
    assert (code, out, err) == (1, "", "error: n must be an integer >= 2, got 1\n")


def test_samples_is_a_verify_flag_only():
    parser = cli.build_parser()
    assert parser.parse_args(["verify", "--samples", "7"]).samples == 7
    for argv in (
        ["bounds", "--function", "exp", "--theorem", "tm23", "--n", "3"],
        ["div", "--function", "kl"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--samples", "7"])


# --- determinism and round-trips ----------------------------------------------


def test_output_is_byte_stable(capsys):
    argv = (
        "bounds", "--function", "exp",
        "--points", "0.4,0.9,1.7", "--weights", "0.25,0.35,0.4", "--interval", "0,2",
        "--theorem", "tm24", "--n", "4",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_output_is_byte_stable(capsys):
    argv = ("verify", "--cases", "20", "--cases-per-theorem", "5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_json_round_trip_preserves_values(capsys):
    _, out, _ = run(
        capsys, "bounds", "--function", "kl",
        "--points", "0.6,1.1,1.9", "--weights", "0.3,0.3,0.4", "--interval", "0.5,2",
        "--theorem", "tm23", "--n", "3",
    )
    first = json.loads(out)
    assert cli.dumps(first) == out.rstrip("\n")


def test_seventeen_digit_floats_round_trip():
    values = [1 / 3, 2.25, 1e-300, -7.123456789012345e22]
    for v in values:
        assert json.loads(cli.dumps(v)) == v
    assert cli.dumps(float("inf")) == "Infinity"
    assert json.loads(cli.dumps({"x": float("inf")}))["x"] == float("inf")


# --- CSV -------------------------------------------------------------------------


def test_bounds_csv_has_term_rows(capsys):
    code, out, _ = run(
        capsys, "bounds", "--function", "poly:0,0,0,1",
        "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "0,2",
        "--theorem", "tm23", "--n", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,k,value"
    table = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
    assert float(table[("lr", "")]) == -2.25
    assert float(table[("m1_term", "1")]) == -3.0
    assert float(table[("m2_term", "1")]) == -1.5


def test_bounds_csv_rows_reuse_the_moments_of_the_report(tmp_path, capsys, monkeypatch, scalar_moments):
    from elrbounds import functional

    rng = np.random.default_rng(8)
    path = tmp_path / "functional.json"
    path.write_text(json.dumps({
        "points": rng.uniform(0.1, 2.0, 5000).tolist(),
        "weights": rng.dirichlet(np.ones(5000)).tolist(),
        "interval": [0.1, 2.0],
    }))
    argv = ("bounds", "--function", "exp", "--functional-file", str(path),
            "--theorem", "tm23", "--n", "9", "--format", "csv")
    calls = []
    honest = functional._sum
    monkeypatch.setattr(functional, "_sum", lambda x: calls.append(len(x)) or honest(x))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # The weights' unit-sum check, A(g), TM23 n=9's thirteen distinct moments
    # and A(f): the term rows read the moments the report summed.
    assert calls == [5000] * 16
    scalar_moments()
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize("tag", [tag.lower() for tag in FAMILIES])
def test_bounds_csv_term_rows_are_the_terms_the_report_summed(capsys, monkeypatch, tag):
    # Each side's rows sum (fsum) to that side's JSON value, bit for bit, and the
    # rows are not formed a second time: one endpoint table per side.
    from elrbounds import bounds

    family = FAMILIES[tag.upper()]
    argv = ("bounds", "--function", "exp", "--points", "0.3,0.9,1.4,1.9", "--weights", "0.1,0.4,0.3,0.2",
            "--interval", "0.2,2", "--theorem", tag, "--n", "7", "--m", "4")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    tables, honest = [], bounds.endpoint_table
    monkeypatch.setattr(bounds, "endpoint_table", lambda *args: tables.append(args) or honest(*args))
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and len(tables) == len(family.sides)
    rows = {label: [] for label in family.labels}
    for line in out.strip().splitlines()[1:]:
        kind, _, value = line.split(",")
        if kind.endswith("_term"):
            rows[kind.removesuffix("_term")].append(float(value))
    sums = [math.fsum(rows[label]) for label in family.labels]
    want = family.arrange(7, 4, report["convexity"], sums)[:2]
    assert [None if v is None else v.hex() for v in want] == [
        None if report[key] is None else float(report[key]).hex() for key in ("lower", "upper")]


# --- files ------------------------------------------------------------------------


def test_functional_file_input(tmp_path, capsys):
    path = tmp_path / "functional.json"
    path.write_text('{"points": [0.5, 1.5], "weights": [0.5, 0.5], "interval": [0, 2]}')
    code, out, _ = run(capsys, "lr", "--function", "poly:0,0,1", "--functional-file", str(path))
    assert code == 0
    assert json.loads(out) == pytest.approx(-0.75)


def test_distribution_file_inputs(tmp_path, capsys):
    path = tmp_path / "dist.json"
    path.write_text('{"p": [0.5, 0.5], "q": [0.25, 0.75]}')
    code, out, _ = run(
        capsys, "div", "--function", "hellinger",
        "--p-file", str(path), "--q-file", str(path),
    )
    assert code == 0
    assert json.loads(out) == pytest.approx(0.03407417, abs=1e-8)


# --- exit codes ---------------------------------------------------------------------


def test_validation_errors_exit_1(capsys):
    code, _, err = run(
        capsys, "bounds", "--function", "poly:0,0,1",
        "--points", "0.5", "--weights", "1.0", "--interval", "0,2",
        "--theorem", "tm21", "--n", "3", "--m", "7",
    )
    assert code == 1
    assert "m must be" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--function", "exp", "--points", "0.5", "--weights", "1.0", "--interval", "0,2"),
        ("div", "--function", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75"),
        ("zm", "--zm", "5,0,1", "--zm", "5,1,2", "--function", "kl"),
    ],
)
@pytest.mark.parametrize("theorem", ["tm21", "tm22", "cor21"])
def test_missing_m_exits_1(capsys, argv, theorem):
    code, out, err = run(capsys, *argv, "--theorem", theorem, "--n", "5")
    assert code == 1
    assert out == ""
    assert err == f"error: --m: required for --theorem {theorem}\n"


def test_div_with_an_underflowing_moment_denominator_exits_0(capsys):
    code, out, err = run(
        capsys, "div", "--function", "kl", "--p", "1e-45,0.3,0.3,0.4", "--q", "1e-45,0.4,0.2,0.4",
        "--theorem", "tm21", "--n", "12", "--m", "11",
    )
    assert (code, err) == (0, "")
    assert '"theorem":"TM21"' in out


def test_zm_missing_function_exits_1(capsys):
    code, out, err = run(capsys, "zm", "--zm", "5,0,1", "--zm", "5,1,2", "--theorem", "tm23", "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "error: --function: required with --theorem\n"


@pytest.mark.parametrize("mode", [("--ratio-range",)], ids=lambda m: m[-1].lstrip("-"))
def test_zm_table_with_mismatched_N_exits_1(capsys, mode):
    code, out, err = run(capsys, "zm", "--zm", "3,0,1", "--zm", "2,1,2", *mode)
    assert code == 1
    assert out == ""
    assert err == "error: --zm: laws must share N, got 3 and 2\n"


@pytest.mark.parametrize("law,text", [("5,0,inf", "s must be finite, got inf"),
                                      ("5,inf,1", "q must be finite, got inf")])
def test_zm_with_a_non_finite_parameter_exits_1(capsys, law, text):
    # An infinite exponent used to give the point mass (1, 0, 0, 0, 0).
    code, out, err = run(capsys, "zm", "--zm", law, "--zm", "5,0,1", "--ratio-range")
    assert (code, out) == (1, "")
    assert err == f"error: {text}\n"


def test_missing_required_flags_exit_1(capsys):
    code, _, err = run(capsys, "lr", "--function", "exp")
    assert code == 1
    assert "--points" in err


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["dd", "--wat"])
    assert excinfo.value.code == 1


def test_malformed_file_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "lr", "--function", "exp", "--functional-file", str(path))
    assert code == 1
    assert "malformed JSON" in err


def test_verify_ok_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "20", "--cases-per-theorem", "5")
    assert code == 0
    report = json.loads(out)
    assert report["identities"]["failures"] == []
    assert report["brackets"]["failures"] == []


@pytest.mark.parametrize(
    "flag,value,field",
    [("--cases", "-3", "cases"), ("--cases-per-theorem", "-2", "cases_per_theorem"),
     ("--samples", "0", "samples"), ("--seed", "-1", "seed")],
)
def test_verify_rejects_out_of_range_flags(capsys, flag, value, field):
    code, out, err = run(capsys, "verify", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be an integer >= ")


def test_verify_samples_changes_no_byte(capsys):
    argv = ("verify", "--cases", "5", "--cases-per-theorem", "2", "--seed", "3")
    assert run(capsys, *argv, "--samples", "7") == run(capsys, *argv)


def test_verify_injected_violation_exit_2(capsys):
    code, out, _ = run(
        capsys, "verify", "--cases", "0", "--cases-per-theorem", "5",
        "--inject-wrong-parity",
    )
    assert code == 2
    assert json.loads(out)["brackets"]["failures"]


def test_dd_interpolant_debug_output(capsys):
    code, out, _ = run(
        capsys, "dd", "--function", "poly:0,0,1", "--nodes", "0,1,2", "--interpolant"
    )
    assert code == 0
    assert json.loads(out) == {"nodes": [0.0, 1.0, 2.0], "coeffs": [0.0, 1.0, 1.0]}


def test_div_crosscheck_failure_exits_1(capsys):
    # The gate's refusals.  Two entries put both ratios on the interval's ends:
    # lr and both sides are 0.
    code, out, err = run(
        capsys, "div", "--function", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75", "--theorem", "tm24", "--n", "4",
    )
    assert (code, out, err) == (1, "", "error: TM24 lower: within rounding of lr\n")
    # kl is 4-convex: called 4-concave, its sides are on the wrong sides of lr.
    code, out, err = run(
        capsys, "div", "--function", "kl", "--p", "0.2,0.5,0.3", "--q", "0.4,0.3,0.3", "--theorem", "tm24",
        "--n", "4", "--convexity", "n-concave",
    )
    assert (code, out, err) == (1, "", "error: TM24 lower: contradicted by lr\n")


def test_bounds_endpoint_table_overflow_names_the_table(capsys):
    # f^(9)(1e-40) of kl overflows in the side's endpoint table; every moment is at most 1.
    code, out, err = run(
        capsys, "bounds", "--function", "kl", "--points", "1e-40,1", "--weights", "0.5,0.5",
        "--interval", "1e-40,1", "--theorem", "tm21", "--n", "12", "--m", "11", "--convexity", "n-convex",
    )
    assert (code, out) == (1, "")
    assert err == "error: TM21 endpoint table overflow: (34, 'Numerical result out of range')\n"


def test_zm_moment_overflow_exits_1(capsys):
    code, out, err = run(
        capsys, "zm", "--zm", "100,0,1", "--zm", "100,0,60", "--function", "kl",
        "--theorem", "tm23", "--n", "5",
    )
    assert (code, out) == (1, "")
    assert err == "error: TM23 moment overflow: (34, 'Numerical result out of range')\n"


def test_bounds_moment_overflow_exits_1(capsys):
    code, out, err = run(
        capsys, "bounds", "--function", "kl", "--points", "1,1e200", "--weights", "0.5,0.5",
        "--interval", "1,1e200", "--theorem", "tm23", "--n", "5",
    )
    assert (code, out) == (1, "")
    assert err == "error: TM23 moment overflow: (34, 'Numerical result out of range')\n"


def _kl_lr(points, weights, a, b):
    """The chord gap of kl for the float points and weights, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        x, w = [mpmath.mpf(float(t)) for t in points], [mpmath.mpf(float(v)) for v in weights]
        a, b, f = mpmath.mpf(a), mpmath.mpf(b), lambda t: t * mpmath.log(t)
        mean = mpmath.fsum(wi * xi for wi, xi in zip(w, x))
        return mpmath.fsum(wi * f(xi) for wi, xi in zip(w, x)) - ((b - mean) * f(a) + (mean - a) * f(b)) / (b - a)


def test_auto_class_near_zero_reports_in_every_subcommand(capsys):
    # f^(12) of kl is 10! t^-11, which overflows near 1e-30: a sampled class
    # failed there.  The class column reads kl's even orders as convex without
    # evaluating them, so each subcommand that takes its class from classify
    # reports.  In `bounds` both points sit on the interval's ends: lr and its
    # sides are 0.  In `div` and `zm` the certified bracket holds the exact lr.
    code, out, err = run(
        capsys, "bounds", "--function", "kl", "--points", "1e-30,1", "--weights", "0.5,0.5",
        "--interval", "1e-30,1", "--convexity", "auto", "--theorem", "tm23", "--n", "12",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"lr": 0, "lower": 0, "upper": 0, "theorem": "TM23", "n": 12, "m": None,
                               "convexity": CONVEX, "direction_valid": True}
    div_pair = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    zm_pair = tuple(pmf_vector(ZipfMandelbrotParams(100, 0, s))._v for s in (1, 1.2))
    for argv, bracket, (p, q) in (
        (("div", "--function", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75"), [-22.50, -2.159, -1.965], div_pair),
        (("zm", "--zm", "100,0,1", "--zm", "100,0,1.2", "--function", "kl"), [-24.56, -2.260, -2.074], zm_pair),
    ):
        code, out, err = run(capsys, *argv, "--interval", "1e-30,10", "--theorem", "tm23", "--n", "12")
        assert (code, err) == (0, ""), argv
        report = json.loads(out)
        assert report["convexity"] == CONVEX and report["direction_valid"], argv
        assert [float(f"{report[key]:.4g}") for key in ("lower", "lr", "upper")] == bracket, argv
        exact = _kl_lr(p / q, q, 1e-30, 10.0)
        assert report["lower"] < exact < report["upper"], argv
        assert abs(report["lr"] - exact) < 1e-14 * abs(exact), argv


def test_a_report_that_is_not_finite_exits_1(capsys):
    poly = "poly:" + ",".join(["0"] * 12 + ["1e300"])
    code, out, err = run(
        capsys, "bounds", "--function", poly, "--points", "1,2", "--weights", "0.5,0.5",
        "--interval", "0.1,2", "--theorem", "tm23", "--n", "11", "--convexity", "auto",
    )
    assert (code, out, err) == (1, "", "error: TM23 lower is not finite: NaN\n")
    # exp(800) overflows in numpy, which warns before the report is refused.
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, err = run(
            capsys, "bounds", "--function", "exp", "--points", "1,2", "--weights", "0.5,0.5",
            "--interval", "0,800", "--theorem", "tm23", "--n", "3", "--convexity", "auto",
        )
    assert (code, out, err) == (1, "", "error: TM23 lr is not finite: -Infinity\n")


def test_auto_convexity_reads_a_tiny_negative_derivative_as_concave(capsys):
    # kl's f^(9) is about -1e-14 on [100, 200]; an absolute tolerance floor
    # once called it n-convex and printed crossed sides.
    code, out, _ = run(
        capsys, "bounds", "--function", "kl", "--points", "120,150,180",
        "--weights", "0.3,0.4,0.3", "--interval", "100,200", "--theorem", "tm23",
        "--n", "9", "--convexity", "auto",
    )
    report = json.loads(out)
    assert code == 0
    assert (report["convexity"], report["direction_valid"]) == (CONCAVE, True)
    assert report["lower"] <= report["lr"] <= report["upper"]


@pytest.mark.parametrize("subcommand", [["bounds", "--theorem", "tm23", "--n", "3"], ["lr"]])
def test_nan_point_exits_1(capsys, subcommand):
    code, out, err = run(
        capsys, subcommand[0], "--function", "kl", "--points", "0.5,nan,2",
        "--weights", "0.3,0.4,0.3", "--interval", "0.5,2", *subcommand[1:],
    )
    assert (code, out) == (1, "")
    assert err == "error: points[1] = nan outside interval [0.5, 2.0]\n"


def test_other_runtime_errors_are_not_reported_as_validation_errors(monkeypatch):
    # Only the gate's plain RuntimeError from div/zm exits 1 with
    # "error:"; an oracle RuntimeError or a RuntimeError subclass is a fault.
    def refuse(*args, **kwargs):
        raise RuntimeError("could not draw well-separated sample points")

    def recurse(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "audit_identities", refuse)
    with pytest.raises(RuntimeError, match="well-separated"):
        cli.main(["verify"])
    monkeypatch.setattr(cli, "divergence_bounds", recurse)
    with pytest.raises(RecursionError):
        cli.main(["div", "--function", "kl", "--p", "0.5,0.5", "--q", "0.25,0.75",
                  "--theorem", "tm24", "--n", "8"])


def test_zm_above_the_moment_table_gate_writes_no_stderr():
    # 100 points reach both power tables; q_i ~ i^-40 makes q_i^5 underflow,
    # so numpy would warn about the divisions the fallback replaces.  The
    # upper side is -inf, which is refused, so stderr holds that line alone.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = ["zm", "--zm", "100,0,1", "--zm", "100,0,40", "--function", "kl",
            "--theorem", "tm21", "--n", "7", "--m", "3"]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "elrbounds.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: TM21 upper is not finite: -Infinity\n"


# --- validation texts -----------------------------------------------------------------

FILES = {
    "scalar.json": "5",
    "nested.json": "[[0.5],[0.5]]",
    "scalar_q.json": '{"p": [0.5, 0.5], "q": 3}',
    "broken.json": "{not json",
    "no_p.json": '{"q": [0.5, 0.5]}',
    "bad_row.csv": "0.5,0.25\n0.5,x\n",
    "string_p.json": '[0.5, "0.5"]',
    "coerced_p.json": '{"p": [0.25, true, "0.75e0", false]}',
    "text_p.json": '{"p": "0.5,0.5"}',
    "string_points.json": '{"points": ["0.5", true], "weights": [0.5, "0.5"], "interval": ["0", 2]}',
    "bool_weight.json": '{"points": [0.5, 1.5], "weights": [0.5, false], "interval": [0, 2]}',
    "string_interval.json": '{"points": [0.5, 1.5], "weights": [0.5, 0.5], "interval": ["0", 2]}',
    "long_interval.json": '{"points": [0.5, 1.5], "weights": [0.5, 0.5], "interval": [0, 2, 7]}',
}
LR = ("lr", "--function", "poly:0,0,1", "--functional-file")
DIV = ("div", "--function", "kl")


@pytest.mark.parametrize(
    "argv,text",
    [
        (("lr", "--function", "exp", "--points", "0.5,x", "--weights", "0.5,0.5", "--interval", "0,2"),
         "--points: could not convert string to float: 'x'"),
        (("lr", "--function", "exp", "--points", "0.5,1.5", "--weights", "0.5,0.5", "--interval", "2"),
         "--interval: expected two comma-separated numbers, got '2'"),
        (("dd", "--function", "exp", "--nodes", "0,x"),
         "--nodes: bad entry 'x' (could not convert string to float: 'x')"),
        (DIV + ("--q", "0.5,0.5"), "--p or --p-file: required"),
        (DIV + ("--p-file", "scalar.json", "--q", "0.5,0.5"),
         "--p-file: expected a flat list of numbers ('int' object is not iterable)"),
        (DIV + ("--p-file", "nested.json", "--q", "0.5,0.5"),
         "--p-file: expected a flat list of numbers "
         "(float() argument must be a string or a real number, not 'list')"),
        (DIV + ("--p", "0.5,0.5", "--q-file", "scalar_q.json"),
         "--q-file: expected a flat list of numbers ('int' object is not iterable)"),
        (DIV + ("--p", "0.5,0.5", "--q-file", "bad_row.csv"),
         "--q-file: malformed JSON (Extra data: line 1 column 4 (char 3))"),
        (DIV + ("--p-file", "broken.json", "--q", "0.5,0.5"),
         "--p-file: malformed JSON (Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"),
        (DIV + ("--p-file", "no_p.json", "--q", "0.5,0.5"), "--p-file: JSON object lacks key 'p'"),
        (("zm", "--zm", "3,0"), "--zm: expected N,q,s, got '3,0'"),
        (("zm", "--zm", "5.5,0,1"), "--zm: N must be an integer, got 5.5"),
        (("zm", "--zm", "inf,0,1"), "--zm: N must be an integer, got inf"),
        (("zm", "--zm", "nan,0,1"), "--zm: N must be an integer, got nan"),
        (("zm", "--zm", "3,0,1", "--ratio-range"), "--ratio-range: needs exactly two --zm laws"),
        (("zm",), "--ratio-range or --theorem: required"),
        (("zm", "--zm", "3,0,1", "--function", "kl", "--theorem", "tm23", "--n", "3"),
         "--theorem: needs exactly two --zm laws"),
        (("bounds", "--function", "poly:nan", "--points", "0.5,1.5", "--weights", "0.5,0.5",
          "--interval", "0,2", "--theorem", "tm23", "--n", "3", "--convexity", "auto"),
         "polynomial coefficients must be finite, got (nan,)"),
        (("bounds", "--function", "power:nan", "--points", "0.5,1.5", "--weights", "0.5,0.5",
          "--interval", "0.1,2", "--theorem", "tm23", "--n", "3", "--convexity", "n-convex"),
         "power exponent must be finite, got nan"),
        (("bounds", "--function", "power:inf", "--points", "0.5,1.5", "--weights", "0.5,0.5",
          "--interval", "0.1,2", "--theorem", "tm23", "--n", "3", "--convexity", "n-convex"),
         "power exponent must be finite, got inf"),
        (DIV + ("--p-file", "string_p.json", "--q", "0.5,0.5"), '--p-file: entry 1 is not a number: "0.5"'),
        (DIV + ("--p-file", "coerced_p.json", "--q", "0.5,0.5"), "--p-file: entry 1 is not a number: true"),
        (DIV + ("--p-file", "text_p.json", "--q", "0.5,0.5"),
         "--p-file: expected an array of numbers, got a string"),
        (LR + ("string_points.json",), 'functional JSON points: entry 0 is not a number: "0.5"'),
        (LR + ("bool_weight.json",), "functional JSON weights: entry 1 is not a number: false"),
        (LR + ("string_interval.json",), 'functional JSON interval: entry 0 is not a number: "0"'),
        (LR + ("long_interval.json",), "functional JSON interval: expected two numbers, got 3"),
        (("zm", "--zm", "3,0,1", "--zm", "3,0,2", "--theorem", "tm23", "--n", "3", "--function", "kl",
          "--ratio-range"), "--ratio-range and --theorem: give one or the other"),
        (("zm", "--ratio-range", "--theorem", "tm23"), "--ratio-range and --theorem: give one or the other"),
    ],
)
def test_validation_error_texts(tmp_path, capsys, argv, text):
    for name, content in FILES.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in FILES else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {text}\n")


def test_dd_domain_flag_sets_the_model_domain(capsys):
    code, out, _ = run(capsys, "dd", "--function", "poly:0,0,1", "--nodes", "0,1,2", "--domain", "0,3")
    assert code == 0
    assert json.loads(out) == 1
    code, _, err = run(capsys, "dd", "--function", "kl", "--nodes", "1,2", "--domain", "0,3")
    assert (code, err) == (1, "error: kl requires a domain inside (0, inf), got [0.0, 3.0]\n")


# --- removed surface ------------------------------------------------------------------


def test_removed_cli_surface_stays_removed(tmp_path, capsys, monkeypatch):
    # verify always runs both suites: --cases 0 or --cases-per-theorem 0 empties one.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "all"])
    err = capsys.readouterr().err
    assert excinfo.value.code == 1
    assert err.startswith("usage: elrbounds ")
    assert err.endswith("\nerror: unrecognized arguments: --suite all\n")
    # --seed is the only seed: the environment does not override it.
    argv = ("verify", "--cases", "2", "--cases-per-theorem", "1")
    without_env = run(capsys, *argv)
    monkeypatch.setenv("ELR_SEED", "99")
    assert run(capsys, *argv) == without_env
    # --p-file and --q-file read JSON only.
    path = tmp_path / "dist.csv"
    path.write_text("0.5,0.25\n0.5,0.75\n")
    code, out, err = run(capsys, "div", "--function", "kl", "--p-file", str(path), "--q", "0.5,0.5")
    assert (code, out) == (1, "")
    assert err.startswith("error: --p-file: malformed JSON (")
    # zm prints no pmf table.
    assert run(capsys, "zm", "--zm", "3,0,1") == (1, "", "error: --ratio-range or --theorem: required\n")


def _readme_examples():
    """Each `elrbounds ...` command of README's sh blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["elrbounds"]:
                commands.append(argv[1:])
    return commands


def test_readme_examples_run(capsys):
    examples = _readme_examples()
    assert examples
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        json.loads(out)


# --- comma lists that start with a minus ------------------------------------------

_NEGATIVE_LISTS = [
    ("lr", "--function", "exp", "--points", "-0.5,0.5", "--weights", "0.5,0.5", "--interval", "-1,1"),
    ("bounds", "--function", "exp", "--points", "-0.5,.25", "--weights", "0.5,0.5",
     "--interval", "-.75,1", "--theorem", "tm23", "--n", "4"),
    ("dd", "--function", "exp", "--nodes", "-1,0,1", "--domain", "-1,3"),
    ("dd", "--function", "exp", "--nodes", "-1:3,2", "--domain", "-1,3", "--interpolant"),
    ("div", "--function", "harmonic", "--p", "0.5,0.5", "--q", "0.25,0.75",
     "--interval", "-0.5,3", "--theorem", "tm23", "--n", "4"),
    ("zm", "--zm", "5,0,1", "--zm", "5,1,2", "--function", "harmonic", "--interval", "-0.5,3",
     "--theorem", "tm24", "--n", "4"),
]


def _joined(argv):
    """argv with every value that starts with a minus joined to its flag by '='."""
    out = []
    for arg in argv:
        if arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] == "."):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("argv", _NEGATIVE_LISTS, ids=lambda argv: argv[0])
def test_a_list_that_starts_with_a_minus_is_a_separate_value(capsys, argv):
    joined = _joined(argv)
    assert len(joined) < len(argv)
    separate = run(capsys, *argv)
    assert separate[0] == 0, separate[2]
    assert separate[2] == ""
    assert separate == run(capsys, *joined)


def test_a_flag_is_still_not_taken_as_a_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["lr", "--function", "exp", "--points", "--weights", "1"])
    assert excinfo.value.code == 1
    assert "error: argument --points: expected one argument" in capsys.readouterr().err
