"""Decomposition identities, bound directions and brackets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    BoundReport,
    DiscreteFunctional,
    ParityCase,
    bound_tm21,
    bound_tm22,
    bracket_cor21,
    bracket_tm23,
    bracket_tm24,
    decompose_lemma21,
    decompose_lemma22,
    lr_difference,
    n3_closed_form,
)
from elrbounds.bounds import FAMILIES, bound

from conftest import exp_model, poly_model, random_functional


def t5_model():
    return poly_model([0, 0, 0, 0, 0, 1.0])


# --- decompositions ---------------------------------------------------------


def test_lemma21_worked_case(cube, worked_functional):
    # Single term f[0;2,2] * A[(g-a)(g-b)] = 4 * (-0.75); remainder fills to lr.
    terms, remainder = decompose_lemma21(cube, worked_functional, 3, 1)
    assert terms == pytest.approx([-3.0])
    assert remainder == pytest.approx(-2.25 - (-3.0))


def test_lemma22_worked_cases(cube, worked_functional):
    # m=1 uses f[2;0,0] = 2, so the term is -1.5 and the remainder -0.75;
    # m=2 leads with f[2,2;0] = 4, giving the term -3 and remainder +0.75.
    terms, remainder = decompose_lemma22(cube, worked_functional, 3, 1)
    assert terms == pytest.approx([-1.5])
    assert remainder == pytest.approx(-0.75)
    terms, remainder = decompose_lemma22(cube, worked_functional, 3, 2)
    assert terms == pytest.approx([-3.0])
    assert remainder == pytest.approx(0.75)


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 2), (5, 3), (5, 4), (7, 6)])
def test_polynomial_annihilation_makes_terms_exact(n, m):
    f = poly_model([1.0, -0.5, 2.0][: n - 1] + [0.3], domain=(0.0, 2.0))
    A = DiscreteFunctional((0.3, 0.9, 1.8), (0.2, 0.5, 0.3), (0.0, 2.0))
    lr = lr_difference(f, A)
    for decompose in (decompose_lemma21, decompose_lemma22):
        terms, remainder = decompose(f, A, n, m)
        assert abs(remainder) <= 1e-10
        assert math.fsum(terms) == pytest.approx(lr, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (5, 1), (6, 4), (7, 5)])
def test_identity_residual_for_exp(n, m):
    rng = np.random.default_rng(100 * n + m)
    f = exp_model(domain=(-1.0, 2.0))
    for _ in range(5):
        A = random_functional(rng, (-1.0, 2.0))
        lr = lr_difference(f, A)
        for decompose in (decompose_lemma21, decompose_lemma22):
            terms, remainder = decompose(f, A, n, m)
            residual = abs(lr - (math.fsum(terms) + remainder))
            assert residual <= 1e-9 * (1.0 + abs(lr))


def test_lemma21_term_structure_for_large_m():
    # m >= 3: chord-gap lead term, Taylor block, then divided-difference block.
    f = exp_model(domain=(0.0, 2.0))
    A = DiscreteFunctional((0.4, 1.2), (0.5, 0.5), (0.0, 2.0))
    terms, _ = decompose_lemma21(f, A, 6, 4)
    # 1 lead + (k=2..3) Taylor + (k=1..2) dd terms
    assert len(terms) == 1 + 2 + 2
    lead = (A.mean - 0.0) * (float(f.deriv(1, 0.0)) - (math.e**2 - 1.0) / 2.0)
    assert terms[0] == pytest.approx(lead)
    taylor_k2 = float(f.deriv(2, 0.0)) / 2.0 * A.moment(2, 0)
    assert terms[1] == pytest.approx(taylor_k2)


def test_decompose_rejects_bad_m(cube, worked_functional):
    with pytest.raises(ValueError, match="m must be"):
        decompose_lemma21(cube, worked_functional, 3, 0)
    with pytest.raises(ValueError, match="m must be"):
        decompose_lemma22(cube, worked_functional, 3, 3)


def test_decompose_requires_derivatives():
    from elrbounds import FunctionModel

    f = FunctionModel.from_polynomial([0, 0, 0, 1], (0.0, 2.0), max_order=2)
    A = DiscreteFunctional((0.5, 1.5), (0.5, 0.5), (0.0, 2.0))
    with pytest.raises(ValueError, match="derivative order"):
        decompose_lemma21(f, A, 5, 4)


# --- parity rule -------------------------------------------------------------
#
# The statements' direction tables, case by case, checked against the
# registry's parity rule over every (n, m) with 3 <= m < n <= 9.


def _direction(tag, n, m, convexity):
    lower, upper, valid = FAMILIES[tag].arrange(n, m, convexity, [1.0])
    assert valid
    return "lower" if upper is None else "upper"


def _straight(tag, n, m, convexity):
    """True when the first side is the lower one."""
    lower, _, _ = FAMILIES[tag].arrange(n, m, convexity, [1.0, 2.0])
    return lower == 1.0


def _cases(key, takes_m=True):
    if takes_m:
        cases = [(n, m) for n in range(4, 10) for m in range(3, n)]
    else:
        cases = [(n, None) for n in range(3, 10)]
    return [(n, m) for n, m in cases if key(n, m)]


def test_tm21_direction_table():
    # Keyed on whether n and m share parity.
    table = {
        (CONVEX, False): "upper",
        (CONVEX, True): "lower",
        (CONCAVE, True): "upper",
        (CONCAVE, False): "lower",
    }
    for (convexity, same), expected in table.items():
        cases = _cases(lambda n, m: ((n - m) % 2 == 0) == same)
        assert cases
        for n, m in cases:
            assert _direction("TM21", n, m, convexity) == expected, (convexity, n, m)


def test_tm22_direction_table():
    # Keyed on whether m is odd; no condition on n.
    table = {
        (CONVEX, True): "upper",
        (CONVEX, False): "lower",
        (CONCAVE, False): "upper",
        (CONCAVE, True): "lower",
    }
    for (convexity, m_odd), expected in table.items():
        cases = _cases(lambda n, m: (m % 2 == 1) == m_odd)
        assert cases
        for n, m in cases:
            assert _direction("TM22", n, m, convexity) == expected, (convexity, n, m)


def test_bracket_orientation_tables():
    # TM23 keys on whether n is odd (True: the m=1 sum is the lower side);
    # COR21 keys on whether m is odd (True: the TM21 side is the lower one).
    straight = {(CONVEX, True): True, (CONCAVE, False): True,
                (CONVEX, False): False, (CONCAVE, True): False}
    for (convexity, odd), expected in straight.items():
        for n, _ in _cases(lambda n, m: (n % 2 == 1) == odd, takes_m=False):
            assert _straight("TM23", n, None, convexity) == expected, (convexity, n)
            assert FAMILIES["TM23"].arrange(n, None, convexity, [1.0, 2.0])[2]
        for n, m in _cases(lambda n, m: (m % 2 == 1) == odd):
            assert _straight("COR21", n, m, convexity) == expected, (convexity, n, m)
            # Certified only for odd n; even n keeps the same arrangement.
            assert FAMILIES["COR21"].arrange(n, m, convexity, [1.0, 2.0])[2] == (n % 2 == 1)
    # TM24: n-convex f gives m2-sum <= LR <= m1-sum for every n.
    for n in range(3, 10):
        assert not _straight("TM24", n, None, CONVEX)
        assert _straight("TM24", n, None, CONCAVE)


# --- one-sided bounds -----------------------------------------------------------


def test_tm21_directions_with_t5(worked_functional):
    f = t5_model()
    # n=5, m=4: different parity, 5-convex: upper bound.
    rep = bound_tm21(f, worked_functional, 5, 4, CONVEX)
    assert rep.upper is not None and rep.lower is None
    assert rep.lr <= rep.upper + 1e-12
    # n=5, m=3: equal parity: lower bound.
    rep = bound_tm21(f, worked_functional, 5, 3, CONVEX)
    assert rep.lower is not None and rep.upper is None
    assert rep.lower - 1e-12 <= rep.lr


def test_tm22_directions_with_t5(worked_functional):
    f = t5_model()
    rep = bound_tm22(f, worked_functional, 5, 3, CONVEX)
    assert rep.upper is not None
    assert rep.lr <= rep.upper + 1e-12
    rep = bound_tm22(f, worked_functional, 5, 4, CONVEX)
    assert rep.lower is not None
    assert rep.lower - 1e-12 <= rep.lr


def test_negating_f_flips_direction_and_negates_values_exactly(worked_functional):
    f = t5_model()
    neg = -f
    for n, m in ((5, 3), (5, 4), (6, 3)):
        rep = bound_tm21(f, worked_functional, n, m, CONVEX)
        mirrored = bound_tm21(neg, worked_functional, n, m, CONCAVE)
        assert mirrored.lr == -rep.lr
        if rep.upper is not None:
            assert mirrored.lower == -rep.upper
        if rep.lower is not None:
            assert mirrored.upper == -rep.lower
        rep = bound_tm22(f, worked_functional, n, m, CONVEX)
        mirrored = bound_tm22(neg, worked_functional, n, m, CONCAVE)
        assert mirrored.lr == -rep.lr
        if rep.upper is not None:
            assert mirrored.lower == -rep.upper
        if rep.lower is not None:
            assert mirrored.upper == -rep.lower


def test_polynomial_degree_below_n_gives_equality(worked_functional):
    f = poly_model([2.0, -1.0, 0.5, 0.25])  # degree 3
    lr = lr_difference(f, worked_functional)
    rep21 = bound_tm21(f, worked_functional, 5, 3, CONVEX)
    rep22 = bound_tm22(f, worked_functional, 5, 3, CONVEX)
    value21 = rep21.lower if rep21.lower is not None else rep21.upper
    value22 = rep22.lower if rep22.lower is not None else rep22.upper
    assert value21 == pytest.approx(lr, abs=1e-9)
    assert value22 == pytest.approx(lr, abs=1e-9)


def test_m_below_three_rejected(cube, worked_functional):
    for fn in (bound_tm21, bound_tm22, bracket_cor21):
        for m in (2, None):
            with pytest.raises(ValueError, match="m >= 3"):
                fn(cube, worked_functional, 5, m, CONVEX)


def test_bad_convexity_string_rejected(cube, worked_functional):
    with pytest.raises(ValueError, match="convexity"):
        bracket_tm23(cube, worked_functional, 3, "convex")


# --- brackets --------------------------------------------------------------------


def test_cor21_bracket_with_t5(worked_functional):
    f = t5_model()
    rep = bracket_cor21(f, worked_functional, 5, 3, CONVEX)
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_cor21_reversed_cases(worked_functional):
    f = t5_model()
    # 5-concave (-t^5) with even m keeps the same orientation.
    rep = bracket_cor21(-f, worked_functional, 5, 4, CONCAVE)
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12
    # 5-convex with even m swaps the sides.
    rep = bracket_cor21(f, worked_functional, 5, 4, CONVEX)
    assert rep.direction_valid
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_cor21_even_n_reports_invalid_direction(worked_functional):
    f = poly_model([0, 0, 0, 0, 0, 0, 1.0])  # t^6
    rep = bracket_cor21(f, worked_functional, 6, 3, CONVEX)
    assert not rep.direction_valid


def test_tm23_worked_bracket(cube, worked_functional):
    rep = bracket_tm23(cube, worked_functional, 3, CONVEX)
    assert rep.lr == pytest.approx(-2.25, abs=1e-12)
    assert rep.lower == pytest.approx(-3.0, abs=1e-12)
    assert rep.upper == pytest.approx(-1.5, abs=1e-12)
    assert rep.direction_valid


def test_tm23_linear_function_collapses(worked_functional):
    f = poly_model([1.0, 2.0])
    rep = bracket_tm23(f, worked_functional, 3, CONVEX)
    assert rep.lr == pytest.approx(0.0, abs=1e-12)
    assert rep.lower == pytest.approx(0.0, abs=1e-12)
    assert rep.upper == pytest.approx(0.0, abs=1e-12)


def test_tm23_negation_reverses_bracket(cube, worked_functional):
    rep = bracket_tm23(-cube, worked_functional, 3, CONCAVE)
    assert rep.lr == pytest.approx(2.25, abs=1e-12)
    # Reversed orientation: the formerly-upper expression is now the lower side.
    assert rep.lower == pytest.approx(1.5, abs=1e-12)
    assert rep.upper == pytest.approx(3.0, abs=1e-12)
    assert rep.lower - 1e-12 <= rep.lr <= rep.upper + 1e-12


def test_tm24_worked_bracket(cube, worked_functional):
    rep = bracket_tm24(cube, worked_functional, 3, CONVEX)
    assert rep.lower == pytest.approx(-3.0, abs=1e-12)
    assert rep.upper == pytest.approx(-1.5, abs=1e-12)
    assert rep.lr == pytest.approx(-2.25, abs=1e-12)


def test_tm24_exp_bracket_random_functionals():
    rng = np.random.default_rng(11)
    f = exp_model(domain=(-1.0, 2.0))
    for _ in range(10):
        A = random_functional(rng, (-1.0, 2.0))
        rep = bracket_tm24(f, A, 4, CONVEX)
        tol = 1e-9 * (1.0 + abs(rep.lr))
        assert rep.lower - tol <= rep.lr <= rep.upper + tol


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_tm24_holds_for_every_n(n):
    rng = np.random.default_rng(n)
    f = exp_model(domain=(0.0, 2.0))
    A = random_functional(rng, (0.0, 2.0))
    rep = bracket_tm24(f, A, n, CONVEX)
    tol = 1e-9 * (1.0 + abs(rep.lr))
    assert rep.lower - tol <= rep.lr <= rep.upper + tol


def test_brackets_require_n_at_least_3(cube, worked_functional):
    with pytest.raises(ValueError, match="n >= 3"):
        bracket_tm23(cube, worked_functional, 2, CONVEX)
    with pytest.raises(ValueError, match="n >= 3"):
        bracket_tm24(cube, worked_functional, 2, CONVEX)


def test_tm23_tm24_agree_bitwise_at_n3():
    rng = np.random.default_rng(23)
    f = exp_model(domain=(0.2, 2.2))
    for _ in range(10):
        A = random_functional(rng, (0.2, 2.2))
        r23 = bracket_tm23(f, A, 3, CONVEX)
        r24 = bracket_tm24(f, A, 3, CONVEX)
        assert r23.lower == r24.lower
        assert r23.upper == r24.upper


def test_n3_closed_form_matches_bracket(cube, worked_functional):
    lower, upper = n3_closed_form(cube, worked_functional)
    assert lower == pytest.approx(-3.0, abs=1e-12)
    assert upper == pytest.approx(-1.5, abs=1e-12)
    rep = bracket_tm23(cube, worked_functional, 3, CONVEX)
    assert lower == pytest.approx(rep.lower, abs=1e-12)
    assert upper == rep.upper


def test_n3_closed_form_zero_for_linear(worked_functional):
    lower, upper = n3_closed_form(poly_model([4.0, -1.0]), worked_functional)
    assert lower == pytest.approx(0.0, abs=1e-13)
    assert upper == pytest.approx(0.0, abs=1e-13)


def test_n3_closed_form_identity_for_exp():
    # (f'(b) - f[a,b]) / (b-a) equals the confluent f[a; b,b].
    from elrbounds import NodeMultiset, divided_difference

    f = exp_model(domain=(0.0, 1.0))
    A = DiscreteFunctional((0.25, 0.75), (0.5, 0.5), (0.0, 1.0))
    lower, _ = n3_closed_form(f, A)
    algorithmic = divided_difference(f, NodeMultiset(((0.0, 1), (1.0, 2)))) * A.moment(1, 1)
    assert lower == pytest.approx(algorithmic, abs=1e-12)


def test_tm24_upper_sum_must_start_at_k2(worked_functional):
    # Starting the upper sum at k=1 would add f[a,b](A(g)-b), breaking the
    # polynomial-equality property; the implemented sum keeps it exact.
    f = poly_model([0.0, 0.0, 1.0])  # t^2, degree <= n-1 for n=3
    lr = lr_difference(f, worked_functional)
    rep = bracket_tm24(f, worked_functional, 3, CONVEX)
    assert rep.upper == pytest.approx(lr, abs=1e-12)
    from elrbounds import NodeMultiset, divided_difference

    k1_term = divided_difference(f, NodeMultiset(((0.0, 1), (2.0, 1)))) * (
        worked_functional.mean - 2.0
    )
    assert abs(k1_term) > 0.1  # the discarded term is not even small


# --- report objects ----------------------------------------------------------------


def test_report_serialization(cube, worked_functional):
    rep = bracket_tm23(cube, worked_functional, 3, CONVEX)
    assert rep.to_dict() == {
        "lr": rep.lr,
        "lower": rep.lower,
        "upper": rep.upper,
        "theorem": "TM23",
        "n": 3,
        "m": None,
        "convexity": CONVEX,
        "direction_valid": True,
    }


def test_report_contains_and_violation():
    case = ParityCase(3, None, CONVEX)
    good = BoundReport(lr=0.5, lower=0.0, upper=1.0, theorem="TM23", case=case, direction_valid=True)
    assert good.contains() and good.violation() == 0.0
    bad = BoundReport(lr=2.0, lower=0.0, upper=1.0, theorem="TM23", case=case, direction_valid=True)
    assert not bad.contains()
    assert bad.violation() == pytest.approx(1.0)


def test_parity_case_validation():
    with pytest.raises(ValueError, match="m must be"):
        ParityCase(3, 5, CONVEX)
    with pytest.raises(ValueError, match="convexity"):
        ParityCase(3, 1, "wiggly")


# --- the bound path skips the remainder ---------------------------------------
#
# A bound is its decomposition's terms with the remainder dropped, so the
# bound path never evaluates remainder_R; only the identity audit does.


def test_bound_path_never_evaluates_the_remainder(monkeypatch, capsys):
    from elrbounds import GeneratorSpec, ProbabilityVector, bounds, cli, divergence_bounds, divided_diff
    from elrbounds.oracle import AuditConfig, audit_brackets, audit_identities

    def forbidden(*args):
        raise AssertionError("remainder_R reached")

    monkeypatch.setattr(bounds, "remainder_R", forbidden)
    monkeypatch.setattr(divided_diff, "remainder_R", forbidden)
    f = exp_model(domain=(0.0, 2.0))
    A = DiscreteFunctional((0.5, 1.5, 1.9), (0.3, 0.3, 0.4), (0.0, 2.0))
    p = ProbabilityVector((0.2, 0.5, 0.3))
    q = ProbabilityVector((0.4, 0.3, 0.3))
    for tag in FAMILIES:
        bound(tag, f, A, 5, 3, CONVEX)
        divergence_bounds(GeneratorSpec("kl"), p, q, n=5, m=3, theorem=tag)
        argv = ["bounds", "--function", "exp", "--points", "0.5,1.5", "--weights", "0.5,0.5",
                "--interval", "0,2", "--theorem", tag.lower(), "--n", "5", "--m", "3",
                "--format", "csv"]
        assert cli.main(argv) == 0
        assert "_term," in capsys.readouterr().out
    audit_brackets(AuditConfig(cases_per_theorem=5, seed=3))
    with pytest.raises(AssertionError, match="remainder_R reached"):
        audit_identities(AuditConfig(cases=5, seed=3))


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_bound_sides_are_the_decomposition_term_sums(tag):
    rng = np.random.default_rng(list(FAMILIES).index(tag))
    family = FAMILIES[tag]
    models = {"exp": exp_model(domain=(0.2, 2.2)), "t5": poly_model([0, 0, 0, 0, 0, 1.0], (0.2, 2.2))}
    for name, f in models.items():
        for n in range(max(3, family.min_n), 10):
            m = int(rng.integers(3, n)) if family.takes_m else None
            A = random_functional(rng, (0.2, 2.2))
            for convexity in (CONVEX, CONCAVE):
                report = bound(tag, f, A, n, m, convexity)
                values = [
                    math.fsum((decompose_lemma21 if x == "a" else decompose_lemma22)(f, A, n, k)[0])
                    for x, k in family.resolve(n, m)
                ]
                want = family.arrange(n, m, convexity, values)[:2]
                got = (report.lower, report.upper)
                assert [None if v is None else v.hex() for v in got] == [
                    None if v is None else v.hex() for v in want
                ], (name, n, m, convexity)


# The endpoint table raises the errors the per-cell confluent tables raised,
# in the order the terms used to meet them.
_T3 = "'poly(0.0,0.0,0.0,1.0)'"


@pytest.mark.parametrize(
    "tag,max_order,points,interval,n,m,message",
    [
        ("TM21", 2, (0.5, 1.5), (0.0, 2.0), 5, 4, f"derivative order 3 outside 1..2 declared by {_T3}"),
        ("TM23", 1, (0.5, 1.5), (0.0, 2.0), 5, None,
         f"multiplicity 3 requires derivative order 2, but {_T3} declares max_order 1"),
        ("TM22", 0, (0.5, 1.5), (0.0, 2.0), 5, 3,
         f"multiplicity 2 requires derivative order 1, but {_T3} declares max_order 0"),
        ("TM21", 12, (1.0,), (1.0, 1.0 + 1e-14), 5, 3,
         "nodes 1.0 and 1.00000000000001 are distinct but closer than 1e-13 relative; "
         "merge or separate them explicitly"),
        ("TM24", 12, (1.0,), (1.0, 1.0 + 1e-14), 5, None,
         "nodes 1.0 and 1.00000000000001 are distinct but closer than 1e-13 relative; "
         "merge or separate them explicitly"),
        ("TM22", 12, (1.0,), (-1.0, 3.0), 5, 3, f"node 3.0 outside domain [0.0, 2.0] of {_T3}"),
        ("TM24", 12, (1.0,), (-1.0, 3.0), 5, None, f"node -1.0 outside domain [0.0, 2.0] of {_T3}"),
        ("TM21", 12, (1.0,), (1.0, 3.0), 5, 3, f"node 3.0 outside domain [0.0, 2.0] of {_T3}"),
    ],
)
def test_bound_error_texts_are_unchanged(tag, max_order, points, interval, n, m, message):
    from elrbounds import FunctionModel

    f = FunctionModel.from_polynomial([0, 0, 0, 1], (0.0, 2.0), max_order=max_order)
    A = DiscreteFunctional(points, (1.0 / len(points),) * len(points), interval)
    with pytest.raises(ValueError) as excinfo:
        bound(tag, f, A, n, m, CONVEX)
    assert str(excinfo.value) == message
