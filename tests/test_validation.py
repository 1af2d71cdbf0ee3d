"""Library validation errors: each rejected input raises its own type and text."""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONVEX,
    AuditConfig,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    NewtonForm,
    NodeMultiset,
    ProbabilityVector,
    RatioRange,
    ZipfMandelbrotParams,
    bound,
    certify_convexity,
    classify,
    decompose_lemma21,
    divergence_bounds,
    endpoint_table,
    f_divergence,
    hermite_mn,
    make_generator,
    normalizer,
    parse_function_spec,
    remainder_R,
)
from elrbounds.cli import dumps


def _model(domain=(0.0, 1.0), **kwargs):
    return FunctionModel(fn=abs, deriv_fn=lambda k, t: 0.0, domain=domain, **kwargs)


def _xlogx_without_zero_limit():
    return FunctionModel(
        fn=lambda t: t * math.log(t) if t > 0 else math.nan,
        deriv_fn=lambda k, t: 0.0,
        domain=(0.5, 2.0),
        name="xlogx",
    )


CONSTANT = FunctionModel.from_polynomial((1.0,), (0.0, 2.0))
KL = make_generator(GeneratorSpec("kl", domain=(0.5, 2.0)))

CASES = {
    "model_nonfinite_domain": (
        lambda: _model((0.0, math.inf)), ValueError, "domain must be finite with a < b, got [0.0, inf]"),
    "model_empty_domain": (
        lambda: _model((1.0, 1.0)), ValueError, "domain must be finite with a < b, got [1.0, 1.0]"),
    "model_negative_max_order": (
        lambda: _model(max_order=-1), ValueError, "max_order must be an integer >= 0, got -1"),
    "model_fractional_max_order": (
        lambda: _model(max_order=2.7), ValueError, "max_order must be an integer >= 0, got 2.7"),
    "model_string_max_order": (
        lambda: _model(max_order="3"), ValueError, "max_order must be an integer >= 0, got '3'"),
    "polynomial_without_coefficients": (
        lambda: FunctionModel.from_polynomial((), (0.0, 1.0)),
        ValueError, "polynomial needs at least one coefficient"),
    "polynomial_nan_coefficient": (
        lambda: FunctionModel.from_polynomial((1.0, math.nan), (0.0, 1.0)),
        ValueError, "polynomial coefficients must be finite, got (1.0, nan)"),
    "polynomial_infinite_coefficient": (
        lambda: FunctionModel.from_polynomial((-math.inf,), (0.0, 1.0)),
        ValueError, "polynomial coefficients must be finite, got (-inf,)"),
    "nan_node": (lambda: NodeMultiset(((math.nan, 1),)), ValueError, "node nan is not finite"),
    "zero_multiplicity": (
        lambda: NodeMultiset(((1.0, 0),)), ValueError, "multiplicity must be an integer >= 1, got 0"),
    "newton_lengths_differ": (
        lambda: NewtonForm((0.0, 1.0), (1.0,)), ValueError, "nodes and coeffs must have equal length"),
    "newton_derivative_order_0": (
        lambda: NewtonForm((0.0,), (1.0,)).deriv(0, 0.5), ValueError, "derivative order must be an integer >= 1, got 0"),
    "hermite_empty_interval": (
        lambda: hermite_mn(CONSTANT, 1.0, 1.0, 1, 3),
        ValueError, "endpoints must be finite with a < b, got [1.0, 1.0]"),
    "remainder_m_equals_n": (
        lambda: remainder_R(CONSTANT, 0.0, 2.0, 3, 3, 1.0),
        ValueError, "m must be an integer in 1..2, got 3"),
    "parity_case_order_1": (
        lambda: decompose_lemma21(CONSTANT, DiscreteFunctional((0.5,), (1.0,), (0.0, 2.0)), 1, 1),
        ValueError, "n must be an integer >= 2, got 1"),
    "endpoint_table_nan_node": (
        lambda: endpoint_table(KL, math.nan, 1.0, 2, 1),
        ValueError, "node nan outside domain [0.5, 2.0] of 'kl'"),
    "endpoint_table_zero_size": (
        lambda: endpoint_table(KL, 0.5, 2.0, 0, 0), ValueError, "rows must be an integer >= 1, got 0"),
    "endpoint_table_negative_rows": (
        lambda: endpoint_table(KL, 0.5, 2.0, -2, 3), ValueError, "rows must be an integer >= 1, got -2"),
    "endpoint_table_fractional_rows": (
        lambda: endpoint_table(KL, 0.5, 2.0, 2.5, 1), ValueError, "rows must be an integer >= 1, got 2.5"),
    "endpoint_table_zero_cols": (
        lambda: endpoint_table(KL, 0.5, 2.0, 2, 0), ValueError, "cols must be an integer >= 1, got 0"),
    "divergence_n_1_auto_class": (
        lambda: divergence_bounds(
            GeneratorSpec("kl"), ProbabilityVector((0.5, 0.3, 0.2)), ProbabilityVector((0.4, 0.3, 0.3)),
            n=1, theorem="tm23",
        ),
        ValueError, "n must be an integer >= 2, got 1"),
    "divergence_n_1_explicit_class": (
        lambda: divergence_bounds(
            GeneratorSpec("kl"), ProbabilityVector((0.5, 0.3, 0.2)), ProbabilityVector((0.4, 0.3, 0.3)),
            n=1, theorem="tm23", convexity=CONVEX,
        ),
        ValueError, "n must be an integer >= 2, got 1"),
    "divergence_fractional_n_auto_class": (
        lambda: divergence_bounds(
            GeneratorSpec("kl"), ProbabilityVector((0.5, 0.3, 0.2)), ProbabilityVector((0.4, 0.3, 0.3)),
            n=2.5, theorem="tm23",
        ),
        ValueError, "n must be an integer >= 2, got 2.5"),
    "divergence_nan_interval": (
        lambda: divergence_bounds(
            KL, ProbabilityVector((0.2, 0.8)), ProbabilityVector((0.5, 0.5)),
            n=3, theorem="tm23", convexity=CONVEX, interval=(math.nan, 3.0),
        ),
        ValueError, "interval must be finite with a < b, got [nan, 3.0]"),
    "divergence_spec_infinite_interval": (
        lambda: divergence_bounds(
            GeneratorSpec("kl"), ProbabilityVector((0.2, 0.8)), ProbabilityVector((0.5, 0.5)),
            n=3, theorem="tm23", interval=(0.1, math.inf),
        ),
        ValueError, "interval must be finite with a < b, got [0.1, inf]"),
    "divergence_spec_overflowed_ratio": (
        lambda: divergence_bounds(
            GeneratorSpec("kl"), ProbabilityVector((0.5, 0.5)), ProbabilityVector((1.0, 5e-324)),
            n=3, theorem="tm23",
        ),
        ValueError, "entry 1: ratio p_i / q_i = 0.5 / 5e-324 overflows; ratio range [0.5, inf] is not finite"),
    "divergence_model_overflowed_ratio": (
        lambda: divergence_bounds(
            KL, ProbabilityVector((0.5, 0.5)), ProbabilityVector((1.0, 5e-324)),
            n=3, theorem="tm23", convexity=CONVEX,
        ),
        ValueError, "entry 1: ratio p_i / q_i = 0.5 / 5e-324 overflows; ratio range [0.5, inf] is not finite"),
    "ratio_range_reversed": (
        lambda: RatioRange(2, 1), ValueError, "ratio range needs a <= b, got (2.0, 1.0)"),
    "divergence_without_zero_limit": (
        lambda: f_divergence(
            _xlogx_without_zero_limit(), ProbabilityVector((0.0, 1.0)), ProbabilityVector((0.5, 0.5))
        ),
        ValueError, "entry 0: p_i = 0 needs a declared 0+ limit on 'xlogx'"),
    "classify_order_13": (
        lambda: classify(GeneratorSpec("kl"), 13), ValueError, "n must be an integer in 1..12, got 13"),
    "classify_fractional_order": (
        lambda: classify(GeneratorSpec("exp"), 2.5), ValueError, "n must be an integer in 1..12, got 2.5"),
    "moment_negative_order": (
        lambda: DiscreteFunctional((0.5,), (1.0,), (0.0, 1.0)).moment(-1, 1),
        ValueError, "moment order j must be an integer >= 0, got -1"),
    "moment_fractional_order": (
        lambda: DiscreteFunctional((0.5,), (1.0,), (0.0, 1.0)).moment(1.5, 1),
        ValueError, "moment order j must be an integer >= 0, got 1.5"),
    "generator_infinite_domain": (
        lambda: GeneratorSpec("kl", domain=(0.5, math.inf)),
        ValueError, "domain must be finite with a < b, got [0.5, inf]"),
    "power_exponent_not_a_number": (
        lambda: parse_function_spec("power:x"),
        ValueError, "bad power exponent 'x': could not convert string to float: 'x'"),
    "poly_nan_coefficient": (
        lambda: make_generator(parse_function_spec("poly:nan")),
        ValueError, "polynomial coefficients must be finite, got (nan,)"),
    "poly_infinite_coefficient": (
        lambda: classify(GeneratorSpec("poly", coeffs=(0, 1, math.inf)), 3),
        ValueError, "polynomial coefficients must be finite, got (0.0, 1.0, inf)"),
    "power_nan_exponent": (
        lambda: parse_function_spec("power:nan"), ValueError, "power exponent must be finite, got nan"),
    "power_infinite_exponent": (
        lambda: GeneratorSpec("power", exponent=-math.inf),
        ValueError, "power exponent must be finite, got -inf"),
    "two_dimensional_points": (
        lambda: DiscreteFunctional(np.full((2, 2), 0.5), (0.5, 0.5), (0.0, 1.0)),
        TypeError, "expected a flat sequence of numbers, got shape (2, 2)"),
    "certify_order_0": (
        lambda: certify_convexity(CONSTANT, 0), ValueError, "n must be an integer >= 1, got 0"),
    "zm_infinite_N": (
        lambda: ZipfMandelbrotParams(math.inf), ValueError, "N must be an integer >= 1, got inf"),
    "zm_nan_N": (
        lambda: ZipfMandelbrotParams(math.nan), ValueError, "N must be an integer >= 1, got nan"),
    "zm_bool_N": (
        lambda: ZipfMandelbrotParams(True), ValueError, "N must be an integer >= 1, got True"),
    "zm_infinite_q": (
        lambda: ZipfMandelbrotParams(5, math.inf, 1.0), ValueError, "q must be finite, got inf"),
    "zm_nan_q": (
        lambda: ZipfMandelbrotParams(5, math.nan, 1.0), ValueError, "q must be >= 0, got nan"),
    "zm_negative_infinite_q": (
        lambda: ZipfMandelbrotParams(5, -math.inf, 1.0), ValueError, "q must be >= 0, got -inf"),
    "zm_infinite_s": (
        lambda: ZipfMandelbrotParams(5, 0.0, math.inf), ValueError, "s must be finite, got inf"),
    "zm_nan_s": (
        lambda: ZipfMandelbrotParams(5, 0.0, math.nan), ValueError, "s must be > 0, got nan"),
    "zm_negative_infinite_s": (
        lambda: ZipfMandelbrotParams(5, 0.0, -math.inf), ValueError, "s must be > 0, got -inf"),
    "zm_normalizer_underflow": (
        lambda: normalizer(ZipfMandelbrotParams(3, q=1.0, s=2000.0)),
        ValueError, "normalizer underflowed to 0.0 for ZipfMandelbrotParams(N=3, q=1.0, s=2000.0)"),
    "json_unknown_type": (
        lambda: dumps(object()), TypeError, "cannot serialize <class 'object'>"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_validation_error_text(case):
    call, error, text = CASES[case]
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text


# --- one rule per input kind ----------------------------------------------------

SMALL = DiscreteFunctional((0.7, 1.2, 1.9), (0.2, 0.3, 0.5), (0.5, 2.0))
POLY = FunctionModel.from_polynomial((1.0, -2.0, 0.5, 0.25, 3.0), (0.0, 2.0))


def _zero(k, t):
    return 0.0


def _large():
    """A new functional above the 64-point gate, where the moments come from multiply
    chains and are kept per order: no earlier read can have filled its cache."""
    return DiscreteFunctional(np.linspace(0.6, 1.9, 100), np.full(100, 0.01), (0.5, 2.0))


# Every integer argument: a call with the value v (valid at 3) and the name its error text opens with.
INTEGER_ARGS = {
    "decompose_n": (lambda v: decompose_lemma21(KL, SMALL, v, 1), "n"),
    "decompose_m": (lambda v: decompose_lemma21(KL, SMALL, 4, v), "m"),
    "bound_n": (lambda v: bound("tm23", KL, SMALL, v, None, CONVEX), "n"),
    "bound_m": (lambda v: bound("tm21", KL, SMALL, 4, v, CONVEX), "m"),
    "endpoint_table_rows": (lambda v: endpoint_table(KL, 0.5, 2.0, v, 2), "rows"),
    "endpoint_table_cols": (lambda v: endpoint_table(KL, 0.5, 2.0, 2, v), "cols"),
    "model_max_order": (lambda v: FunctionModel(abs, _zero, (0.0, 1.0), max_order=v), "max_order"),
    "model_deriv": (lambda v: KL.deriv(v, 1.5), "derivative order"),
    "poly_deriv": (lambda v: POLY.deriv(v, 1.5), "derivative order"),
    "multiplicity": (lambda v: NodeMultiset(((0.5, v), (1.0, 1))), "multiplicity"),
    "newton_deriv": (lambda v: hermite_mn(KL, 0.5, 2.0, 1, 4).deriv(v, 1.0), "derivative order"),
    "hermite_m": (lambda v: hermite_mn(KL, 0.5, 2.0, v, 4), "m"),
    "hermite_n": (lambda v: hermite_mn(KL, 0.5, 2.0, 1, v), "n"),
    "remainder_m": (lambda v: remainder_R(KL, 0.5, 2.0, v, 4, 1.2), "m"),
    "remainder_n": (lambda v: remainder_R(KL, 0.5, 2.0, 1, v, 1.2), "n"),
    "moment_j": (lambda v: SMALL.moment(v, 1), "moment order j"),
    "moment_k": (lambda v: SMALL.moment(1, v), "moment order k"),
    "moment_j_100_points": (lambda v: _large().moment(v, 1), "moment order j"),
    "moment_k_100_points": (lambda v: _large().moment(1, v), "moment order k"),
    "classify_n": (lambda v: classify(GeneratorSpec("kl"), v), "n"),
    "zm_N": (lambda v: ZipfMandelbrotParams(v), "N"),
    "certify_n": (lambda v: certify_convexity(KL, v, samples=20, seed=1), "n"),
    "certify_samples": (lambda v: certify_convexity(KL, 3, samples=v, seed=1), "samples"),
    "certify_seed": (lambda v: certify_convexity(KL, 3, samples=20, seed=v), "seed"),
    "audit_cases": (lambda v: AuditConfig(cases=v), "cases"),
    "audit_seed": (lambda v: AuditConfig(seed=v), "seed"),
    "audit_cases_per_theorem": (lambda v: AuditConfig(cases_per_theorem=v), "cases_per_theorem"),
}

# Every interval argument: a call with the interval v (valid at (1, 2)) and its name.
INTERVAL_ARGS = {
    "model_domain": (lambda v: FunctionModel(abs, _zero, v), "domain"),
    "generator_domain": (lambda v: GeneratorSpec("kl", domain=v), "domain"),
    "hermite_endpoints": (lambda v: hermite_mn(KL, *v, 1, 3), "endpoints"),
    "functional_interval": (lambda v: DiscreteFunctional((1.5,), (1.0,), v), "interval"),
}


def _bits(value) -> str:
    """A float as `float.hex`, anything else as its repr: unlike ==, both tell 3 from 3.0
    (repr writes each float so that it reads back to the same bits)."""
    return float.hex(value) if isinstance(value, float) else repr(value)


@pytest.mark.parametrize("case", sorted(INTEGER_ARGS))
def test_an_integral_real_reads_as_its_int(case):
    call, _ = INTEGER_ARGS[case]
    values = (3.0, np.float64(3.0), np.int64(3))  # read before the int, so no cache holds 3
    got = [_bits(call(value)) for value in values]
    assert got == [_bits(call(3))] * len(values), values


@pytest.mark.parametrize("value", [True, 2.5, "3", math.nan, math.inf, np.float64(math.inf)], ids=repr)
@pytest.mark.parametrize("case", sorted(INTEGER_ARGS))
def test_a_non_integer_raises_naming_the_argument(case, value):
    call, name = INTEGER_ARGS[case]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be an integer "), str(exc.value)


@pytest.mark.parametrize("case", sorted(INTERVAL_ARGS))
def test_an_interval_is_two_finite_reals_a_below_b(case):
    call, name = INTERVAL_ARGS[case]
    want = _bits(call((1, 2)))
    assert _bits(call((1.0, 2.0))) == _bits(call((np.int64(1), np.float64(2.0)))) == want
    for bad in ((0, math.inf), (1, 1), (math.nan, 1)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value).startswith(f"{name} must be finite with a < b, got ["), str(exc.value)


def test_a_float_moment_order_reads_the_int_order_cache_entry():
    A = _large()
    first = A.moment(3.0, 1)
    assert float.hex(A.moment(3, 1)) == float.hex(first)
    assert list(A._chain_moments[2]) == [(3, 1)]
