"""Library validation errors: each rejected input raises its own type and text."""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONVEX,
    DiscreteFunctional,
    FunctionModel,
    GeneratorSpec,
    NewtonForm,
    NodeMultiset,
    ProbabilityVector,
    RatioRange,
    ZipfMandelbrotParams,
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
        lambda: _model((0.0, math.inf)), ValueError, "domain must be finite, got [0.0, inf]"),
    "model_empty_domain": (
        lambda: _model((1.0, 1.0)), ValueError, "domain must satisfy a < b, got [1.0, 1.0]"),
    "model_negative_max_order": (
        lambda: _model(max_order=-1), ValueError, "max_order must be nonnegative"),
    "model_fractional_max_order": (
        lambda: _model(max_order=2.7), ValueError, "max_order must be an integer, got 2.7"),
    "model_string_max_order": (
        lambda: _model(max_order="3"), ValueError, "max_order must be an integer, got '3'"),
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
        lambda: NodeMultiset(((1.0, 0),)), ValueError, "multiplicity must be a positive integer, got 0"),
    "newton_lengths_differ": (
        lambda: NewtonForm((0.0, 1.0), (1.0,)), ValueError, "nodes and coeffs must have equal length"),
    "newton_derivative_order_0": (
        lambda: NewtonForm((0.0,), (1.0,)).deriv(0, 0.5), ValueError, "derivative order must be >= 1"),
    "hermite_empty_interval": (
        lambda: hermite_mn(CONSTANT, 1.0, 1.0, 1, 3),
        ValueError, "endpoints must satisfy a < b, got a=1.0, b=1.0"),
    "remainder_m_equals_n": (
        lambda: remainder_R(CONSTANT, 0.0, 2.0, 3, 3, 1.0),
        ValueError, "m must satisfy 1 <= m <= n-1, got m=3, n=3"),
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
        lambda: classify(GeneratorSpec("kl"), 13), ValueError, "n must be in 1..12, got 13"),
    "classify_fractional_order": (
        lambda: classify(GeneratorSpec("exp"), 2.5), ValueError, "n must be an integer, got 2.5"),
    "moment_negative_order": (
        lambda: DiscreteFunctional((0.5,), (1.0,), (0.0, 1.0)).moment(-1, 1),
        ValueError, "moment orders must be nonnegative, got (-1, 1)"),
    "moment_fractional_order": (
        lambda: DiscreteFunctional((0.5,), (1.0,), (0.0, 1.0)).moment(1.5, 1),
        ValueError, "moment orders must be integers, got (1.5, 1)"),
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
        lambda: certify_convexity(CONSTANT, 0), ValueError, "n must be >= 1, got 0"),
    "zm_infinite_N": (
        lambda: ZipfMandelbrotParams(math.inf), ValueError, "N must be a positive integer, got inf"),
    "zm_nan_N": (
        lambda: ZipfMandelbrotParams(math.nan), ValueError, "N must be a positive integer, got nan"),
    "zm_bool_N": (
        lambda: ZipfMandelbrotParams(True), ValueError, "N must be a positive integer, got True"),
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
