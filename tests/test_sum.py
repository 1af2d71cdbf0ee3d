"""`_sum`, the certified numpy sum behind the large sums, against `math.fsum`, bit for bit.

`_sum(x)` must return `math.fsum(x)` exactly: the same value through
`float.hex` (so the sign of a zero too) and, where fsum raises, the same
exception type and text.  Hypothesis draws arrays with the certified sum's
gate lowered to 2, so every draw of two or more elements meets the
extraction; the adversarial inputs are built at full length around the gate,
at lengths n where 2^M = n + 2 is tight, and at the limits of sigma.  Where
the certified sum must prove its result (smooth, wide and cancelling arrays,
max|x| just below the overflow limit, the Zipf-Mandelbrot sweep), the tests
count its refusals, so a certificate that always refuses (and quietly hands
every sum to fsum) fails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elrbounds import GeneratorSpec, divided_diff
from elrbounds.divided_diff import _SUM_MIN_LEN, _sum
from elrbounds.zipf import ZipfMandelbrotParams, zm_divergence_bounds

GATE = _SUM_MIN_LEN
# Around the gate and 2^12, and at n = 2^M - 2, where 2^M >= n + 2 is tight.
LENGTHS = sorted({
    GATE - 1, GATE, GATE + 1, 2**12 - 1, 2**12, 2**12 + 1,
    2**13 - 2, 2**13, 2**13 + 1, 2**14 - 2, 2**14, 2**14 + 1, 20_000,
})


def _outcome(fn, x):
    """('ok', hex of the value) or (exception type, text)."""
    try:
        return "ok", fn(x).hex()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _same_as_fsum(x):
    x = np.ascontiguousarray(x, dtype=float)
    assert _outcome(_sum, x) == _outcome(math.fsum, x.tolist())


def _extracted(monkeypatch):
    """Record each extraction attempt; the list holds True where it certified."""
    seen = []
    honest = divided_diff._extracted_sum

    def recording(x):
        r = honest(x)
        seen.append(r is not None)
        return r

    monkeypatch.setattr(divided_diff, "_extracted_sum", recording)
    return seen


# --- property -------------------------------------------------------------------

_WIDE = st.floats(allow_nan=True, allow_infinity=True, width=64)
_FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, width=64)
_SMALL_INTS = st.integers(-(2**60), 2**60).map(lambda k: k * 2.0**-60)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    *(st.lists(elements, min_size=2, max_size=200) for elements in (_WIDE, _FINITE, _SMALL_INTS))
).map(np.array))
def test_sum_is_fsum_bit_for_bit(x):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divided_diff, "_SUM_MIN_LEN", 2)
        _same_as_fsum(x)
        # The same values with their negatives appended cancel to fsum's 0.0.
        _same_as_fsum(np.concatenate([x, -x[::-1]]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(_FINITE, min_size=1, max_size=8),
    st.integers(GATE - 2, GATE + 40),
    st.integers(0, 2**32 - 1),
)
def test_sum_is_fsum_at_full_length(values, length, seed):
    # A few drawn values scattered over a gate-sized array of small terms.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, length) * 2.0 ** rng.integers(-60, 1, length)
    x[rng.integers(0, length, len(values))] = values
    _same_as_fsum(x)


# --- adversarial inputs ---------------------------------------------------------


def _spread(length, values, rng):
    """A zero array of `length` with `values` at random distinct places."""
    x = np.zeros(length)
    x[rng.choice(length, size=len(values), replace=False)] = values
    return x


@pytest.mark.parametrize("length", LENGTHS)
def test_exact_cancellation_and_negative_zeros(length, monkeypatch):
    rng = np.random.default_rng(length)
    v = rng.standard_normal(length // 2) * 10.0 ** rng.uniform(-20, 20, length // 2)
    x = np.concatenate([v, -v[rng.permutation(len(v))], [-0.0] * (length % 2)])
    _same_as_fsum(x)  # 0.0
    _same_as_fsum(np.full(length, -0.0))  # fsum gives 0.0, not -0.0
    _same_as_fsum(np.concatenate([x[:-1], [2.0**-1074]]) if length % 2 else x)
    # +-K pairs in [1, 2) cancel and leave 7n/8 terms just above u sigma, whose
    # second-pass high parts all have one sign and add up to about 0.8 sigma_2
    # at n = 2^M - 2: a second pass with a finer sigma would not sum them exactly.
    seen = _extracted(monkeypatch)
    u_sigma = 2.0 ** ((length + 1).bit_length() + 1 - 53)  # for max|x| in [1, 2)
    for _ in range(8):
        K = rng.uniform(1.0, 2.0, length // 16)
        rests = rng.uniform(1.0001, 1.1, length - 2 * len(K)) * u_sigma
        _same_as_fsum(rng.permutation(np.concatenate([K, -K, rests])))
    assert seen == ([True] * 8 if length >= GATE else [])


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sums_at_and_near_rounding_midpoints(length, sign):
    rng = np.random.default_rng(length)
    for top in (1.0, 1.5, 2.0**700, 3.0 * 2.0**-900):
        half = math.ulp(top) / 2.0
        for extra in ([], [2.0**-200 * top], [-(2.0**-200) * top], [half / 2**40, -half / 2**41]):
            # top + half ulp is a tie; the extra terms push it either way.
            x = _spread(length, [top, half, *extra], rng) * sign
            _same_as_fsum(x)
            # The tie split into many small pieces.
            pieces = np.full(64, half / 64)
            _same_as_fsum(_spread(length, [top, *pieces, *extra], rng) * sign)
    # Just below a power of two the spacing halves: ties on both sides of 1.0.
    for tail in ([-(2.0**-54)], [-(2.0**-54), -(2.0**-300)], [-(2.0**-54), 2.0**-300], [2.0**-53]):
        _same_as_fsum(_spread(length, [1.0, *tail], rng) * sign)


@pytest.mark.parametrize("length", LENGTHS)
def test_subnormals_only(length):
    rng = np.random.default_rng(length)
    x = rng.integers(-(2**40), 2**40, length) * 2.0**-1074
    _same_as_fsum(x)
    _same_as_fsum(np.abs(x))
    _same_as_fsum(rng.integers(0, 5, length) * 2.0**-1074)
    # max|x| = 2^(e-1) puts sigma = 2^(M+e) at its underflow limit 2^-1021,
    # then one step below.
    M = (length + 1).bit_length()
    for top in (2.0 ** (-1022 - M), 2.0 ** (-1023 - M)):
        y = rng.integers(-(2**30), 2**30, length) * 2.0**-1074
        y[0] = top
        _same_as_fsum(y)


@pytest.mark.parametrize("length", LENGTHS)
def test_magnitudes_from_1e_minus_300_to_1e300(length):
    rng = np.random.default_rng(length)
    x = rng.choice([-1.0, 1.0], length) * 10.0 ** rng.uniform(-300, 300, length)
    _same_as_fsum(x)
    _same_as_fsum(np.abs(x))
    _same_as_fsum(10.0 ** rng.uniform(-300, -290, length))


@pytest.mark.parametrize("length", LENGTHS)
def test_overflow_in_one_order_only(length, monkeypatch):
    big, h = 1e308, length - length // 2  # h: where the second half starts
    # fsum's running sum stays finite; adding the halves pairwise gives big + big.
    x = np.zeros(length)
    x[[0, 1, h, h + 1]] = [big, -big, big, -big]
    _same_as_fsum(x)
    # fsum's running sum overflows (OverflowError); adding the halves pairwise cancels.
    x[[0, 1, h, h + 1]] = [big, big, -big, -big]
    _same_as_fsum(x)
    # Large but representable sums.
    _same_as_fsum(np.full(length, 2.0**1000 / length))
    _same_as_fsum(np.full(length, 2.0**1023 / length * 1.5))
    # max|x| just below 2^(1023-M) makes sigma = 2^1023, which is proven; at
    # 2^(1023-M) sigma would overflow, and fsum runs.
    seen = _extracted(monkeypatch)
    rng = np.random.default_rng(length)
    limit = 2.0 ** (1023 - (length + 1).bit_length())
    for top in (math.nextafter(limit, 0.0), limit):
        y = top * rng.uniform(0.0, 1.0, length)
        y[0] = top
        _same_as_fsum(y)
    assert seen == ([True, False] if length >= GATE else [])


@pytest.mark.parametrize("length", LENGTHS)
def test_inf_nan_and_inf_minus_inf(length):
    rng = np.random.default_rng(length)
    inf, nan = math.inf, math.nan
    for specials in ([inf], [-inf], [nan], [inf, inf], [inf, -inf], [nan, inf, -inf], [1e308, 1e308]):
        x = rng.standard_normal(length)
        x[rng.choice(length, size=len(specials), replace=False)] = specials
        _same_as_fsum(x)


# --- the certificate does certify ---------------------------------------------------


def test_smooth_wide_and_cancelling_arrays_are_certified(monkeypatch):
    seen = _extracted(monkeypatch)
    rng = np.random.default_rng(1)
    cancelling = []
    for length in LENGTHS:
        smooth = np.float_power(np.arange(1.0, length + 1) + 2.5, -1.3)
        # |S| = 2^-30 against max|x| of 3 to 4, far below 2^-8 max|x|: too
        # close to zero for one pass to prove.
        h = (length - 1) // 2
        v = rng.standard_normal(h)
        c = np.zeros(length)
        c[:h], c[h:2 * h], c[-1] = v, -v[rng.permutation(h)], 2.0**-30
        cancelling.append(c)
        for x in (
            smooth,
            smooth / smooth[0],  # max|x| is 1.0, a power of two
            rng.standard_normal(length) * np.exp(rng.uniform(-200, 200, length)),
            c,
        ):
            _same_as_fsum(x)
    assert seen.count(True) == 4 * (len(LENGTHS) - 1)  # all but gate - 1 are proven
    seen.clear()
    monkeypatch.setattr(divided_diff, "_SUM_PASSES", 1)
    for c in cancelling:
        _same_as_fsum(c)
    assert seen == [False] * (len(LENGTHS) - 1)  # the second pass proved them


def test_zipf_mandelbrot_sweep_is_certified(monkeypatch):
    # Every tag on laws with s from 0.6 to 2.5 at N = 20,000: nearly every
    # large sum (moments, means, A(f), normalizers, unit sums; about 270 of
    # them) must be proven, and the reports are those of fsum alone.
    rng = np.random.default_rng(2024)
    laws = [
        (ZipfMandelbrotParams(20_000, float(rng.uniform(0, 5)), float(s)),
         ZipfMandelbrotParams(20_000, float(rng.uniform(0, 5)), float(rng.uniform(0.6, 2.5))))
        for s in np.linspace(0.6, 2.5, 4)
    ]
    runs = [("TM21", 6, 4, "kl"), ("TM22", 7, 3, "hellinger"), ("COR21", 7, 5, "jeffreys"),
            ("TM23", 9, None, "harmonic"), ("TM24", 5, None, "kl")]

    def sweep():
        return [_report(P, Q, *run) for P, Q in laws for run in runs]

    seen = _extracted(monkeypatch)
    reports = sweep()
    assert len(seen) >= 250
    assert seen.count(False) <= len(seen) // 100
    monkeypatch.setattr(divided_diff, "_SUM_MIN_LEN", math.inf)
    assert reports == sweep()


def _report(P, Q, tag, n, m, g):
    """The report's values as hex, or the exception's type and text."""
    try:
        r = zm_divergence_bounds(P, Q, GeneratorSpec(g), n=n, m=m, theorem=tag)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return tuple(v if v is None else v.hex() for v in (r.lr, r.lower, r.upper))
