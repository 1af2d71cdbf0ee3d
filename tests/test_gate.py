"""The certifying gate of `divergence_bounds` (`bounds._certify`).

A side is certified when it lies on the side of lr that its parity sign
predicts by more than E_side + E_lr, the stated bounds on the rounding error of
both.  These tests hold its negative controls: a planted slip of one term that
moves a side past lr, and a wrong convexity class, are contradicted; a value
that is not finite is refused as such; a side equal to lr is within rounding.
And they hold what it must not refuse: every draw shaped like the `cli_cold`
benchmark's `div` op is certified.  Its arithmetic is pinned to a reference
copy of E_side and E_lr (`_side_error_reference`, `_lr_error_reference`): the
same bits and the same verdict on every draw.  The gate judges the one evaluation
the report was summed from (`bounds._evaluate`: each side's endpoint table,
moments, terms and value, the parity signs, and f at the points and ends), and a
`divergence_bounds` call, like a CLI `bounds` or `div` call, resolves its
family's sides once.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from elrbounds import (
    CONCAVE,
    CONVEX,
    GeneratorSpec,
    ProbabilityVector,
    ZipfMandelbrotParams,
    bounds,
    divergence_bounds,
    zm_divergence_bounds,
)
from elrbounds.divided_diff import _ETA, _TINY, _U, _UP, _error_of


def _refusal(call) -> str | None:
    try:
        call()
    except RuntimeError as exc:
        return str(exc)
    return None


def _slipped(monkeypatch, call, eps=1e-6) -> str | None:
    """`call`'s refusal when the largest term of each side it forms is moved by eps of
    itself toward lr (the lr of `call` as it stands, which must be certified)."""
    lr = call().lr
    honest = bounds._terms

    def terms(*args, **kwargs):
        T, M, out = honest(*args, **kwargs)  # the list the gate reads too
        i = max(range(len(out)), key=lambda i: abs(out[i]))
        out[i] += eps * math.copysign(abs(out[i]), lr - math.fsum(out))
        return T, M, out

    with monkeypatch.context() as mp:
        mp.setattr(bounds, "_terms", terms)
        return _refusal(call)


def test_a_slip_in_one_term_of_a_20000_point_pair_is_contradicted(monkeypatch):
    # Two close ZM laws: at n = 8 the TM23 sides lie within 1e-7 of their largest
    # term from lr, so a 1e-6 slip of that term carries a side past lr.
    P, Q = ZipfMandelbrotParams(20_000, 1.0, 1.1), ZipfMandelbrotParams(20_000, 1.2, 1.12)
    call = lambda: zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=8, theorem="TM23")  # noqa: E731
    assert _slipped(monkeypatch, call) == "TM23 lower: contradicted by lr"
    # A slip that moves each side away from lr leaves a valid, certified bound.
    assert _slipped(monkeypatch, call, -1e-6) is None


def test_a_slip_in_one_term_of_a_small_dirichlet_pair_is_contradicted(monkeypatch):
    rng = np.random.default_rng(1)
    p, q = (ProbabilityVector(rng.dirichlet(np.ones(6) * 50)) for _ in range(2))
    call = lambda: divergence_bounds(GeneratorSpec("kl"), p, q, n=8, theorem="TM23")  # noqa: E731
    assert _slipped(monkeypatch, call) == "TM23 lower: contradicted by lr"


def test_a_wrong_class_is_contradicted():
    # kl is n-convex at even n; called n-concave, its sides land on the wrong sides of lr.
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    assert divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM23").convexity == CONVEX
    with pytest.raises(RuntimeError, match="^TM23 (lower|upper): contradicted by lr$"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM23", convexity=CONCAVE)


# div_small seed 5151, op 164 (TM24 kl n = 11): f^(k) at a = 1.6e-8 leaves a side at -inf.
P_164 = (3.39985759444752e-06, 2.475211094418449e-06, 0.03719082559545231, 2.0718750367043973e-21,
         7.047695462190119e-05, 0.2985572433754445, 0.606134244390126, 0.0001152625011788562,
         1.959517421980027e-16, 0.001759905636173555, 4.8025468132166665e-08, 1.629539071032578e-13,
         0.003041350415822989, 8.923735703392885e-06, 3.0367596946925768e-05, 1.4107312288874517e-11,
         4.0908975512164884e-11, 1.2249869601123913e-09, 0.000285926256298473, 3.848694336716169e-15,
         2.7649224907930203e-19, 1.5795016970483308e-05, 2.6747570075538157e-14, 2.3377528089780603e-08,
         2.106509207364299e-06, 0.052781624264171045, 5.273943708167693e-17)
Q_164 = (4.235221085845176e-13, 5.62701156967349e-11, 0.11991226881716967, 3.083169865334705e-10,
         5.919403499673986e-10, 0.06350156974570073, 1.7073153963285896e-07, 7.137282627120956e-12,
         0.0008399576213328025, 2.4888697007132938e-15, 2.448697964944453e-41, 0.21175786484543188,
         0.042237076497282415, 0.19980044070510317, 1.513677178360668e-11, 6.015447239361191e-08,
         2.2511522547860907e-05, 2.347750446433309e-09, 6.81300957099696e-29, 0.032609586449517135,
         0.001346779048183591, 4.1020346786796315e-15, 0.0850491009832722, 0.00014767680556519489,
         8.097292416083587e-05, 0.2426939598216669, 7.129499409600718e-14)


def test_a_side_that_is_not_finite_is_refused_as_such():
    p, q = ProbabilityVector(P_164), ProbabilityVector(Q_164)
    with pytest.raises(RuntimeError, match="^TM24 lower is not finite: -Infinity$"):
        divergence_bounds(GeneratorSpec("kl"), p, q, n=11, theorem="TM24")


def test_a_side_equal_to_lr_is_within_rounding():
    # A cubic has f^(4) = 0, so TM23 at n = 4 drops a zero remainder: both sides are lr.
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    cubic = GeneratorSpec("poly", coeffs=(0.0, 1.0, -2.0, 0.5))
    with pytest.raises(RuntimeError, match="^TM23 lower: within rounding of lr$"):
        divergence_bounds(cubic, p, q, n=4, theorem="TM23", convexity=CONVEX)


def test_every_draw_like_the_cli_div_op_is_certified():
    # The `cli_cold` benchmark's `div` op: Dirichlet(1) pairs of 5 entries, kl,
    # TM24 at n = 4, the class from classify.  None may be refused.
    rng = np.random.default_rng(5)
    for _ in range(500):
        p, q = (ProbabilityVector(rng.dirichlet(np.ones(5)).tolist()) for _ in range(2))
        report = divergence_bounds(GeneratorSpec("kl"), p, q, n=4, theorem="TM24")
        assert report.direction_valid and report.lower < report.lr < report.upper


# --- the gate's arithmetic, pinned to a reference copy ------------------------------

def _side_error_reference(f, A, x, y, n, m, T, M, terms):
    """`bounds._side_error` as first written: f's `_error_of` per call and int factorials."""
    u, h, cols, fact, error = _U, abs(y - x), n - m, math.factorial, _error_of(f)
    tiny_x, tiny_y = _TINY * (1.0 + abs(x)), _TINY * (1.0 + abs(y))
    E = [[0.0] + [float(error(k, y, T[0][k + 1] * fact(k)) + tiny_y) / fact(k) + u * abs(T[0][k + 1])
                  for k in range(cols)]]
    for i in range(1, m + 1):
        above, cells = E[-1], T[i]
        e = float(error(i - 1, x, cells[0] * fact(i - 1)) + tiny_x) / fact(i - 1) + u * abs(cells[0])
        row = [e]
        for j in range(1, cols + 1):
            e = (above[j] + e) / h + 3 * u * abs(cells[j])
            row.append(e)
        E.append(row)
    powers = [2.0**-500]
    while len(powers) < n:
        powers.append(powers[-1] * max(1.0, h))
    err = under = 0.0
    for (i, j), (J, K), v in zip(*bounds._layout(n, m), M):
        at, e_t, av = abs(T[i][j]), E[i][j], abs(v)
        e_m = (2 * (J + K) + 3) * u * av
        err += at * e_m + e_t * (av + e_m) + u * at * av
        under += (at + e_t) * (J + K + 2) * (powers[0] + powers[J] + powers[K])
    if m >= 3:
        d, f_d = A.mean - x, T[2][0] - T[1][1]
        err += _product_error_reference(d, 2 * u * A.mean + u * abs(d), f_d, E[2][0] + E[1][1] + u * abs(f_d))
    side = math.fsum(terms)
    return side, err + u * abs(side) + len(A) * under * 2.0**-574 + (len(M) + 1) * _ETA


def _product_error_reference(x, e_x, y, e_y):
    return abs(x) * e_y + e_x * abs(y) + e_x * e_y + _U * abs(x * y) + _ETA


def _lr_error_reference(f, A, lr, fg, fa, fb):
    """`bounds._lr_error` as first written."""
    (a, b), w, u, mean, error = A.interval, A._w, _U, A.mean, _error_of(f)
    size = float(np.add.reduce(w * np.abs(fg)))
    err = float(np.add.reduce(w * error(0, A._x, fg))) + _TINY * (1.0 + mean)
    err += 2 * u * size + len(w) * _ETA + u * (size + abs(lr))
    for num, x, fx in ((b - mean, a, fa), (mean - a, b, fb)):
        r = num / (b - a)
        e_r = (2 * u * mean + u * abs(num)) / (b - a) + 2 * u * abs(r)
        err += _product_error_reference(r, e_r, fx, error(0, x, fx) + _TINY * (1.0 + abs(x))) + u * abs(r * fx)
    return err


def _verdict_reference(evaluation, f, A):
    """`bounds._certify`'s refusal text (None: certified), the family resolved again as first written."""
    report, evaluated, _, f_values = evaluation
    tag, n, m, convexity = report.theorem, report.n, report.m, report.convexity
    if text := bounds._not_finite(tag, vars(report)):
        return text
    family, (a, b), sides = bounds.FAMILIES[tag], A.interval, []
    resolved, tables = family.resolve(n, m), {(x, k): (T, M, terms) for x, _, k, T, M, terms, _ in evaluated}
    with np.errstate(all="ignore"):
        e_lr = _lr_error_reference(f, A, report.lr, *f_values)
        for (anchor, k), sign in zip(resolved, bounds._signs(resolved, n, convexity)):
            x, y = (a, b) if anchor == "a" else (b, a)
            sides.append((sign, *_side_error_reference(f, A, x, y, n, k, *tables[x, k])))
    refusals = []
    for name, side in zip(("lower", "upper"), family.arrange(n, m, convexity, sides)[:2]):
        if side is not None:
            sign, value, e = side
            gap, margin = sign * (report.lr - value), _UP * (e + e_lr)
            if not gap > margin:
                wrong = -gap > margin
                refusals.append((not wrong, f"{tag} {name}: {'contradicted by' if wrong else 'within rounding of'} lr"))
    return min(refusals)[1] if refusals else None


def _gated(monkeypatch, calls):
    """Run each call with `bounds._certify` recording its arguments; returns them."""
    seen, honest = [], bounds._certify

    def recorded(evaluation, f, A):
        seen.append((evaluation, f, A))
        return honest(evaluation, f, A)

    with monkeypatch.context() as mp:
        mp.setattr(bounds, "_certify", recorded)
        for call in calls:
            try:
                call()
            except (RuntimeError, ValueError, OverflowError):
                pass
    return seen


def _assert_gate_is_the_reference(seen):
    for evaluation, f, A in seen:
        report, evaluated, _, f_values = evaluation
        error = _error_of(f)
        with np.errstate(all="ignore"):
            assert float.hex(bounds._lr_error(error, A, report.lr, *f_values)) == float.hex(
                _lr_error_reference(f, A, report.lr, *f_values)), report
            for x, y, k, T, M, terms, value in evaluated:
                got = value, bounds._side_error(error, A, x, y, report.n, k, T, M, value)
                want = _side_error_reference(f, A, x, y, report.n, k, T, M, terms)
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (report, x, k)
        assert _refusal(lambda: bounds._certify(evaluation, f, A)) == _verdict_reference(evaluation, f, A)


def test_the_gate_keeps_the_reference_bits_on_div_small_draws(monkeypatch):
    # Draws shaped like the `div_small` benchmark: every tag and generator, n 3..12,
    # K 3..30, Dirichlet concentration log-uniform over 0.03..5.
    rng, calls = np.random.default_rng(37), []
    for tag in bounds.FAMILIES:
        for gen in ("kl", "hellinger", "harmonic", "jeffreys"):
            for n in range(3 if tag in ("TM23", "TM24") else 4, 13):
                for _ in range(2):
                    K, conc = int(rng.integers(3, 31)), math.exp(rng.uniform(math.log(0.03), math.log(5.0)))
                    p, q = (ProbabilityVector(rng.dirichlet(np.full(K, conc)).tolist()) for _ in range(2))
                    m = int(rng.integers(3, n)) if bounds.FAMILIES[tag].takes_m else None
                    calls.append(lambda p=p, q=q, gen=gen, n=n, m=m, tag=tag: divergence_bounds(
                        GeneratorSpec(gen), p, q, n=n, m=m, theorem=tag))
    seen = _gated(monkeypatch, calls)
    assert len(seen) > 0.9 * len(calls)
    verdicts = [_verdict_reference(*args) for args in seen]
    assert None in verdicts and any(v and "within rounding" in v for v in verdicts)
    _assert_gate_is_the_reference(seen)


def test_the_gate_keeps_the_reference_bits_on_a_20000_point_pair(monkeypatch):
    P, Q = ZipfMandelbrotParams(20_000, 1.0, 1.1), ZipfMandelbrotParams(20_000, 1.2, 1.12)
    seen = _gated(monkeypatch, [
        lambda tag=tag: zm_divergence_bounds(P, Q, GeneratorSpec("kl"), n=8, m=5, theorem=tag)
        for tag in bounds.FAMILIES
    ])
    assert len(seen) == 5
    _assert_gate_is_the_reference(seen)


def _resolves(monkeypatch) -> list:
    """The tags of the families resolved from here on, one entry per `_Family.resolve` call."""
    calls, honest = [], bounds._Family.resolve

    def counted(self, n, m):
        calls.append(self.tag)
        return honest(self, n, m)

    monkeypatch.setattr(bounds._Family, "resolve", counted)
    return calls


def test_one_divergence_bounds_call_resolves_its_family_once(monkeypatch):
    calls = _resolves(monkeypatch)
    p, q = ProbabilityVector((0.2, 0.5, 0.3)), ProbabilityVector((0.4, 0.3, 0.3))
    for tag in bounds.FAMILIES:
        calls.clear()
        _refusal(lambda: divergence_bounds(GeneratorSpec("kl"), p, q, n=5, m=3, theorem=tag))
        assert calls == [tag]


def test_one_cli_bounds_or_div_call_resolves_its_family_once(monkeypatch, capsys):
    # `bounds --format csv` prints the term rows too: they are the report's, not resolved again.
    from elrbounds import cli

    calls = _resolves(monkeypatch)
    for tag in bounds.FAMILIES:
        for argv in (
            ["bounds", "--function", "exp", "--points", "0.5,1.5,1.9", "--weights", "0.3,0.3,0.4",
             "--interval", "0,2", "--format", "csv"],
            ["div", "--function", "kl", "--p", "0.2,0.5,0.3", "--q", "0.4,0.3,0.3"],
        ):
            calls.clear()
            assert cli.main([*argv, "--theorem", tag.lower(), "--n", "5", "--m", "3"]) == 0
            capsys.readouterr()
            assert calls == [tag], argv


def test_the_hellinger_error_keeps_its_bits_with_one_abs():
    # k = 0 takes |v| once; the bound is the two-`abs` expression's, bit for bit.
    from elrbounds.generators import _hellinger_error

    def two_abs(v):
        return _U * np.sqrt(2.0 * abs(v)) + (12.0 + 16.0 * _U) * _U * abs(v) + 2.0 * _U * _U

    rng = np.random.default_rng(38)
    for v in (0.0, -0.0, 5e-324, -1e-300, 0.125, -0.5, 3.0, 1e300, -math.inf):
        assert float.hex(float(_hellinger_error(0, 1.0, v))) == float.hex(float(two_abs(v))), v
    v = rng.standard_normal(20_000) * np.logspace(-300, 300, 20_000)
    assert _hellinger_error(0, 1.0, v).tobytes() == two_abs(v).tobytes()
