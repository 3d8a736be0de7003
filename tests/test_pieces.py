import bisect
import decimal
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fourierineq import pieces
from fourierineq.criteria import ExponentConfig
from fourierineq.pieces import (Piece, StepFunction, TailSpec,
                                as_exp, parse_exp, scan_max)
from fourierineq.rearrange import hl_pairing
from fourierineq.symfunc import Asym, SymFunc
from fourierineq.weights import WeightSpec


def test_from_cells_values_and_call():
    f = StepFunction.from_cells([0.0, 1.0, 3.0], [2.0, 0.5])
    assert f(0.5) == 2.0
    assert f(2.0) == 0.5
    assert f(10.0) == 0.0
    assert f.is_compact()
    assert f.support_bound() == 3.0


def test_integrate_compact_exact():
    f = StepFunction.from_cells([0.0, 1.0, 2.0], [2.0, 1.0])
    r = f.integrate()
    assert r.is_finite and r.value == pytest.approx(3.0, abs=1e-15)
    # partial integrals split at interior points
    assert f.integrate(0.5, 1.5).value == pytest.approx(1.5, abs=1e-15)


def test_power_integrals_certificates():
    # t^{-1/2} (decay-exponent convention) integrates near 0, diverges at inf
    f = StepFunction.power(1.0, Fraction(1, 2))
    head = f.integrate(0.0, 1.0)
    assert head.is_finite and head.value == pytest.approx(2.0, rel=1e-12)
    assert f.integrate(1.0, math.inf).is_infinite
    # t^{-2} the other way round
    g = StepFunction.power(1.0, 2)
    assert g.integrate(0.0, 1.0).is_infinite
    t = g.integrate(1.0, math.inf)
    assert t.is_finite and t.value == pytest.approx(1.0, rel=1e-12)
    # (t^{-49})^{1/49} = t^{-1} diverges at 0 however 1/49 is spelled
    h = StepFunction.from_cells([0.0, 1.0], [1.0], lead=TailSpec.power(49))
    for e in (1 / 49, Fraction(1, 49)):
        assert h.pow_compose(e).integrate().is_infinite


def test_critical_exponent_log_divergence():
    f = StepFunction.power(1.0, 1)
    assert f.integrate(1.0, math.inf).is_infinite
    assert f.integrate(0.0, 1.0).is_infinite
    # a log factor restores integrability at the critical power
    h = StepFunction.power(1.0, 1, 2)
    tail = h.integrate(1.0, math.inf)
    assert tail.is_finite and tail.value > 0


def test_log_factor_divergence_certificates():
    # t^{-1} log^{-1}(e+t) still diverges at infinity
    f = StepFunction.power(1.0, 1, 1)
    assert f.integrate(1.0, math.inf).is_infinite


def test_pow_compose_exact():
    f = StepFunction.power(1.0, Fraction(1, 3))
    g = f.pow_compose(3.0)
    assert g(2.0) == pytest.approx(0.5, rel=1e-15)
    h = StepFunction.from_cells([0, 1, 2], [4.0, 9.0]).pow_compose(0.5)
    assert h(0.5) == 2.0 and h(1.5) == 3.0


def test_mul_and_refine():
    f = StepFunction.from_cells([0, 2], [3.0])
    g = StepFunction.from_cells([0, 1, 2], [1.0, 2.0])
    prod = f.refine(g.breakpoints) * g.refine(f.breakpoints)
    assert prod(0.5) == 3.0 and prod(1.5) == 6.0
    assert prod.integrate().value == pytest.approx(9.0, abs=1e-14)


def test_power_tail_spec():
    f = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                tail=TailSpec.power(2))
    assert f(2.0) == pytest.approx(0.25)
    total = f.integrate()
    assert total.is_finite and total.value == pytest.approx(2.0, rel=1e-12)


def test_csv_round_trip(tmp_path):
    f = StepFunction.from_cells([0.0, 0.5, 2.5], [1.25, 0.75])
    p = tmp_path / "f.csv"
    f.to_csv(str(p))
    g = StepFunction.from_csv(str(p))
    assert g.breakpoints == f.breakpoints
    assert g.values == f.values


def test_csv_round_trip_with_tail(tmp_path):
    f = StepFunction.from_cells([0.0, 1.0], [2.0, 3.0],
                                tail=TailSpec.power(Fraction(3, 2)))
    p = tmp_path / "f.csv"
    f.to_csv(str(p))
    g = StepFunction.from_csv(str(p))
    assert g(4.0) == pytest.approx(f(4.0), rel=1e-15)
    assert g.tail == f.tail


def _sup(*factors: StepFunction):
    """SymFunc.sup of the product of the factors, taken by SymFunc.mul."""
    prod = SymFunc.from_step(factors[0])
    for g in factors[1:]:
        prod = prod.mul(SymFunc.from_step(g))
    return prod.sup()


def test_sup_of_a_product():
    # sup of t^{-1/2} * 1_{(1,inf)} is attained at t = 1
    f = StepFunction.power(1.0, Fraction(1, 2))
    g = StepFunction.from_cells([0.0, 1.0], [0.0, 1.0],
                                tail=TailSpec.power(0))
    s = _sup(f, g)
    assert s.is_finite and s.value == pytest.approx(1.0, rel=1e-9)
    # growing times decaying, unbalanced: certified infinite
    h = StepFunction.power(1.0, -1)  # grows like t
    s2 = _sup(f, h)
    assert s2.is_infinite
    # an infinite cell times a power piece is infinite on that cell
    k = StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf])
    assert _sup(k, h).is_infinite


def test_a_zero_cell_times_an_infinite_cell_is_zero():
    # 0 x = 0 in either order, as SymFunc.mul reads it: the infinite cell
    # scaled by 0 read nan, and the integral raised ValueError
    zero = StepFunction.from_cells([0, 1, 2], [0.0, 1.0])
    inf = StepFunction.from_cells([0, 1, 2], [math.inf, 1.0])
    for f, g in [(zero, inf), (inf, zero)]:
        assert (f * g).pieces[0].const_value == 0.0
        assert (f * g).integrate().value == 1.0
        prod = SymFunc.from_step(f).mul(SymFunc.from_step(g))
        assert prod.step is not None and prod.integral().value == 1.0


def test_breakpoints_one_ulp_apart():
    # a cell one ulp wide between the breakpoints of f and g
    x1 = 7.672331698415035
    x2 = math.nextafter(x1, math.inf)
    f = StepFunction.from_cells([0.0, x1, 10.0], [2.0, 0.5])
    g = StepFunction.from_cells([0.0, x2, 10.0], [3.0, 1.0])
    prod = f * g
    for t in [0.5, 5.0, 8.0, 9.9, 20.0]:
        assert prod(t) == f(t) * g(t)
    assert _sup(f, g).value == 6.0
    pairing = hl_pairing(f, g)
    assert pairing.is_finite and pairing.value == pytest.approx(
        6.0 * x1 + 0.5 * (10.0 - x2), rel=1e-12)


def test_sup_of_a_step_function():
    f = StepFunction.from_cells([0, 1, 2], [3.0, 7.0])
    s = _sup(f)
    assert s.is_finite and s.value == 7.0
    g = StepFunction.power(1.0, Fraction(-1, 2))  # grows
    assert _sup(g).is_infinite
    assert _sup(StepFunction.from_cells([0, 1, 2], [1.0, math.inf])) \
        .is_infinite
    # t^{1/2} log(e+t)^{-2} on (0, 8) peaks inside the piece, near 1.55
    h = StepFunction([Piece(0.0, 8.0, 0.0, 1.0, 0.0, Fraction(1, 2), -2)])
    dense = max(h(i / 10000) for i in range(1, 80000))
    assert _sup(h).value == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("a, b, lo, hi, monotone", [
    (-1, Fraction(1, 10), 0.0, math.inf, True),  # |b| h(s*) = 0.032 <= 1
    (Fraction(-1, 4), 1, 0.0, math.inf, False),  # h(s*) = 0.318 > 1/4
    (Fraction(-1, 4), 1, 0.0, 1.0, True),  # h(1) = 0.205, before the peak
    (Fraction(-1, 4), 1, 50.0, math.inf, True),  # h(50) = 0.239, past it
    (Fraction(1, 4), -1, 1.0, 3.0, False),  # h crosses 1/4 at s = 1.55
    (Fraction(1, 4), -1, 2.0, 3.0, True),  # h(2) = 0.273 > 1/4 throughout
])
def test_power_log_piece_monotone_by_its_log_derivative(a, b, lo, hi,
                                                        monotone):
    # the log of s**a log(e+s)**b has the derivative (a + b h(s)) / s
    p = Piece(lo, hi, 0.0, 1.0, 0.0, a, b)
    assert p.values_monotone() is monotone
    steps = np.diff(p.at(np.geomspace(max(lo, 1e-6), min(hi, 1e6), 20001)))
    assert (bool(np.all(steps <= 0.0)) or bool(np.all(steps >= 0.0))) \
        is monotone


def test_invalid_inputs():
    with pytest.raises(ValueError):
        StepFunction.from_cells([1.0, 2.0], [1.0])  # grid must start at 0
    with pytest.raises(ValueError):
        StepFunction.from_cells([0.0, 1.0], [-1.0])  # negative value
    with pytest.raises(ValueError):
        Piece(2.0, 1.0)  # empty interval


def test_log_quad_finite_where_exp_overflows():
    # a log-factor tail, integrated in u = log t, whose nodes reach far
    # beyond u = 709, where e**u overflows; the reference is mpmath.quad of
    # t^{-2} log(e+t)^{-2} over [1, 10, inf]
    f = StepFunction.power(1.0, 2, 2)
    val = f.integrate(1.0, math.inf)
    assert val.is_finite and val.value == pytest.approx(0.383478689584624,
                                                        rel=1e-12)


def test_log_power_piece_tail_beyond_exp_overflow():
    # t^-1 log(e+t)^-3/2 holds 3% of its integral over (1, inf) beyond
    # t = e^709.78; the reference is mpmath.quad over [1, inf]
    f = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                tail=TailSpec.powerlog(1, Fraction(3, 2)))
    assert f.integrate().value == pytest.approx(1.0 + 2.2975656105992071,
                                                rel=1e-10)
    assert f.cumulative(from_left=False).at(np.array([1.0]))[0] == (
        pytest.approx(2.2975656105992071, rel=1e-10))


def _at(cum, t: float) -> float:
    """A cumulative's array evaluator at one point."""
    return float(cum.at(np.array([t]))[0])


def test_cumulative_both_directions():
    f = StepFunction.from_cells([0.0, 1.0, 3.0], [2.0, 1.0, 1.0],
                                tail=TailSpec.power(2))  # t^{-2} beyond 3
    left, right = f.cumulative(), f.cumulative(from_left=False)
    total = f.integrate().value  # 2 + 2 + 1/3
    for t in [0.0, 0.5, 1.0, 2.0, 3.0, 6.0]:
        assert _at(left, t) == pytest.approx(f.integrate(0.0, t).value,
                                             abs=1e-14)
        assert _at(left, t) + _at(right, t) == pytest.approx(total,
                                                             rel=1e-14)
    assert _at(right, 6.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # beyond a divergent piece the cumulative integral is infinite
    g = StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf])
    assert _at(g.cumulative(), 1.5) == math.inf
    assert _at(g.cumulative(), 3.0) == math.inf
    assert _at(g.cumulative(from_left=False), 0.5) == math.inf


def test_cumulative_reads_inf_where_a_partial_integral_overflows():
    # t**3 beyond 1: integral_1^t s**3 ds = (t**4 - 1)/4 exceeds the floats
    # at t = 1e100, where the closed form's power overflowed
    f = StepFunction.from_cells([0, 1], [1, 1], tail=TailSpec.power(-3))
    got = f.cumulative().at(np.array([0.5, 2.0, 1e100]))
    np.testing.assert_array_equal(got, [0.5, 1.0 + 15.0 / 4.0, math.inf])
    assert SymFunc.from_step(f).antiderivative()(1e100) == math.inf
    assert f.cumulative(from_left=False).at(np.array([1e100]))[0] == (
        math.inf)
    # a single integral past the floats' range raises
    with pytest.raises(OverflowError):
        StepFunction.power(1.0, -3).integrate(1.0, 1e100)
    # a piece without a closed form (a log factor) goes to Piece.integral,
    # whose power overflows there too
    g = StepFunction([Piece(0.0, 1.0, 1.0),
                      Piece(1.0, math.inf, 0.0, 1.0, 0.0, 3, 1)])
    assert g.cumulative().at(np.array([1e150]))[0] == math.inf


def test_parse_exp():
    assert parse_exp("4/3") == Fraction(4, 3)
    assert parse_exp(" 0.25 ") == Fraction(1, 4)
    assert parse_exp("-2") == -2
    assert parse_exp("INF") == math.inf and parse_exp("oo") == math.inf
    for bad in ["nan", "1/0", "", "abc", "-inf"]:
        with pytest.raises(ValueError):
            parse_exp(bad)


def test_exponent_rule():
    assert as_exp(3) == Fraction(3) and isinstance(as_exp(3), Fraction)
    assert as_exp("4/3") == Fraction(4, 3)
    assert as_exp(1 / 49) == Fraction(1, 49)
    # 0.1 + 0.2 is not the float 0.3, so 3/10 would not convert back
    assert as_exp(0.1 + 0.2) == Fraction(0.1 + 0.2)
    assert as_exp(math.inf) == math.inf
    with pytest.raises(ValueError):
        as_exp(math.nan)
    # every exponent slot holds the Fraction, and arithmetic stays exact
    third = Fraction(3, 10)
    assert WeightSpec.power(0.3).a == third
    assert ExponentConfig(1, 0.3).q == third
    assert Asym(1.0, 3).pow(0.1).a == third
    assert TailSpec.power(0.3).a == third
    assert Piece(0.0, 1.0, 0.0, 1.0, 0.0, 0.3).a == third


def test_tail_spec_rejects_non_finite_exponents():
    for a, b in [(math.inf, 0), (math.nan, 0), (1, math.inf)]:
        with pytest.raises(ValueError):
            TailSpec.powerlog(a, b)


def _random_closed_form(rng) -> StepFunction:
    """Random pieces without log factors whose partial integrals are all
    finite: constant cells, shifted and unshifted powers, t**-1 pieces
    away from their shift and a decaying or zero tail."""
    edges = np.unique(np.round(rng.uniform(0.05, 9.0, rng.integers(1, 7)),
                               int(rng.integers(0, 7))))
    edges = [0.0, *edges[edges > 0.0].tolist()]
    out = []
    for lo, hi in zip(edges, edges[1:] + [math.inf]):
        off = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        coef = float(rng.uniform(0.1, 3.0))
        kind = rng.integers(4) if math.isfinite(hi) else 4
        if kind == 0:
            out.append(Piece(lo, hi, off))
        elif kind == 1:  # a power of t - shift with shift <= lo
            shift = float(rng.choice([0.0, lo, lo * rng.random()]))
            a = Fraction(int(rng.integers(-2, 9)), 4)
            if shift == lo and a <= -1:
                a = Fraction(1, 3)
            out.append(Piece(lo, hi, off, coef, shift, a))
        elif lo > 0.0:  # t**-1 or steeper, away from its shift
            a = Fraction(-1) if kind == 2 else Fraction(-7, 3)
            out.append(Piece(lo, hi, off, coef, lo * rng.random(), a))
        else:
            out.append(Piece(lo, hi, off, coef, 0.0, Fraction(2, 3)))
        if kind == 4:  # the tail: zero or a decaying power
            out[-1] = (Piece(lo, hi) if lo == 0.0 or rng.random() < 0.3 else
                       Piece(lo, hi, 0.0, coef, lo * rng.random(),
                             Fraction(-int(rng.integers(5, 12)), 4)))
    return StepFunction(out)


def _piece_integral_cumulatives(f: StepFunction, ts) -> np.ndarray:
    """(left, right) cumulative integrals of f at every point of ts: prefix
    sums of ``Piece.integral`` plus the partial integral of the piece
    holding t, each part inf where it diverges."""
    ps = f.pieces

    def part(p, x0, x1):
        v = p.integral(x0, x1)
        return v.value if v.is_finite else math.inf
    out = []
    for t in ts:
        i = bisect.bisect_right(f.breakpoints, t) - 1
        head = sum((part(p, p.lo, p.hi) for p in ps[:i]), 0.0)
        rest = 0.0
        for p in ps[:i:-1]:
            rest += part(p, p.lo, p.hi)
        out.append((head + part(ps[i], ps[i].lo, t),
                    rest + part(ps[i], t, ps[i].hi)))
    return np.array(out)


def _decimal_cumulatives(f: StepFunction, ts) -> np.ndarray:
    """(left, right) cumulative integrals of f at every point of ts, each
    piece's part offset (x1 - x0) + c ((x1 - shift)**(a+1) - (x0 -
    shift)**(a+1)) / (a+1), or c log((x1 - shift) / (x0 - shift)) at
    a = -1, in 30-digit decimal arithmetic from the float ends and
    parameters and the exact exponents; inf where a part diverges."""
    D = decimal.Decimal

    def part(p, x0, x1):
        x0, x1 = max(x0, p.lo), min(x1, p.hi)
        if x1 <= x0:
            return D(0)
        if p.offset and not math.isfinite(p.offset * x1):
            return D("Infinity")
        total = D(p.offset) * (D(x1) - D(x0)) if p.offset else D(0)
        if p.coef:
            s0, s1 = max(D(x0) - D(p.shift), D(0)), D(x1) - D(p.shift)
            a1 = p.a + 1
            if a1 == 0:
                return total + D(p.coef) * (s1 / s0).ln()
            e = D(a1.numerator) / D(a1.denominator)
            total += D(p.coef) * (s1 ** e - s0 ** e) / e
        return total

    ps = f.pieces
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        for t in ts:
            i = bisect.bisect_right(f.breakpoints, t) - 1
            left = sum((part(p, p.lo, p.hi) for p in ps[:i]), D(0))
            right = sum((part(p, p.lo, p.hi) for p in ps[i + 1:]), D(0))
            out.append((float(left + part(ps[i], ps[i].lo, t)),
                        float(right + part(ps[i], t, ps[i].hi))))
    return np.array(out)


def _closed_form_cases():
    """The random closed-form functions, an infinite level, and the points
    at which their cumulatives are compared: breakpoints, an ulp below
    each inner one, and random points."""
    rng = np.random.default_rng(2025)
    fs = [_random_closed_form(rng) for _ in range(200)]
    fs.append(StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf]))
    for f in fs:
        inner = [p.hi for p in f.pieces[:-1]]
        yield f, np.array([0.0, *f.breakpoints, *inner,
                           *np.nextafter(inner, 0.0).tolist(),
                           *rng.uniform(0.0, 12.0, 8).tolist()])


def _assert_cumulatives_close(got, want):
    """A difference of partial integrals is absolute, on the scale of the
    cumulative, so it is compared there too."""
    for g, w in zip(got, want):
        np.testing.assert_array_equal(np.isinf(g), np.isinf(w))
        ok = np.isfinite(w)
        np.testing.assert_allclose(g[ok], w[ok], rtol=2e-15,
                                   atol=1e-15 * w[ok].max())


def test_closed_form_matches_a_30_digit_reference():
    # Piece.integral (through the prefix sums of its piece integrals) and
    # the cumulatives' at share one closed form; the reference is the same
    # formula in 30-digit decimal arithmetic (a part over one ulp can round
    # to 0 in floats, and reads about 1e-16 here)
    for f, ts in _closed_form_cases():
        want = _decimal_cumulatives(f, ts.tolist()).T
        _assert_cumulatives_close(
            _piece_integral_cumulatives(f, ts.tolist()).T, want)
        _assert_cumulatives_close(
            [f.cumulative().at(ts), f.cumulative(from_left=False).at(ts)],
            want)


def test_cumulative_at_is_the_point_value(monkeypatch):
    # at runs each piece's closed form on its group of points with numpy's
    # logs and powers; the reference is Piece.integral, which runs the same
    # closed form on floats, so this checks the prefix sums
    for f, ts in _closed_form_cases():
        want = _piece_integral_cumulatives(f, ts.tolist())
        cums = (f.cumulative(), f.cumulative(from_left=False))
        # the closed form runs for every point of a piece without a log
        # factor, an infinite level too: Piece.integral is not called once
        # the cumulatives are built
        monkeypatch.setattr(Piece, "integral", None)
        got = [cum.at(ts) for cum in cums]
        monkeypatch.undo()
        _assert_cumulatives_close(got, want.T)
        for g, w in zip(got, want.T):
            np.testing.assert_array_equal(g == 0.0, w == 0.0)


def test_right_cumulative_over_a_divergent_head_is_closed_form(monkeypatch):
    # a head c (t - shift)**a with a <= -1 diverges at t = shift, but the
    # integral from t > shift to the right never reaches it: the right
    # cumulative keeps its closed form there, and only t = shift is inf
    fs = [StepFunction.power(1.0, Fraction(3, 2)),
          StepFunction([Piece(0.0, 2.0, 0.5, 1.0, 0.0, Fraction(-1)),
                        Piece(2.0, math.inf, 0.0, 3.0, 0.0, Fraction(-2))]),
          StepFunction([Piece(0.0, 1.0, 1.0),
                        Piece(1.0, 4.0, 0.0, 2.0, 1.0, Fraction(-5, 2)),
                        Piece(4.0, math.inf)])]
    calls = []
    integral = Piece.integral
    monkeypatch.setattr(Piece, "integral", lambda p, x0, x1: (
        calls.append(x0), integral(p, x0, x1))[1])
    for f in fs:
        ts = np.array([0.0, *f.breakpoints, *np.geomspace(1e-6, 1e3, 61)])
        for from_left in (True, False):
            cum = f.cumulative(from_left=from_left)
            calls.clear()
            got = cum.at(ts)
            assert calls == []  # closed form, inf at t = shift included
            want = _piece_integral_cumulatives(f, ts.tolist())[
                :, 0 if from_left else 1]
            np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
            ok = np.isfinite(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=2e-15,
                                       atol=1e-15 * want[ok].max())
    # integral_t^inf s**(-3/2) ds = 2 / sqrt(t)
    right = fs[0].cumulative(from_left=False)
    for t in [1e-6, 0.3, 1.0, 50.0]:
        assert _at(right, t) == pytest.approx(2.0 / math.sqrt(t), rel=1e-14)
    assert _at(right, 0.0) == math.inf


def test_left_cumulative_over_a_divergent_head_is_inf_in_closed_form(
        monkeypatch):
    # integral_0^t s**(-3/2) ds diverges for every t > 0: the closed form
    # reads inf, and no point goes to Piece.integral
    f = StepFunction.power(1.0, Fraction(3, 2))
    calls = []
    integral = Piece.integral
    monkeypatch.setattr(Piece, "integral", lambda p, x0, x1: (
        calls.append(x0), integral(p, x0, x1))[1])
    got = f.cumulative().at(np.geomspace(1e-6, 1e3, 2048))
    assert calls == [] and (got == math.inf).all()
    # a divergent head after a finite cell: 0 up to it, inf beyond
    g = StepFunction([Piece(0.0, 1.0), Piece(1.0, math.inf, 0.0, 2.0, 1.0,
                                             Fraction(-3, 2))])
    cum = g.cumulative()
    calls.clear()  # the integral of the finite cell, once
    got = cum.at(np.array([0.5, 1.0, 1.5, 1e3]))
    assert calls == []
    np.testing.assert_array_equal(got, [0.0, 0.0, math.inf, math.inf])


def _search_problems(rng, n):
    """n seeded (f, a, b, m): smooth, kinked, flat and power-log functions
    to minimize, with a from 1e-6 to 1e6, b/a up to 100 and one a = b; the
    kinked ones (every fifth from the second, and from the fifth) have
    their least value at m."""
    out = []
    for i in range(n):
        a = float(10.0 ** rng.uniform(-6.0, 6.0))
        b = a * float(10.0 ** rng.uniform(0.0, 2.0)) if i else a
        m = float(rng.uniform(a, b))
        c, d = float(rng.uniform(0.1, 10.0)), float(rng.uniform(-5.0, 5.0))
        s = float(rng.uniform(0.3, 1.5))
        p, q = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
        e = float(rng.uniform(-2.0, 2.0))
        kind = i % 5
        if kind == 0:  # smooth
            def f(t, m=m, c=c, d=d):
                return c * ((t - m) / m) ** 2 + d
        elif kind == 1:  # kink at m
            def f(t, m=m, c=c, s=s):
                return c * math.pow(abs(t - m) / m, s)
        elif kind == 2:  # flat
            def f(t, d=d):
                return d
        elif kind == 3:  # peak of a power-log, as scan_max searches it
            def f(t, m=m, p=p, q=q, e=e):
                x = t / m
                return -(math.pow(x, p) * math.pow(1.0 + x, -p - q)
                         * math.pow(math.log(math.e + x), e))
        else:  # kinked peak of two power laws meeting at m
            def f(t, m=m, p=p, q=q):
                x = t / m
                return -min(math.pow(x, p), math.pow(x, -q))
        out.append((f, a, b, m))
    return out


def test_scan_max_refines_as_high_as_bounded_brent():
    # scan_max on h = -f, refined between the neighbours of the best of 9
    # even samples of [a, b].  On the smooth and flat problems it rises as
    # high as scipy's bounded Brent search (which the package used before,
    # bit for bit) on the same bracket; at the kink or cusp of the others,
    # whose peak is at m, at least as high as h at 4 sqrt(eps) m from m,
    # the distance to which the refinement closes its bracket
    from scipy.optimize import minimize_scalar

    tol = 4.0 * math.sqrt(2.2e-16)
    for i, (f, a, b, m) in enumerate(
            _search_problems(np.random.default_rng(8), 200)):
        if a == b:
            continue
        ts = np.linspace(a, b, 9)
        h_at = np.vectorize(lambda t, f=f: -f(float(t)))
        got = scan_max(h_at, ts)
        vals = h_at(ts)
        k = int(np.argmax(vals))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 8)]
        if i % 5 in (1, 4):  # a kink at m
            want = float(np.min(h_at(np.array([m * (1 - tol),
                                               m * (1 + tol)]))))
        else:
            want = -minimize_scalar(f, bounds=(lo, hi),
                                    method="bounded").fun
        want = max(want, float(vals[k]))
        assert got >= want - 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# the first stage: dqk21 on every segment of an array at once
# ---------------------------------------------------------------------------


def _stage_integrands(rng):
    """Seeded smooth and power-log integrands."""
    for _ in range(10):
        c, k = rng.uniform(0.1, 3.0), rng.uniform(0.2, 5.0)
        a, b = rng.uniform(-2.5, 2.5), rng.uniform(-2.0, 2.0)
        yield lambda t, c=c, k=k: c * math.exp(-k * t) * math.cos(t) ** 2
        yield lambda t, c=c, a=a, b=b: c * t ** a * math.log(math.e + t) ** b


def test_first_stage_is_quadpacks_first_stage():
    import scipy.integrate

    # scipy's quad with limit=1 returns qagse's first stage: dqk21's result
    # and error estimate on the whole range.  The node values are the same
    # (f point by point), so only the order of the sums differs: the error
    # estimate, a 1.5 power of a cancelling difference of two sums, moves
    # by up to 2e-4 relative with the last bit of a sum
    rng = np.random.default_rng(21)
    for f in _stage_integrands(rng):
        a = rng.uniform(1e-3, 10.0, 10)
        b = a * rng.uniform(1.01, 100.0, 10)
        result, abserr, _, _, finite = pieces.first_stage(
            lambda ts: np.array([f(float(t)) for t in ts]), a, b)
        assert finite.all()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore",
                                  scipy.integrate.IntegrationWarning)
            want = [scipy.integrate.quad(f, x, y, limit=1)
                    for x, y in zip(a.tolist(), b.tolist())]
        np.testing.assert_allclose(result, [w[0] for w in want],
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(abserr, [w[1] for w in want],
                                   rtol=1e-3, atol=0.0)


def _stage_count(monkeypatch) -> list:
    """pieces.first_stage wrapped to record the segments of every call."""
    calls, stage = [], pieces.first_stage

    def counted(at, a, b):
        calls.append(len(a))
        return stage(at, a, b)
    monkeypatch.setattr(pieces, "first_stage", counted)
    return calls


# (f on an array, edges, closed form of the integral over them): a support
# end ~ (1 - t)**alpha, whose graded map (1 - x)**(2 alpha + 1) is smooth
# for alpha = 1/2 and 3/2, and a kink |t - 3/4|**(1/2) at an edge
GRADED = {
    "(1 - t)**(1/2)": (lambda ts: (1.0 - ts) ** 0.5, [0.5, 1.0],
                       0.5 ** 1.5 / 1.5),
    "(1 - t)**(3/2)": (lambda ts: (1.0 - ts) ** 1.5, [0.5, 1.0],
                       0.5 ** 2.5 / 2.5),
    "kink": (lambda ts: np.abs(ts - 0.75) ** 0.5, [0.5, 0.75, 1.0], 1 / 6),
}


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_cells_take_an_algebraic_end_at_the_first_stage(
        monkeypatch, name):
    # without the graded map each case halved 10 to 16 levels
    f_at, edges, exact = GRADED[name]
    calls = _stage_count(monkeypatch)
    got = pieces.log_cells(f_at, edges)
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
    # a range of two cells is first tried whole, in log t, then both cells
    # go through one graded pass
    assert calls == ([1] if len(edges) == 2 else [1, 2])


def test_graded_cells_with_a_rough_end(monkeypatch):
    # (1 - t)**(3/4) maps to (1 - x)**(5/2), which the first stage does not
    # resolve to quad's tolerance: three levels (twelve without the map)
    calls = _stage_count(monkeypatch)
    got = pieces.log_cells(lambda ts: (1.0 - ts) ** 0.75, [0.5, 1.0])
    assert got == pytest.approx(0.5 ** 1.75 / 1.75, rel=1e-11, abs=0.0)
    assert len(calls) == 3


def test_quad_cells_fallback_integrates_the_graded_integrand(monkeypatch):
    # a non-finite node value reads 0, and its piece is halved like any
    # other: the inf at u = 3/2, the centre node of the graded cell (1, 2),
    # leaves the first level's two halves, whose nodes miss it; a cell of
    # width 0 is 0 and costs nothing
    calls = _stage_count(monkeypatch)

    def f_at(us):
        return np.where(us == 1.5, math.inf, us * us)

    pieces.QUAD_FLAGS.clear()
    got = pieces.quad_cells(f_at, np.array([1.0, 2.0]), np.array([2.0, 2.0]))
    assert got[0] == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert got[1] == 0.0
    assert calls == [1, 2]
    assert not pieces.QUAD_FLAGS


def test_quad_cells_flags_a_cell_that_stops_open():
    # sin(1/u) on (0, 1) oscillates without end near 0: the cell reaches the
    # limit of 300 pieces, keeps its estimate, within 1e-6 of sin 1 - Ci(1)
    # (0.50406706190692837, mpmath), and counts once under "limit"; the
    # smooth cell beside it is not flagged
    def f_at(us):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(us < 1.5, np.sin(1.0 / us), us)

    pieces.QUAD_FLAGS.clear()
    got = pieces.quad_cells(f_at, np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    assert got[0] == pytest.approx(0.50406706190692837, abs=1e-6)
    assert got[1] == pytest.approx(2.5, rel=1e-14)
    assert pieces.QUAD_FLAGS == {"limit": 1}
    # an integral of 0 to relative accuracy: the error estimate of
    # integral_{-0.4}^1 (u - 0.3) du is at the level of roundoff, so the
    # cell stops there, at its estimate
    pieces.QUAD_FLAGS.clear()
    got = pieces.quad_cells(lambda us: us - 0.3, np.array([-0.4]),
                            np.array([1.0]))
    assert abs(got[0]) < 1e-15
    assert pieces.QUAD_FLAGS == {"roundoff": 1}


def test_step_function_is_right_continuous_at_a_breakpoint():
    # a piece holds [lo, hi): at a breakpoint the piece on the right
    f = StepFunction.indicator(1.0)
    assert f(1.0) == 0.0
    assert f(math.nextafter(1.0, 0.0)) == 1.0
    ts = np.array([1.0, math.nextafter(1.0, 0.0), 0.5, 2.0])
    np.testing.assert_array_equal(f.at(ts), [f(t) for t in ts])
