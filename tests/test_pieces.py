import bisect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fourierineq import pieces
from fourierineq.criteria import ExponentConfig
from fourierineq.pieces import (LeadSpec, Piece, StepFunction, TailSpec,
                                as_exp, brent_min, log_quad, parse_exp, quad,
                                sup_over)
from fourierineq.rearrange import hl_pairing
from fourierineq.symfunc import Asym
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
    h = StepFunction.from_cells([0.0, 1.0], [1.0], lead=LeadSpec.power(49))
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


def test_sup_over_product():
    # sup of t^{-1/2} * 1_{(1,inf)} is attained at t = 1
    f = StepFunction.power(1.0, Fraction(1, 2))
    g = StepFunction.from_cells([0.0, 1.0], [0.0, 1.0],
                                tail=TailSpec.power(0))
    s = sup_over(f, g)
    assert s.is_finite and s.value == pytest.approx(1.0, rel=1e-9)
    # growing times decaying, unbalanced: certified infinite
    h = StepFunction.power(1.0, -1)  # grows like t
    s2 = sup_over(f, h)
    assert s2.is_infinite
    # an infinite cell times a power piece is infinite on that cell
    k = StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf])
    assert sup_over(k, h).is_infinite


def test_breakpoints_one_ulp_apart():
    # a cell one ulp wide between the breakpoints of f and g
    x1 = 7.672331698415035
    x2 = math.nextafter(x1, math.inf)
    f = StepFunction.from_cells([0.0, x1, 10.0], [2.0, 0.5])
    g = StepFunction.from_cells([0.0, x2, 10.0], [3.0, 1.0])
    prod = f * g
    for t in [0.5, 5.0, 8.0, 9.9, 20.0]:
        assert prod(t) == f(t) * g(t)
    assert sup_over(f, g).value == 6.0
    pairing = hl_pairing(f, g)
    assert pairing.is_finite and pairing.value == pytest.approx(
        6.0 * x1 + 0.5 * (10.0 - x2), rel=1e-12)


def test_essential_sup():
    f = StepFunction.from_cells([0, 1, 2], [3.0, 7.0])
    s = f.essential_sup()
    assert s.is_finite and s.value == 7.0
    g = StepFunction.power(1.0, Fraction(-1, 2))  # grows
    assert g.essential_sup().is_infinite
    assert StepFunction.from_cells([0, 1, 2], [1.0, math.inf]) \
        .essential_sup().is_infinite
    # t^{1/2} log(e+t)^{-2} on (0, 8) peaks inside the piece, near 1.55
    h = StepFunction([Piece(0.0, 8.0, 0.0, 1.0, 0.0, Fraction(1, 2), -2)])
    dense = max(h(i / 10000) for i in range(1, 80000))
    assert h.essential_sup().value == pytest.approx(dense, rel=1e-9)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        StepFunction.from_cells([1.0, 2.0], [1.0])  # grid must start at 0
    with pytest.raises(ValueError):
        StepFunction.from_cells([0.0, 1.0], [-1.0])  # negative value
    with pytest.raises(ValueError):
        Piece(2.0, 1.0)  # empty interval


def test_log_quad_finite_where_exp_overflows():
    # quad maps (0, inf) onto u = log t and samples u far beyond 709, where
    # math.exp overflows: the plain substituted integrand raises there
    with pytest.raises(OverflowError):
        quad(lambda u: math.exp(u) ** -2 * math.exp(u), 0.0, math.inf)
    assert log_quad(lambda t: t ** -2, 1.0, math.inf) == pytest.approx(
        1.0, rel=1e-12)
    assert log_quad(lambda t: t ** -0.5, 0.0, 1.0) == pytest.approx(
        2.0, rel=1e-12)
    # a log-factor tail, integrated through log_quad; the reference is
    # mpmath.quad of t^{-2} log(e+t)^{-2} over [1, 10, inf]
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
    assert f.cumulative(from_left=False)(1.0) == pytest.approx(
        2.2975656105992071, rel=1e-10)


def test_cumulative_both_directions():
    f = StepFunction.from_cells([0.0, 1.0, 3.0], [2.0, 1.0, 1.0],
                                tail=TailSpec.power(2))  # t^{-2} beyond 3
    left, right = f.cumulative(), f.cumulative(from_left=False)
    total = f.integrate().value  # 2 + 2 + 1/3
    for t in [0.0, 0.5, 1.0, 2.0, 3.0, 6.0]:
        assert left(t) == pytest.approx(f.integrate(0.0, t).value,
                                        abs=1e-14)
        assert left(t) + right(t) == pytest.approx(total, rel=1e-14)
    assert right(6.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # beyond a divergent piece the cumulative integral is infinite
    g = StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf])
    assert g.cumulative()(1.5) == math.inf
    assert g.cumulative()(3.0) == math.inf
    assert g.cumulative(from_left=False)(0.5) == math.inf



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


def test_closed_form_cumulative_is_piece_integral_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(2024)
    for _ in range(300):
        f = _random_closed_form(rng)
        ps = f.pieces
        inner = [p.hi for p in ps[:-1]]
        ts = [0.0, *f.breakpoints, *inner,
              *np.nextafter(inner, 0.0).tolist(),
              *rng.uniform(0.0, 12.0, 8).tolist()]
        left, right = f.cumulative(), f.cumulative(from_left=False)
        # reference: prefix sums of Piece.integral plus the partial
        # integral of the piece holding t
        want = []
        for t in ts:
            i = bisect.bisect_right(f.breakpoints, t) - 1
            head = sum((p.integral(p.lo, p.hi).value for p in ps[:i]), 0.0)
            part = ps[i].integral(ps[i].lo, t).value
            rest = 0.0
            for p in ps[:i:-1]:
                rest += p.integral(p.lo, p.hi).value
            want.append((head + part, rest + ps[i].integral(t, ps[i].hi).value))
        # the float formula runs for every point: Piece.integral is not
        # called once the cumulatives are built
        monkeypatch.setattr(Piece, "integral", None)
        got = [(left(t), right(t)) for t in ts]
        monkeypatch.undo()
        assert got == want


def test_cumulative_at_is_the_point_value():
    # at runs each piece's closed form on its group of points with numpy's
    # logs and powers; a difference of partial integrals is absolute, on the
    # scale of the cumulative, so it is compared there too
    rng = np.random.default_rng(2025)
    fs = [_random_closed_form(rng) for _ in range(200)]
    fs.append(StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, math.inf]))
    for f in fs:
        inner = [p.hi for p in f.pieces[:-1]]
        ts = np.array([0.0, *f.breakpoints, *inner,
                       *np.nextafter(inner, 0.0).tolist(),
                       *rng.uniform(0.0, 12.0, 8).tolist()])
        for cum in (f.cumulative(), f.cumulative(from_left=False)):
            got = cum.at(ts)
            want = np.array([cum(float(t)) for t in ts])
            np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_array_equal(got == 0.0, want == 0.0)
            ok = np.isfinite(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=2e-15,
                                       atol=1e-15 * want[ok].max())


def _search_problems(rng, n):
    """n seeded (f, a, b): smooth, kinked, flat and power-log functions to
    minimize, with a from 1e-6 to 1e6, b/a up to 100 and one a = b."""
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
        out.append((f, a, b))
    return out


def test_brent_min_keeps_scipy_bounded_iterates_bit_for_bit():
    from scipy.optimize import minimize_scalar

    def traced(f, xs):
        def g(t):
            xs.append(float(t))
            return f(float(t))
        return g

    for f, a, b in _search_problems(np.random.default_rng(8), 200):
        ours, theirs = [], []
        got = brent_min(traced(f, ours), a, b)
        res = minimize_scalar(traced(f, theirs), bounds=(a, b),
                              method="bounded")
        assert ours == theirs
        assert got.hex() == float(res.fun).hex()


def test_quad_bypasses_a_rebound_scipy_integrate_quad(monkeypatch):
    # a counter that rebinds scipy.integrate.quad before the backbone's
    # first call must not see the package's integrals
    import scipy.integrate
    from fourierineq import pieces

    calls = []
    quadpack = scipy.integrate.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return quadpack(*args, **kwargs)
    monkeypatch.setattr(pieces, "_qagse", None)
    monkeypatch.setattr(scipy.integrate, "quad", counting)
    assert quad(lambda t: t * t, 0.0, 1.0)[0] == pytest.approx(1 / 3)
    assert calls == []


# (integrand, a, b): finite ranges, each infinite end, reversed and empty
# ranges, an integral QUADPACK cannot converge and a NaN integrand
QUAD_CASES = {
    "finite": (lambda t: t * t, 0.0, 1.0),
    "finite-log": (lambda t: math.exp(-t) * math.log1p(t), 0.5, 30.0),
    "end-singularity": (lambda t: t ** -0.5 * math.cos(t), 0.0, 4.0),
    "to-inf": (lambda t: math.exp(-t) / (1.0 + t), 2.0, math.inf),
    "from-minus-inf": (lambda t: math.exp(t) * t * t, -math.inf, -1.0),
    "whole-line": (lambda t: 1.0 / (1.0 + t ** 4), -math.inf, math.inf),
    "reversed": (lambda t: math.sqrt(t), 3.0, 1.0),
    "reversed-inf": (lambda t: math.exp(-t), math.inf, 0.0),
    "reversed-whole-line": (lambda t: math.exp(-t * t), math.inf,
                            -math.inf),
    "empty": (lambda t: t, 2.0, 2.0),
    "empty-inf": (lambda t: t, math.inf, math.inf),
    "no-convergence": (lambda t: math.sin(1.0 / t), 0.0, 1.0),
    "nan": (lambda t: math.nan, 0.0, 1.0),
}


@pytest.mark.parametrize("case", sorted(QUAD_CASES))
def test_quad_is_scipy_quad_bit_for_bit(case):
    import scipy.integrate

    f, a, b = QUAD_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        want = scipy.integrate.quad(f, a, b, limit=300)
    assert [x.hex() for x in quad(f, a, b)] == [float(x).hex() for x in want]


def test_quad_lets_an_integrand_error_through():
    class Boom(Exception):
        pass

    def f(t):
        raise Boom
    for a, b in ((0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)):
        with pytest.raises(Boom):
            quad(f, a, b)


# ---------------------------------------------------------------------------
# the segment rule: qagse's first stage on every segment of a grid at once
# ---------------------------------------------------------------------------


def _pointwise(f):
    """at(ts) from f, one point at a time: the same node values quad sees."""
    return lambda ts: np.array([f(float(t)) for t in ts])


def _segment_integrands(rng):
    """Seeded smooth, kinked and power-law integrands."""
    for _ in range(12):
        c, k = rng.uniform(0.1, 3.0), rng.uniform(0.2, 5.0)
        knot, a = rng.uniform(0.5, 20.0), rng.uniform(-2.5, 2.5)
        yield lambda t, c=c, k=k: c * math.exp(-k * t) * math.cos(t) ** 2
        yield lambda t, c=c, knot=knot: c * abs(t - knot) ** 0.5 + 1.0
        yield lambda t, c=c, a=a: c * t ** a * math.log(math.e + t) ** 0.5


def test_segment_rule_returns_quads_bits(monkeypatch):
    rng = np.random.default_rng(20)
    accepted = total = 0
    for f in _segment_integrands(rng):
        edges = np.unique(np.geomspace(rng.uniform(1e-6, 1.0),
                                       rng.uniform(2.0, 1e6),
                                       int(rng.integers(20, 200))))
        want = [quad(f, a, b)[0] for a, b in zip(edges, edges[1:])]
        sent = []

        def recorded(func, a, b):
            sent.append((a, b))
            return quad(func, a, b)

        with monkeypatch.context() as mp:
            mp.setattr(pieces, "quad", recorded)
            got = pieces.quad_segments(f, _pointwise(f), edges)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        total += len(want)
        accepted += len(want) - len(sent)
    # most segments of a fine grid pass the first stage; the rest are
    # integrated by quad
    assert 0.5 * total < accepted < total


def test_segment_rule_sends_the_rest_to_quad(monkeypatch):
    # (0, 2 pi): sin's cancellation makes qagse flag roundoff (ier 2) at
    # its first stage; (2 pi, 3 pi): the node value at the centre is inf;
    # (3 pi, 4 pi): a kink the 21-point estimate does not resolve to the
    # tolerance; (4 pi, 5 pi) is smooth and accepted
    edges = np.array([0.0, 2.0, 3.0, 4.0, 5.0]) * math.pi
    centre = 0.5 * (edges[1] + edges[2])

    def f(t):
        if t < edges[1]:
            return 1e8 * math.sin(t)
        if t < edges[2]:
            return math.inf if t == centre else 1.0
        return abs(t - 3.3 * math.pi) ** 0.5

    sent = []

    def recorded(func, a, b):
        sent.append((a, b))
        return quad(func, a, b)

    pieces.QUAD_FLAGS.clear()
    monkeypatch.setattr(pieces, "quad", recorded)
    got = pieces.quad_segments(f, _pointwise(f), edges)
    segs = list(zip(edges.tolist(), edges[1:].tolist()))
    assert sent == segs[:3]
    assert pieces.QUAD_FLAGS[2] == 1
    assert [x.hex() for x in got] == [quad(f, a, b)[0].hex() for a, b in segs]
