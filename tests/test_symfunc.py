import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fourierineq import criteria, pieces
from fourierineq.pieces import StepFunction, TailSpec, log_quad
from fourierineq.rearrange import star
from fourierineq.symfunc import Asym, Cumulative, Divergence, SymFunc
from fourierineq.weights import NONDECREASING, WeightSpec


def test_power_integral_certificates():
    # t^{-1/2}: finite near 0, divergent tail, so total integral diverges
    f = SymFunc.power(1.0, Fraction(-1, 2))
    assert f.integral().is_infinite
    g = SymFunc.power(1.0, -2)
    assert g.integral().is_infinite  # diverges at 0 instead
    # (t^{-49})^{1/49} = t^{-1} on (0, 1) diverges however 1/49 is spelled
    h = SymFunc.from_step(StepFunction.from_cells(
        [0.0, 1.0], [1.0], lead=TailSpec.power(49)))
    for e in (1 / 49, Fraction(1, 49)):
        assert h.pow(e).integral().is_infinite


def test_antiderivative_of_power():
    # integral_0^t s^{-1/2} ds = 2 sqrt(t)
    f = SymFunc.power(1.0, Fraction(-1, 2))
    F = F0 = f.antiderivative()
    for t in [0.25, 1.0, 4.0, 100.0]:
        assert F(t) == pytest.approx(2.0 * math.sqrt(t), rel=1e-9)
    assert F0.tail.a == Fraction(1, 2)  # certified growth exponent


def test_antiderivative_divergent_head():
    f = SymFunc.power(1.0, -2)
    with pytest.raises(Divergence):
        f.antiderivative()


def test_tail_integral_of_power():
    # integral_t^inf s^{-2} ds = 1/t
    f = SymFunc.power(1.0, -2)
    G = f.tail_integral()
    for t in [0.5, 1.0, 3.0]:
        assert G(t) == pytest.approx(1.0 / t, rel=1e-9)
    with pytest.raises(Divergence):
        SymFunc.power(1.0, Fraction(-1, 2)).tail_integral()


def test_from_step_exact_cumulative():
    sf = StepFunction.from_cells([0, 1, 3], [2.0, 1.0])
    F = SymFunc.from_step(sf).antiderivative()
    assert F(0.5) == pytest.approx(1.0, abs=1e-14)
    assert F(2.0) == pytest.approx(3.0, abs=1e-14)
    assert F(10.0) == pytest.approx(4.0, abs=1e-14)
    G = SymFunc.from_step(sf).tail_integral()
    assert G(0.5) == pytest.approx(3.0, abs=1e-14)
    assert G(2.0) == pytest.approx(1.0, abs=1e-14)


def test_step_backed_totals_are_closed_form(monkeypatch):
    # U = integral_0^t 1_(0,1]: its far-end total is the step's closed-form
    # integral, with no quadrature
    calls = []
    real = pieces.quad
    monkeypatch.setattr(pieces, "quad",
                        lambda *args: calls.append(args) or real(*args))
    U = criteria.U_func(WeightSpec.indicator(1.0),
                        criteria.ExponentConfig(3, 2))
    assert calls == []
    assert U.tail == Asym(1.0) and U.tail.coef == 1.0
    sf = StepFunction.from_cells([0, 1, 3], [2.0, 1.0],
                                 lead=TailSpec.power(Fraction(1, 2)))
    G = SymFunc.from_step(sf).tail_integral()
    assert calls == []
    assert G.head.coef == sf.integrate().value


def test_from_step_with_power_tail():
    sf = StepFunction.from_cells([0, 1], [1.0, 1.0], tail=TailSpec.power(2))
    G = SymFunc.from_step(sf).tail_integral()
    # beyond 1 the tail integral is exactly 1/t
    assert G(2.0) == pytest.approx(0.5, rel=1e-10)
    assert G(0.5) == pytest.approx(0.5 + 1.0, rel=1e-10)


def test_sup_certificates():
    grow = SymFunc.power(1.0, Fraction(1, 2))
    assert grow.sup().is_infinite
    decay = SymFunc.power(1.0, Fraction(-1, 2))
    assert decay.sup().is_infinite  # blows up at 0
    bounded = SymFunc.from_step(StepFunction.from_cells([0, 1, 2], [1.0, 3.0]))
    s = bounded.sup()
    assert s.is_finite and s.value == pytest.approx(3.0)


def test_mul_pow_asymptotics():
    f = SymFunc.power(2.0, 1)
    g = SymFunc.power(3.0, -1)
    prod = f.mul(g)
    assert prod(5.0) == pytest.approx(6.0, rel=1e-12)
    sq = f.pow(2)
    assert sq(3.0) == pytest.approx(36.0, rel=1e-12)
    assert sq.tail.a == 2


def test_recip_arg():
    f = SymFunc.power(1.0, 2)  # t^2
    g = f.recip_arg()          # t^{-2}
    assert g(4.0) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert g.tail.a == -2


def test_asym_integrability():
    assert Asym(1.0, Fraction(-1, 2), 0).integrable(at_zero=True)
    assert not Asym(1.0, -1, 0).integrable(at_zero=True)
    assert Asym(1.0, -1, -2).integrable(at_zero=False)
    assert not Asym(1.0, -1, -1).integrable(at_zero=False)


# the per-end decisions the end rule replaced, kept as its reference
def _integrable_at_zero(asym):
    return (asym.coef == 0.0 or asym.a > -1
            or (asym.a == -1 and asym.b < -1))


def _integrable_at_inf(asym):
    return (asym.coef == 0.0 or asym.a < -1
            or (asym.a == -1 and asym.b < -1))


def _limit_at_zero(asym):
    if asym.coef == 0.0 or asym.a > 0 or (asym.a == 0 and asym.b < 0):
        return 0.0
    if asym.a < 0 or asym.b > 0:
        return math.inf
    return asym.coef


def _limit_at_inf(asym):
    if asym.coef == 0.0 or asym.a < 0 or (asym.a == 0 and asym.b < 0):
        return 0.0
    if asym.a > 0 or asym.b > 0:
        return math.inf
    return asym.coef


REFERENCE = {True: (_integrable_at_zero, _limit_at_zero),
             False: (_integrable_at_inf, _limit_at_inf)}
HALVES = [Fraction(k, 2) for k in range(-6, 3)]  # -3, -5/2, ..., 1


@pytest.mark.parametrize("a", HALVES)
def test_end_rule_matches_the_per_end_reference(a):
    for b in HALVES:
        for coef in (0.0, 2.5):
            term = Asym(coef, a, b)
            for at_zero, (integrable, limit) in REFERENCE.items():
                assert term.integrable(at_zero) == integrable(term)
                assert term.limit(at_zero) == limit(term)
            if coef and (a, b) == (-1, -1):
                with pytest.raises(Divergence):
                    term.integrated()
            elif coef:
                out = term.integrated()
                assert isinstance(out.coef, float) and out.coef > 0.0
                if a != -1:
                    assert (out.a, out.b) == (a + 1, b)
                    assert out.coef == coef / abs(a + 1)
                else:
                    assert (out.a, out.b) == (0, b + 1)
                    assert out.coef == coef / abs(b + 1)


def test_tail_integral_head_of_a_log_growth_is_positive():
    # f = 1/t on (0, 1], t**-2 beyond: T(t) = log(1/t) + 1 for t <= 1
    f = StepFunction([pieces.Piece(0.0, 1.0, 0.0, 1.0, 0.0, -1),
                      pieces.Piece(1.0, math.inf, 0.0, 1.0, 0.0, -2)])
    T = SymFunc.from_step(f).tail_integral()
    assert T.head == Asym(1.0, 0, 1)
    ratios = []
    for t in (1e-9, 1e-30, 1e-100):
        term = T.head.coef * math.log(1.0 / t) ** float(T.head.b)
        assert T(t) == pytest.approx(term + 1.0, rel=1e-12)
        ratios.append(T(t) / term)
    assert ratios == sorted(ratios, reverse=True) and ratios[-1] < 1.005
    root = T.pow(Fraction(1, 2)).head
    assert isinstance(root.coef, float) and root.coef == 1.0


def test_sup_of_a_shifted_first_piece():
    # f = 0.5 on (0, 1], 1 + 0.1 t**-2 on (1, 2], 0 beyond: star(f) starts
    # with the shifted piece 1 + 0.1 (t + 1)**-2, whose limit at 0 is 1.1
    f = StepFunction([pieces.Piece(0.0, 1.0, 0.5),
                      pieces.Piece(1.0, 2.0, 1.0, 0.1, 0.0, -2),
                      pieces.Piece(2.0, math.inf)])
    fs = star(f)
    assert fs.pieces[0].shift < 0.0
    assert SymFunc.from_step(fs).head == Asym(1.1)
    assert SymFunc.from_step(fs).sup().value == pytest.approx(1.1, rel=1e-12)
    assert fs.essential_sup().value == pytest.approx(1.1, rel=1e-12)


# mpmath: integral_1^inf dt / (t log(e+t)**(3/2)), and from 10 instead
LOG_END_T1 = 2.2975656105992071
LOG_END_T10 = 1.2950990460012571


def test_log_power_tail_beyond_exp_overflow():
    # t**-1 log**-3/2 still holds 3% of its integral beyond t = e**709.78,
    # where log_quad's e**u overflows
    T = SymFunc.power(1.0, -1, Fraction(-3, 2)).tail_integral()
    assert T(1.0) == pytest.approx(LOG_END_T1, rel=1e-10)
    assert T(10.0) == pytest.approx(LOG_END_T10, rel=1e-10)


def test_log_power_head_beyond_exp_underflow():
    # the same integrals mirrored by t -> 1/t: a head t**-1 log(1/t)**-3/2
    f = SymFunc(lambda t: 1.0 / (t * math.log(math.e + 1.0 / t) ** 1.5),
                Asym(1.0, -1, Fraction(-3, 2)), Asym(1.0, -1, 0), (1.0,))
    U = f.antiderivative()
    assert U(1.0) == pytest.approx(LOG_END_T1, rel=1e-10)
    assert U(0.1) == pytest.approx(LOG_END_T10, rel=1e-10)


def test_sup_sees_a_maximum_at_a_knot():
    # min(t, 1/t) peaks at its kink t = 1, between the scan's samples
    kink = SymFunc.from_step(StepFunction([
        pieces.Piece(0.0, 1.0, 0.0, 1.0, 0.0, 1),
        pieces.Piece(1.0, math.inf, 0.0, 1.0, 0.0, -1)]))
    assert kink.sup().value == 1.0


def test_sup_sees_the_left_limit_at_a_jump():
    # t on (0, 1], 0 beyond: the value at the knot is the right side's 0,
    # and the scan's samples stop short of 1
    ramp = SymFunc.from_step(StepFunction([pieces.Piece(0.0, 1.0, 0.0, 1.0,
                                                        0.0, 1)]))
    assert ramp.sup().value == pytest.approx(1.0, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# sweep-tabulated cumulative integrals on the pinned deep-quadrature configs
# ---------------------------------------------------------------------------

# (v, p, q, governing constant pinned in bench/oracle.py) for u = ind(1)
PINNED = {
    "III": (Fraction(1, 2), 3, 1, 2.73676007331062),
    "IV": (Fraction(3, 4), math.inf, 1, 3.3957851450627903),
    "V": (Fraction(1, 4), Fraction(3, 2), Fraction(1, 2), 1.3865871452054561),
}
# integrand evaluations of one evaluate(), scalar ones through pieces.quad
# plus array nodes through the segment rule pieces.quad_segments;
# tabulating the cumulatives point by point costs 2.73M (III) and 2.22M (V)
EVAL_BUDGET = {"III": 400_000, "V": 200_000}
# the scalar ones alone: 129k (III) and 58k (V) with one quad per sweep
# segment, 43k and 15k once the segment rule accepts most segments
SCALAR_BUDGET = {"III": 60_000, "V": 25_000}
# nonzero QUADPACK flags of one evaluate(), by ier: roundoff (2) and the
# subdivision limit (1) on log_quad heads over (-inf, 0] in u = log t
QUAD_FLAGS = {"III": {2: 2}, "IV": {2: 1}, "V": {2: 1, 1: 1}}


def _pointwise_reference(cum: Cumulative, t: float) -> float:
    """The cumulative integral at t computed on its own, the reference
    for the sweep: one adaptive quadrature from the nearest anchor on the
    fixed side toward t."""
    fn, ks, vals = cum.fn, cum.anchors, cum.values
    t = 1.0 / t if cum.recip else t

    def seg(a: float, b: float) -> float:
        if b > 8.0 * a:
            return log_quad(fn, a, b)
        return pieces.quad(fn, a, b)[0]

    if cum.from_left:
        i = bisect.bisect_right(ks, t) - 1
        return log_quad(fn, 0.0, t) if i < 0 else vals[i] + seg(ks[i], t)
    i = bisect.bisect_left(ks, t)
    if i >= len(ks):
        return log_quad(fn, t, math.inf)
    return vals[i] + seg(t, ks[i])


@pytest.fixture(scope="module")
def pinned_runs():
    """Per pinned config: the report of one evaluate(), every sweep it
    made (the cumulative as it was before the sweep, the grid and the
    values), its integrand evaluations (scalar ones through pieces.quad,
    array nodes through pieces.quad_segments) and its QUADPACK flags."""
    runs = {}
    for name, (g, p, q, _pin) in PINNED.items():
        swept, evals = [], {"scalar": 0, "array": 0}
        sweep, quad = Cumulative.sweep, pieces.quad
        segments = pieces.quad_segments

        def recording(self, ts):
            vals, cum = sweep(self, ts)
            swept.append((self, ts, vals))
            return vals, cum

        def counted(f, a, b):
            def g(x):
                evals["scalar"] += 1
                return f(x)
            return quad(g, a, b)

        def counted_nodes(f, at, edges):
            def nodes(ts):
                evals["array"] += len(ts)
                return at(ts)
            return segments(f, nodes, edges)

        pieces.QUAD_FLAGS.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Cumulative, "sweep", recording)
            mp.setattr(pieces, "quad", counted)
            mp.setattr(pieces, "quad_segments", counted_nodes)
            rep = criteria.evaluate(
                WeightSpec.indicator(1.0), WeightSpec.power(g, NONDECREASING),
                criteria.ExponentConfig(p, q))
        runs[name] = (rep, swept, evals, dict(pieces.QUAD_FLAGS))
    return runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_governing_constants(pinned_runs, name):
    rep = pinned_runs[name][0]
    assert rep.holds is True
    assert rep.governing.value == pytest.approx(PINNED[name][3], rel=1e-6)


def _tight_sweep(cum: Cumulative, ts: np.ndarray) -> np.ndarray:
    """cum (not recip) on the increasing grid ts: the point value at the
    grid's end on the fixed side, plus the segments between consecutive
    grid points and knots, each integrated by scipy's quad to relative
    accuracy 1e-12 with no absolute tolerance."""
    edges = sorted(set(ts.tolist()).union(
        k for k in cum.anchors if ts[0] < k < ts[-1]))
    parts = [quad(cum.fn, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
             for a, b in zip(edges, edges[1:])]
    if cum.from_left:
        run = np.cumsum([cum(edges[0]), *parts])
    else:
        run = np.cumsum([cum(edges[-1]), *parts[::-1]])[::-1]
    return run[np.searchsorted(edges, ts)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sweep_matches_pointwise_cumulatives(pinned_runs, name):
    swept = pinned_runs[name][1]
    assert swept  # C6, C7 and C9 each tabulate a quadrature cumulative
    for cum, ts, vals in swept:
        assert len(vals) == len(ts) and (vals >= 0).all()
        # the per-point routine is itself only this accurate: one adaptive
        # quad across up to 8 decades of a tabulated integrand with a kink
        # at every grid point stops short of its tolerance (QUADPACK
        # detects roundoff), up to 6e-7 off on III against the tight sums
        # below
        for j in [*range(0, len(ts), 97), len(ts) - 1]:
            ref = _pointwise_reference(cum, float(ts[j]))
            assert vals[j] == pytest.approx(ref, rel=1e-6, abs=0.0)
        # a running sum's error is absolute, on the scale of its total:
        # where the integral falls to 0 at the support's end it is the
        # relative error that grows (to 1.5e-9 on V)
        if not cum.recip:  # a recip sweep is its reciprocal's, reversed
            np.testing.assert_allclose(vals, _tight_sweep(cum, ts),
                                       rtol=1e-10, atol=1e-10 * vals.max())


@pytest.mark.parametrize("name", sorted(EVAL_BUDGET))
def test_nested_quadrature_evaluation_budget(pinned_runs, name):
    evals = pinned_runs[name][2]
    assert evals["array"] > 0  # the sweeps go through the segment rule
    assert evals["scalar"] + evals["array"] < EVAL_BUDGET[name]
    assert evals["scalar"] < SCALAR_BUDGET[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quadpack_flags_are_counted(pinned_runs, name):
    assert pinned_runs[name][3] == QUAD_FLAGS[name]


def test_no_quadpack_flags_in_regime_ii():
    pieces.QUAD_FLAGS.clear()
    rep = criteria.evaluate(
        WeightSpec.indicator(1.0), WeightSpec.power(Fraction(1, 4),
                                                    NONDECREASING),
        criteria.ExponentConfig(3, 2))
    assert rep.regime == criteria.REGIME_II
    assert not pieces.QUAD_FLAGS


def test_recip_sweep_is_the_sweep_on_the_reciprocal_grid():
    # T(x) = integral_x^inf s^-2 ds = 1/x, so T(1/t) = t
    T = SymFunc.power(1.0, -2).tail_integral()
    R = T.recip_arg()
    assert isinstance(R.fn, Cumulative) and R.fn.recip
    tab = R.tabulated(n=257, pad=1e3)
    for t in (2e-3, 0.37, 1.0, 5.5, 900.0):
        assert tab(t) == pytest.approx(t, rel=1e-9)
    # beyond the window the copy integrates from the nearest grid anchor
    assert tab(1e5) == pytest.approx(1e5, rel=1e-9)
    assert tab(1e-5) == pytest.approx(1e-5, rel=1e-9)


# ---------------------------------------------------------------------------
# the array evaluator at, against fn
# ---------------------------------------------------------------------------


def _at_family() -> dict[str, SymFunc]:
    """A SymFunc from every constructor that builds an array evaluator,
    with zero cells (step), infinite cells (its negative power) and nan
    (their product, 0 * inf)."""
    step = SymFunc.from_step(StepFunction.from_cells(
        [0.0, 0.5, 2.0, 5.0], [3.0, 0.0, 1.5, 0.8], tail=TailSpec.power(2)))
    shifted = SymFunc.from_step(StepFunction([
        pieces.Piece(0.0, 1.0, 0.5, 1.0, 0.0, Fraction(1, 3)),
        pieces.Piece(1.0, 3.0, 0.0, 2.0, 0.5, -1),
        pieces.Piece(3.0, math.inf, 0.0, 1.0, 1.0, Fraction(-5, 2))]))
    power = SymFunc.power(2.0, Fraction(-3, 2), Fraction(1, 2))
    return {
        "power": power,
        "constant": SymFunc.constant(1.7),
        "from_step": step,
        "from_step shifted": shifted,
        "mul": power.mul(step),
        "add": power.add(step),
        "pow": step.pow(Fraction(-1, 3)),
        "pow of power": power.pow(Fraction(5, 2)),
        "0 * inf": step.mul(step.pow(-1)),
        "recip_arg": power.mul(step).recip_arg(),
        "tabulated": power.mul(shifted).tabulated(n=257, pad=1e3),
        "tabulated with zeros": power.mul(step).tabulated(n=257, pad=1e3),
        "tabulated cumulative": power.add(shifted).tail_integral()
        .tabulated(n=257, pad=1e3),
        "tabulated recip cumulative": power.add(shifted).tail_integral()
        .recip_arg().tabulated(n=257, pad=1e3),
        "step antiderivative": shifted.antiderivative(),
        "step tail integral": step.tail_integral(),
        "step antiderivative, infinite cells": step.pow(-1).antiderivative(),
        "running_sup_from": SymFunc.power(1.0, Fraction(1, 2)).mul(step)
        .running_sup_from(),
        "running_sup_from shifted": SymFunc.power(1.0, Fraction(1, 2))
        .mul(shifted).running_sup_from(),
    }


AT_FAMILY = _at_family()
# knots of the family, the tabulated window's ends (1e-3, 5e3) and
# points beyond it, and the running sups' last sample (5e8) and beyond
AT_POINTS = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 1e-3, 5e3, 2e-4, 1e5, 5e8,
                      1e9, 3e11])


def _assert_at_is_fn(f: SymFunc, ts: np.ndarray) -> None:
    got = f.at(ts)
    want = np.array([f.fn(float(t)) for t in ts])
    assert got.shape == want.shape
    for special in (np.isnan, np.isinf, lambda x: x == 0.0):
        np.testing.assert_array_equal(special(got), special(want))
    ok = np.isfinite(want) & (want != 0.0)
    np.testing.assert_allclose(got[ok], want[ok], rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("name", sorted(AT_FAMILY))
def test_at_agrees_with_fn_at_knots_and_beyond(name):
    ts = np.concatenate([AT_POINTS, np.nextafter(AT_POINTS, 0.0)])
    _assert_at_is_fn(AT_FAMILY[name], ts)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40))
def test_at_agrees_with_fn(log_ts):
    ts = 10.0 ** np.array(log_ts)
    for f in AT_FAMILY.values():
        _assert_at_is_fn(f, ts)


def test_at_family_has_zero_infinite_and_nan_cells():
    ts = np.array([1.0])  # inside the zero cell (0.5, 2) of the step
    assert AT_FAMILY["from_step"].at(ts)[0] == 0.0
    assert AT_FAMILY["pow"].at(ts)[0] == math.inf
    assert math.isnan(AT_FAMILY["0 * inf"].at(ts)[0])
    assert AT_FAMILY["step antiderivative, infinite cells"].at(ts)[0] == (
        math.inf)
