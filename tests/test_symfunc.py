import bisect
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fourierineq import criteria, pieces, symfunc
from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.rearrange import star
from fourierineq.symfunc import Asym, Cumulative, Divergence, SymFunc
from fourierineq.weights import NONDECREASING, WeightSpec

from conftest import random_power_step


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
    real = pieces.first_stage
    monkeypatch.setattr(pieces, "first_stage",
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


def test_integral_of_a_step_backed_function_is_closed_form(monkeypatch):
    # the two norms of degenerate_constant for u = ind(1) and the table
    # weight v = 2 on (0, 2), 2 t beyond: ||u||_2**2 read 1.0000000000000002
    # by quadrature; with the step's closed form no quadrature runs
    calls = []
    stage = pieces.first_stage
    monkeypatch.setattr(pieces, "first_stage",
                        lambda *a: calls.append(a) or stage(*a))
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.from_table(StepFunction.from_cells(
        [0.0, 2.0], [2.0, 2.0], tail=TailSpec.power(-1)), NONDECREASING)
    assert criteria.ustar_sym(u, 2).integral().value == 1.0
    # integral of v_*(t)**-2: 1/4 on (0, 2) and (2t)**-2 beyond
    assert criteria._vstar_sym(v, -2).integral().value == 0.625
    for p, q, exact in [(2, math.inf, math.sqrt(0.625)), (1, 2, 0.5)]:
        rep = criteria.evaluate(u, v, criteria.ExponentConfig(p, q))
        assert rep.governing.value == exact
    assert calls == []


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


# 1/f for a step f with a zero cell (1, 2): both ends finite, inf inside
# the cell
GAP = SymFunc.from_step(StepFunction.from_cells(
    [0, 1, 2, 3], [1.0, 0.0, 2.0, 2.0], tail=TailSpec.power(0))).pow(-1)


def _without_step(f: SymFunc) -> SymFunc:
    """f with no ``step``, so that its sup is the scan of its ``at``."""
    return SymFunc(f.head, f.tail, f.knots, at=f.at)


def test_sup_is_infinite_where_a_scan_sample_is():
    # GAP without its step: the scan reads inf inside the cell
    gap = _without_step(GAP)
    assert math.isfinite(gap.head.limit(True))
    assert math.isfinite(gap.tail.limit(False))
    s = gap.sup()
    assert s.is_infinite and "scan" in s.reason


def test_exact_sup_names_the_infinite_piece():
    s = GAP.sup()
    assert s.is_infinite and "(1, 2)" in s.reason


@pytest.mark.parametrize("a", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                               Fraction(3, 4), Fraction(5, 3)])
def test_sup_of_a_cut_power_is_its_left_limit(a):
    # t**a on (0, hi), 0 beyond: the sup is hi**a, the left limit at hi;
    # the scan, a lower estimate, read below it on 15 of these 25
    for hi in (0.7, 2.0, 3.0, 5.5, 10.0):
        f = SymFunc.from_step(StepFunction([pieces.Piece(0.0, hi, 0.0, 1.0,
                                                         0.0, a)]))
        assert f.sup().value == hi ** float(a)


def test_exact_sup_past_the_floats_range_is_infinite():
    # t**2 on (0, 1e200) passes the floats' range before its end, where
    # Python's power raises OverflowError; the scan read inf there too
    f = SymFunc.from_step(StepFunction([pieces.Piece(0.0, 1e200, 0.0, 1.0,
                                                     0.0, 2)]))
    assert f.sup().is_infinite
    assert _without_step(f).sup().is_infinite


def test_exact_sup_reads_no_samples(monkeypatch):
    # the sup of a step-backed function reads its step alone
    def fail(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(symfunc, "scan_max", fail)
    step = SymFunc.from_step(STEP)
    f = step.mul(step.pow(Fraction(1, 2)))
    assert f.step is not None
    blind = SymFunc(f.head, f.tail, f.knots, f.step, at=fail)
    assert blind.sup().value == pytest.approx(3.0 * math.sqrt(3.0),
                                              rel=1e-15)


_EXPS = [None, Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_EXPS),
       st.sampled_from(_EXPS),
       st.sampled_from([Fraction(-1), Fraction(-1, 3), Fraction(1, 2),
                        Fraction(5, 2)]))
def test_exact_sup_is_the_scan_or_above_it(seed, tail, lead, e):
    # random power steps, their products and powers: the exact sup reads
    # the same state as the scans, and where finite at least the scan of
    # the step's own point values (a lower estimate of the same formulas)
    # and within 1e-12 of the scan of ``at``, which rounds a power or a
    # product along another route (up to 3 ulp above the step's values)
    rng = np.random.default_rng(seed)
    f, g = (SymFunc.from_step(random_power_step(
        rng, int(rng.integers(1, 6)), tail, lead)) for _ in range(2))
    for h in (f, f.mul(g), f.pow(e), f.mul(g).pow(e)):
        assert h.step is not None
        exact, scan = h.sup(), _without_step(h).sup()
        own = SymFunc(h.head, h.tail, h.knots, at=lambda ts, sf=h.step:
                      np.array([sf(t) for t in ts.tolist()])).sup()
        assert exact.state == own.state == scan.state
        if exact.is_finite:
            assert exact.value >= own.value
            assert exact.value == pytest.approx(scan.value, rel=1e-12,
                                                abs=0.0)


def test_negative_power_of_a_vanishing_end_is_infinite():
    # ind(1) vanishes on (1, inf), so its power -1 is inf there, as
    # np.power reads 0**-1 on the array
    inv = SymFunc.from_step(StepFunction.indicator(1.0)).pow(-1)
    assert inv.tail.coef == math.inf
    assert not inv.tail.integrable(at_zero=False)
    assert inv.at(np.array([0.5, 2.0])).tolist() == [1.0, math.inf]
    assert Asym(0.0, 1, 0).pow(Fraction(-1, 2)).coef == math.inf


def test_an_infinite_end_term_is_not_integrable():
    # a function that vanishes on (0, 1) has a negative power that is inf
    # there: its head term inf * t**0 was integrable by the exponent alone,
    # and the antiderivative read inf everywhere without Divergence
    for a in (Fraction(-2), Fraction(0), Fraction(3)):
        for at_zero in (True, False):
            assert not pieces.end_integrable(math.inf, a, 0, at_zero)
    vanishing = StepFunction.from_cells([0, 1], [0.0, 1.0],
                                        tail=TailSpec.power(0))
    inv = SymFunc.from_step(vanishing).pow(-2)
    assert inv.head.coef == math.inf
    with pytest.raises(Divergence):
        inv.antiderivative()


def test_an_infinite_end_term_is_unbounded():
    # 1/ind(1) times a function with the tail t**-1 is inf on (1, inf): its
    # tail term inf * t**-1 has the limit inf there, whatever its exponents,
    # so its sup names that term and its running sup is unbounded
    for a in (Fraction(-2), Fraction(0), Fraction(3)):
        for at_zero in (True, False):
            assert pieces.end_limit(math.inf, a, 0, at_zero) == math.inf
    tail = StepFunction.from_cells([0, 1], [1.0, 1.0],
                                   tail=TailSpec.power(1))
    f = SymFunc.from_step(StepFunction.indicator(1.0)).pow(-1).mul(
        SymFunc.from_step(tail))
    assert f.tail.coef == math.inf
    s = f.sup()
    assert s.is_infinite and "unbounded at inf" in s.reason
    with pytest.raises(Divergence):
        f.running_sup_from()


def test_mul_pow_asymptotics():
    f = SymFunc.power(2.0, 1)
    g = SymFunc.power(3.0, -1)
    prod = f.mul(g)
    assert prod(5.0) == pytest.approx(6.0, rel=1e-12)
    sq = f.pow(2)
    assert sq(3.0) == pytest.approx(36.0, rel=1e-12)
    assert sq.tail.a == 2


def _recorded(f: SymFunc, seen: list) -> SymFunc:
    """f, with every array its ``at`` receives appended to seen."""
    def at(ts):
        seen.append(ts.copy())
        return f.at(ts)
    return SymFunc(f.head, f.tail, f.knots, at=at)


def test_mul_evaluates_the_second_factor_only_where_the_first_is_not_0():
    step = SymFunc.from_step(STEP)  # 0 on (0.5, 2)
    power = AT_FAMILY["power"]
    ts = np.geomspace(1e-3, 1e3, 101)
    fs = step.at(ts)
    seen = []
    got = step.mul(_recorded(power, seen)).at(ts)
    asked = np.concatenate(seen)
    assert (step.at(asked) != 0.0).all()
    np.testing.assert_array_equal(asked, ts[fs != 0.0])
    np.testing.assert_array_equal(
        got, np.where(fs == 0.0, 0.0, fs * power.at(ts)))
    # where the first factor vanishes at every point, the second is not
    # evaluated at all; where it vanishes nowhere, at every point at once
    seen.clear()
    zero = ts[(ts > 0.5) & (ts < 2.0)]
    assert (step.mul(_recorded(step, seen)).at(zero) == 0.0).all()
    assert seen == []
    power.mul(_recorded(step, seen)).at(ts)
    assert len(seen) == 1 and (seen[0] == ts).all()


def test_recip_arg():
    f = SymFunc.power(1.0, 2)  # t^2
    g = f.pow_arg(-1)          # t^{-2}
    assert g(4.0) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert g.tail.a == -2


def test_pow_arg_minus_one_reads_f_at_one_over_t_bit_for_bit():
    f = SymFunc.from_step(STEP).antiderivative()  # a StepCumulative's at
    g = f.pow_arg(-1)
    ts = np.geomspace(1e-6, 1e6, 501)
    np.testing.assert_array_equal(g.at(ts), f.at(1.0 / ts))
    assert g.knots == tuple(sorted(1.0 / x for x in f.knots))
    for mine, its in ((g.head, f.tail), (g.tail, f.head)):
        assert mine == Asym(its.coef, -its.a, its.b)


def test_pow_arg_scales_the_end_terms():
    # f(t**3) for f = 2 t**-1 log(e+t)**2: 2 t**-3 (3 log t)**2 at inf
    g = SymFunc.power(2.0, -1, 2).pow_arg(3)
    assert g.tail == Asym(18, -3, 2) and g.head == Asym(2.0, -3, 0)
    t = 1e40
    assert g(t) == pytest.approx(18 * t ** -3 * math.log(t) ** 2, rel=1e-12)
    # one term c t**a on all of (0, inf) keeps its step: c t**(a k)
    h = SymFunc.from_step(StepFunction.power(3.0, 2)).pow_arg(Fraction(1, 2))
    assert h.step is not None and h.step(4.0) == pytest.approx(0.75)


def test_running_sup_never_reads_below_f():
    # h(y) = y**(r/2) V(y)**(-r/p) of C9 for ind(1) against pow(1/4) at
    # (p, q) = (3/2, 1/2), which goes like 1.17 t**(-5/16) at both ends
    cfg = criteria.ExponentConfig(Fraction(3, 2), Fraction(1, 2))
    r, p = cfg.r, cfg.p
    V = criteria._vstar_sym(WeightSpec.power(Fraction(1, 4), NONDECREASING),
                            p).antiderivative()
    h = SymFunc.power(1.0, r / 2).mul(V.tabulated().pow(-r / p))
    S = h.running_sup_from()
    # h is unbounded at 0 and tends to 0 at inf: S ~ h at both ends
    assert S.head == h.head and S.tail == h.tail
    samples = S.kinks
    below = np.geomspace(samples[0] / 1e6, samples[0], 13, endpoint=False)
    for xs in (samples, below):
        assert (S.at(xs) >= h.at(xs)).all()
    np.testing.assert_array_equal(S.at(below), h.at(below))


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


# mpmath: integral_1^inf dt / (t log(e+t)**(3/2)), and from 10 instead
LOG_END_T1 = 2.2975656105992071
LOG_END_T10 = 1.2950990460012571


def test_log_power_tail_beyond_exp_overflow():
    # t**-1 log**-3/2 still holds 3% of its integral beyond t = e**709.78,
    # where e**u overflows
    T = SymFunc.power(1.0, -1, Fraction(-3, 2)).tail_integral()
    assert T(1.0) == pytest.approx(LOG_END_T1, rel=1e-10)
    assert T(10.0) == pytest.approx(LOG_END_T10, rel=1e-10)


def test_log_power_head_beyond_exp_underflow():
    # the same integrals mirrored by t -> 1/t: a head t**-1 log(1/t)**-3/2
    f = SymFunc(Asym(1.0, -1, Fraction(-3, 2)), Asym(1.0, -1, 0), (1.0,),
                at=lambda ts: 1.0 / (ts * np.log(math.e + 1.0 / ts) ** 1.5))
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
# anchored cumulative integrals on the pinned deep-quadrature configs
# ---------------------------------------------------------------------------

# (v, p, q, governing constant pinned in bench/oracle.py) for u = ind(1)
PINNED = {
    "III": (Fraction(1, 2), 3, 1, 2.73676007331062),
    "IV": (Fraction(3, 4), math.inf, 1, 3.3957851450627903),
    "V": (Fraction(1, 4), Fraction(3, 2), Fraction(1, 2), 1.3865871452054561),
}
# integrand evaluations of one evaluate(): array nodes through
# pieces.first_stage (the graded cells of the integrals and of
# Cumulative.at), and before that scalar ones through QUADPACK too;
# tabulating the cumulatives point by point costs 2.73M (III) and 2.22M
# (V), the segment rule with one QUADPACK integral over each outer head
# 129k and 58k, the outer integrals cell by cell 171k and 113k, graded
# cells 155k and 100k, and 152k and 100k once a product skips its second
# factor where the first reads 0
EVAL_BUDGET = {"III": 155_000, "V": 102_000}
# pieces.first_stage calls of the cells of the outer integrals (between
# their outermost kinks) of one evaluate(); counted over the whole evaluate,
# 126 (III), 16 (IV) and 42 (V) with cells halved in u = log t, where the
# cell before u*'s support end took about 12 levels, and 12, 5 and 9 with
# graded cells
STAGE_BUDGET = {"III": 15, "IV": 7, "V": 12}
# pieces.first_stage calls of one whole evaluate(), the nested cumulatives'
# Cumulative.at and the ends' end_quad included: 59 (III), 15 (IV) and 19
# (V) while a product evaluated its second factor where the first read 0,
# 23, 11 and 16 since it does not
ALL_STAGE_BUDGET = {"III": 25, "IV": 12, "V": 17}
# cells of quad_cells that stopped open ("limit" or "roundoff") in one
# evaluate(): none
QUAD_FLAGS = {"III": {}, "IV": {}, "V": {}}


def _point(f_at):
    """An array evaluator at one point, for scipy's quad."""
    return lambda t: float(f_at(np.array([t]))[0])


def _pointwise_reference(cum: Cumulative, t: float) -> float:
    """The cumulative integral at t computed on its own, the reference
    for the anchored values: the anchor on the fixed side plus the integral
    from it (or from the end) to t, by scipy's quad of its integrand in
    u = log t to relative accuracy 1e-12."""
    g, ks, vals = _log_t(_point(cum.f_at)), cum.anchors, cum.values

    def seg(a: float, b: float) -> float:
        # quad flags roundoff across the kinks of a tabulated integrand
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    if cum.from_left:
        i = bisect.bisect_right(ks, t) - 1
        if i < 0:
            return seg(-math.inf, math.log(t))
        return vals[i] + seg(math.log(ks[i]), math.log(t))
    i = bisect.bisect_left(ks, t)
    if i >= len(ks):
        return seg(math.log(t), math.inf)
    return vals[i] + seg(math.log(t), math.log(ks[i]))


@pytest.fixture(scope="module")
def pinned_runs():
    """Per pinned config: the report of one evaluate(), every cumulative
    it anchored (the cumulative as it was before ``SymFunc.anchored``, the
    grid and the anchored function's values there), its integrand
    evaluations (array nodes through pieces.first_stage, the first_stage
    calls of the cells of its outer integrals, and all its first_stage
    calls), the cells that stopped open (``pieces.QUAD_FLAGS``) and every
    integral over (0, inf) of a function with kinks (the function and the
    value)."""
    runs = {}
    for name, (g, p, q, _pin) in PINNED.items():
        swept, outer = [], []
        evals = {"array": 0, "stages": 0, "all_stages": 0}
        anchored = SymFunc.anchored
        stage, integral = pieces.first_stage, SymFunc.integral
        log_cells, quad_cells = pieces.log_cells, pieces.quad_cells
        # in an outer integral's log_cells, and quad_cells calls open
        state = {"outer": False, "cells": False, "depth": 0}

        def recording(self, ts):
            out = anchored(self, ts)
            if out is not self:  # a quadrature cumulative
                swept.append((self.at.__self__, ts, out.at(ts)))
            return out

        def recorded(self):
            if not len(self.kinks):
                return integral(self)
            state["outer"] = True
            try:
                value = integral(self)
            finally:
                state["outer"] = False
            outer.append((self, value))
            return value

        def outer_cells(*args):
            state["cells"] = state["outer"] and not state["depth"]
            try:
                return log_cells(*args)
            finally:
                state["cells"] = False

        def nested(*args):
            state["depth"] += 1
            try:
                return quad_cells(*args)
            finally:
                state["depth"] -= 1

        def counted_nodes(at, a, b):
            # the outer cells' own stages: the whole range tried as one
            # cell, and the passes of their quad_cells call
            if state["cells"] and state["depth"] <= 1:
                evals["stages"] += 1
            evals["all_stages"] += 1

            def nodes(ts):
                evals["array"] += len(ts)
                return at(ts)
            return stage(nodes, a, b)

        pieces.QUAD_FLAGS.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SymFunc, "anchored", recording)
            mp.setattr(pieces, "first_stage", counted_nodes)
            mp.setattr(pieces, "log_cells", outer_cells)
            mp.setattr(pieces, "quad_cells", nested)
            mp.setattr(SymFunc, "integral", recorded)
            rep = criteria.evaluate(
                WeightSpec.indicator(1.0), WeightSpec.power(g, NONDECREASING),
                criteria.ExponentConfig(p, q))
        runs[name] = (rep, swept, evals, dict(pieces.QUAD_FLAGS), outer)
    return runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_governing_constants(pinned_runs, name):
    rep = pinned_runs[name][0]
    assert rep.holds is True
    assert rep.governing.value == pytest.approx(PINNED[name][3], rel=1e-6)


def _tight_sweep(cum: Cumulative, ts: np.ndarray) -> np.ndarray:
    """cum on the increasing grid ts: the value at the grid's
    end on the fixed side, plus the segments between consecutive grid
    points and knots, each integrated in u = log t by ``_tight_cells``."""
    edges = sorted(set(ts.tolist()).union(
        k for k in cum.anchors if ts[0] < k < ts[-1]))
    us = np.log(edges)
    parts = _tight_cells(cum.f_at, us[:-1], us[1:])
    if cum.from_left:
        run = np.cumsum([cum.at(np.array(edges[:1]))[0], *parts])
    else:
        run = np.cumsum([cum.at(np.array(edges[-1:]))[0], *parts[::-1]])[::-1]
    return run[np.searchsorted(edges, ts)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sweep_matches_pointwise_cumulatives(pinned_runs, name):
    swept = pinned_runs[name][1]
    assert swept  # C6, C7 and C9 each tabulate a quadrature cumulative
    for cum, ts, vals in swept:
        assert len(vals) == len(ts) and (vals >= 0).all()
        # against one adaptive quad of scipy per point, across up to 8
        # decades of a tabulated integrand with a kink at every grid point
        for j in [*range(0, len(ts), 97), len(ts) - 1]:
            ref = _pointwise_reference(cum, float(ts[j]))
            assert vals[j] == pytest.approx(ref, rel=1e-6, abs=0.0)
        # a running sum's error is absolute, on the scale of its total:
        # where the integral falls to 0 at the support's end it is the
        # relative error that grows (to 1.5e-9 on V)
        np.testing.assert_allclose(vals, _tight_sweep(cum, ts),
                                   rtol=1e-10, atol=1e-10 * vals.max())


@pytest.mark.parametrize("name", sorted(EVAL_BUDGET))
def test_nested_quadrature_evaluation_budget(pinned_runs, name):
    evals = pinned_runs[name][2]
    assert evals["array"] > 0  # Cumulative.at and cells run first_stage
    assert evals["array"] < EVAL_BUDGET[name]


@pytest.mark.parametrize("name", sorted(STAGE_BUDGET))
def test_outer_integrals_pass_in_few_stages(pinned_runs, name):
    assert pinned_runs[name][2]["stages"] <= STAGE_BUDGET[name]


@pytest.mark.parametrize("name", sorted(ALL_STAGE_BUDGET))
def test_evaluate_passes_in_few_stages(pinned_runs, name):
    assert pinned_runs[name][2]["all_stages"] <= ALL_STAGE_BUDGET[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quadpack_flags_are_counted(pinned_runs, name):
    assert pinned_runs[name][3] == QUAD_FLAGS[name]


def _log_t(f):
    """f(t) dt in u = log t, reading 0 where e**u or f under- or
    overflows."""
    def g(u):
        t = math.exp(u) if u < 709.0 else math.inf
        try:
            v = f(t) * t if 0.0 < t < math.inf else 0.0
        except OverflowError:
            return 0.0
        return v if math.isfinite(v) else 0.0
    return g


GL = {n: np.polynomial.legendre.leggauss(n) for n in (40, 80)}


def _tight_cells(f_at, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """integral of f (f_at: f on an array) over every cell (e**a[i],
    e**b[i]), in u = log t: by 40- and 80-point Gauss-Legendre where the two
    agree to 1e-13, else (a cell with a singular end) by scipy's quad of f
    at one point to relative accuracy 1e-12."""
    rules = []
    for x, wts in GL.values():
        us = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
        ts = np.exp(us).ravel()
        with np.errstate(all="ignore"):
            vals = (f_at(ts) * ts).reshape(us.shape)
        vals[~np.isfinite(vals)] = 0.0
        rules.append(0.5 * (b - a) * (vals @ wts))
    coarse, fine = rules
    g = _log_t(_point(f_at))
    out = fine.copy()
    for i in np.flatnonzero(~(np.abs(coarse - fine) <= 1e-13 * np.abs(fine))):
        # quad flags roundoff on the cell that ends at t = 1, where the
        # integrand drops to 0 (at the last 5.5e-17 of the cell in u)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            out[i] = quad(g, a[i], b[i], epsabs=0.0, epsrel=1e-12,
                          limit=200)[0]
    return out


def _tight_integral(f: SymFunc) -> float:
    """integral of f over (0, inf), cut at its knots and kinks, in u = log t:
    each cell between consecutive cuts by ``_tight_cells``, and the ends
    beyond the outermost cuts by scipy's quad of f to relative accuracy
    1e-12."""
    cuts = np.log(sorted({*f.knots, *f.kinks.tolist()}))
    g = _log_t(f)

    def tight(u0, u1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return quad(g, u0, u1, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    parts = [tight(-math.inf, cuts[0]), tight(cuts[-1], math.inf)]
    parts += _tight_cells(f.at, cuts[:-1], cuts[1:]).tolist()
    return math.fsum(parts)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outer_integrals_match_a_tight_reference(pinned_runs, name):
    # the outer integral of C6 (III), C7 (IV) and C9 (V): one QUADPACK
    # integral in log t over the head (0, 1), across 1024 tabulation kinks
    # (and V's 600 running-sup jumps), was 1.7e-7, 2.7e-8 and 3.6e-7 off
    outer = pinned_runs[name][4]
    assert outer
    f, value = outer[-1]
    assert value.is_finite
    assert value.value == pytest.approx(_tight_integral(f), rel=1e-10,
                                        abs=0.0)


def _iii_cumulatives():
    """The tail integral and the antiderivative of pinned III's inner
    weight w, anchored at their tabulation grid (and the knot 1, where u*
    and w fall to 0)."""
    cfg = criteria.ExponentConfig(3, 1)
    w = criteria.w_inner_weight(WeightSpec.indicator(1.0), cfg).tabulated()
    ts = np.geomspace(1e-8, 1e8, 2048)
    Tw = w.tail_integral().anchored(ts).at.__self__
    U = w.antiderivative().anchored(ts).at.__self__
    return {"from right": Tw, "from left": U}


CUMULATIVES = _iii_cumulatives()


@pytest.mark.parametrize("name", sorted(CUMULATIVES))
def test_cumulative_at_matches_its_point_values(name):
    cum = CUMULATIVES[name]
    rng = np.random.default_rng(11)
    # across the anchors, in the support-end cell (0.991, 1) and beyond
    # the anchors at both ends; within 1e-6 of 1 the reference is not
    # tight, as the nodes that round to t = 1, where w reads 0, cover
    # 5.5e-17 of the range
    xs = np.concatenate([10.0 ** rng.uniform(-8.0, 8.0, 40),
                         1.0 - rng.uniform(1e-4, 8.9e-3, 20),
                         1.0 - np.geomspace(1e-6, 1e-4, 4),
                         [1e-12, 3e-10, 1e9, 4e11]])
    got = cum.at(xs)
    ks = cum.anchors
    g = _log_t(_point(cum.f_at))
    for x, v in zip(xs.tolist(), got.tolist()):
        # the anchor on the fixed side plus the integral from x to it (or
        # from the end to x), in log t to relative accuracy 1e-12
        if cum.from_left:
            i = bisect.bisect_right(ks, x) - 1
            lo, hi = ((math.log(ks[i]), math.log(x)) if i >= 0
                      else (-math.inf, math.log(x)))
        else:
            i = bisect.bisect_left(ks, x)
            lo, hi = ((math.log(x), math.log(ks[i])) if i < len(ks)
                      else (math.log(x), math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            part = quad(g, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        want = part + (cum.values[i] if 0 <= i < len(ks) else 0.0)
        if ks[0] <= x <= ks[-1]:
            assert v == pytest.approx(want, rel=1e-9, abs=0.0)
        else:  # beyond the anchors: at quad's tolerances
            assert v == pytest.approx(want, rel=1.49e-8, abs=1.49e-8)


def test_no_quadpack_flags_in_regime_ii():
    pieces.QUAD_FLAGS.clear()
    rep = criteria.evaluate(
        WeightSpec.indicator(1.0), WeightSpec.power(Fraction(1, 4),
                                                    NONDECREASING),
        criteria.ExponentConfig(3, 2))
    assert rep.regime == criteria.REGIME_II
    assert not pieces.QUAD_FLAGS


def test_tabulated_recip_cumulative_reads_the_cumulative_at_one_over_t():
    # T(x) = integral_x^inf s^-2 ds = 1/x, so T(1/t) = t
    T = SymFunc.power(1.0, -2).tail_integral()
    tab = T.pow_arg(-1).tabulated(n=257, pad=1e3)
    for t in (2e-3, 0.37, 1.0, 5.5, 900.0):
        assert tab(t) == pytest.approx(t, rel=1e-9)
    # beyond the window the copy reads T itself, at 1/t
    assert tab(1e5) == pytest.approx(1e5, rel=1e-9)
    assert tab(1e-5) == pytest.approx(1e-5, rel=1e-9)


def test_anchored_cumulative_reads_its_sweep_at_the_grid():
    f = AT_FAMILY["power"].add(AT_FAMILY["from_step shifted"])
    T = f.tail_integral()
    ts = np.geomspace(min(T.knots) / 1e3, max(T.knots) * 1e3, 257)
    vals = T.at(ts)
    A = T.anchored(ts)
    anchored = A.at.__self__
    assert isinstance(anchored, Cumulative) and set(ts) <= set(
        anchored.anchors)
    assert (A.head, A.tail, A.knots) == (T.head, T.tail, T.knots)
    np.testing.assert_array_equal(A.at(ts), vals)
    # tabulated, on the same grid, interpolates between the same values
    tab = T.tabulated(n=257, pad=1e3)
    np.testing.assert_allclose(tab.at(ts[1:-1]), vals[1:-1], rtol=1e-15)
    assert f.anchored(ts) is f  # nothing to anchor


# ---------------------------------------------------------------------------
# the array evaluator at, against independent point references
# ---------------------------------------------------------------------------

STEP = StepFunction.from_cells([0.0, 0.5, 2.0, 5.0], [3.0, 0.0, 1.5, 0.8],
                               tail=TailSpec.power(2))
SHIFTED = StepFunction([
    pieces.Piece(0.0, 1.0, 0.5, 1.0, 0.0, Fraction(1, 3)),
    pieces.Piece(1.0, 3.0, 0.0, 2.0, 0.5, -1),
    pieces.Piece(3.0, math.inf, 0.0, 1.0, 1.0, Fraction(-5, 2))])
TAB = {"n": 257, "pad": 1e3}  # the tabulated members' grid
ANCHORS = np.geomspace(1e-3, 5e3, 257)  # the anchored members' grid


def _at_family() -> dict[str, SymFunc]:
    """A SymFunc from every constructor that builds an array evaluator,
    with zero cells (step), infinite cells (its negative power) and their
    products in both orders, 0 * inf and inf * 0, which read 0 there."""
    step = SymFunc.from_step(STEP)
    shifted = SymFunc.from_step(SHIFTED)
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
        "inf * 0": step.pow(-1).mul(step),
        "recip_arg": power.mul(step).pow_arg(-1),
        "tabulated": power.mul(shifted).tabulated(**TAB),
        "tabulated with zeros": power.mul(step).tabulated(**TAB),
        "tabulated cumulative": power.add(shifted).tail_integral()
        .tabulated(**TAB),
        "tabulated recip cumulative": power.add(shifted).tail_integral()
        .pow_arg(-1).tabulated(**TAB),
        "anchored cumulative": power.add(shifted).tail_integral()
        .anchored(ANCHORS),
        "anchored recip cumulative": power.add(shifted).tail_integral()
        .pow_arg(-1).anchored(ANCHORS),
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


def _power(t: float) -> float:
    return 2.0 * t ** -1.5 * math.log(math.e + t) ** 0.5


def _mul(x: float, y: float) -> float:
    """x * y by the product rule of ``SymFunc.mul``: 0 where either is 0,
    even where the other is inf or nan."""
    return 0.0 if x == 0.0 or y == 0.0 else x * y


def _pow(v: float, e: float) -> float:
    """v**e with the rules of np.power at 0 and inf."""
    if v == 0.0:
        return 0.0 if e > 0 else math.inf
    if math.isinf(v):
        return math.inf if e > 0 else 0.0
    return v ** e


def _power_at(ts: np.ndarray) -> np.ndarray:
    """_power on an array, by the float operations of ``SymFunc.power``."""
    return 2.0 * ts ** -1.5 * np.log(math.e + ts) ** 0.5


def _tabulated(base, knots, base_at=None) -> callable:
    """The log-log interpolation of base at the geometric grid of TAB
    over the knots, and base itself outside it and where the
    interpolated log is not finite.  Inside, it does the float operations
    of ``tabulated``'s ``at``: the node values as one array (base_at, or
    base point by point), np.interp on their logs, then np.exp.  A
    rounding of a log of magnitude 27 is 3.6e-15 of the value, so a
    reference that interpolated other node values or exponentiated by
    math.exp could differ from ``at`` by more than the 2e-15 it is held
    to."""
    lo, hi = min(knots) / TAB["pad"], max(knots) * TAB["pad"]
    grid = np.geomspace(lo, hi, TAB["n"])
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (base_at(grid) if base_at is not None
                else np.array([base(t) for t in grid.tolist()]))
        logv = np.log(np.where(np.isfinite(vals), vals, np.nan))
    logt = np.log(grid)

    def f(t: float) -> float:
        if t <= lo or t >= hi:
            return base(t)
        lv = np.interp(np.log(np.array([t])), logt, logv)
        return float(np.exp(lv)[0]) if np.isfinite(lv[0]) else base(t)
    return f


def _cumulative(sf: StepFunction, from_left: bool):
    """integral_0^t sf or integral_t^inf sf by ``Piece.integral``: prefix
    sums of the whole pieces and the partial integral of the piece holding
    t, inf where a part diverges."""
    ps = sf.pieces

    def part(p, x0, x1):
        v = p.integral(x0, x1)
        return v.value if v.is_finite else math.inf

    def f(t: float) -> float:
        i = bisect.bisect_right(sf.breakpoints, t) - 1
        if from_left:
            return (sum((part(p, p.lo, p.hi) for p in ps[:i]), 0.0)
                    + part(ps[i], ps[i].lo, t))
        rest = 0.0
        for p in ps[:i:-1]:
            rest += part(p, p.lo, p.hi)
        return rest + part(ps[i], t, ps[i].hi)
    return f


def _tail_of_sum(t: float) -> float:
    """integral_t^inf (power + shifted), by scipy's quad in log t to
    relative accuracy 1e-12 (cut at the knots 1 and 3 of shifted)."""
    g = _log_t(lambda s: _power(s) + SHIFTED(s))
    cuts = [math.log(t), *[math.log(k) for k in (1.0, 3.0) if k > t],
            math.inf]
    return math.fsum(quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for a, b in zip(cuts, cuts[1:]))


def _running_sup(f, knots) -> callable:
    """sup over [x, inf) of f (which tends to 0 at inf) as
    ``running_sup_from`` samples it: the largest of 1200 geometric samples
    from min(knots) / 1e8 to max(knots) * 1e8 at or beyond x, and beyond
    them the largest of 16 samples over [x, 10 x]."""
    ts = np.geomspace(min(knots) / 1e8, max(knots) * 1e8, 1200)
    vals = [f(t) for t in ts.tolist()]
    suffix = list(itertools.accumulate(vals[::-1], max))[::-1]

    def s(x: float) -> float:
        if x >= ts[-1]:
            return max(0.0, *[f(y) for y in np.geomspace(x, 10 * x, 16)])
        return suffix[min(int(np.searchsorted(ts, x)), len(ts) - 1)]
    return s


def _references() -> dict[str, tuple]:
    """name -> (the member at one point, from closed forms, StepFunction
    values and Piece.integral, or scipy's quad; relative tolerance).  The
    values of the quadrature cumulatives come from the package's
    quadrature, the reference's from a tight one: they agree to 8.3e-12 at
    most on 224 points from 1e-12 to 1e12, and are held to 1e-10."""
    step = STEP
    inv = STEP.pow_compose(-1)
    tail = _tail_of_sum
    exact, quadrature = 2e-15, 1e-10
    return {
        "power": (_power, exact),
        "constant": (lambda t: 1.7, exact),
        "from_step": (step, exact),
        "from_step shifted": (SHIFTED, exact),
        "mul": (lambda t: _power(t) * step(t), exact),
        "add": (lambda t: _power(t) + step(t), exact),
        "pow": (lambda t: _pow(step(t), -1 / 3), exact),
        "pow of power": (lambda t: _pow(_power(t), 2.5), exact),
        "0 * inf": (lambda t: _mul(step(t), _pow(step(t), -1.0)), exact),
        "inf * 0": (lambda t: _mul(_pow(step(t), -1.0), step(t)), exact),
        "recip_arg": (lambda t: _power(1 / t) * step(1 / t), exact),
        "tabulated": (_tabulated(
            lambda t: _power(t) * SHIFTED(t), (1.0, 3.0),
            lambda ts: _power_at(ts) * SHIFTED.at(ts)), exact),
        "tabulated with zeros": (_tabulated(
            lambda t: _power(t) * step(t), (0.5, 1.0, 2.0, 5.0),
            lambda ts: _power_at(ts) * step.at(ts)), exact),
        "tabulated cumulative": (_tabulated(tail, (1.0, 3.0)), quadrature),
        "tabulated recip cumulative": (
            _tabulated(lambda t: tail(1 / t), (1 / 3, 1.0)), quadrature),
        "anchored cumulative": (tail, quadrature),
        "anchored recip cumulative": (lambda t: tail(1 / t), quadrature),
        "step antiderivative": (_cumulative(SHIFTED, True), exact),
        "step tail integral": (_cumulative(step, False), exact),
        "step antiderivative, infinite cells": (_cumulative(inv, True),
                                                exact),
        "running_sup_from": (_running_sup(
            lambda t: math.sqrt(t) * step(t), (0.5, 1.0, 2.0, 5.0)), exact),
        "running_sup_from shifted": (_running_sup(
            lambda t: math.sqrt(t) * SHIFTED(t), (1.0, 3.0)), exact),
    }


REFERENCES = _references()


def _assert_at_is_fn(name: str, ts: np.ndarray) -> None:
    """The member's array evaluator against its point reference: the same
    cells of nan, inf and 0, and the values to the reference's
    tolerance."""
    ref, rtol = REFERENCES[name]
    got = AT_FAMILY[name].at(ts)
    with np.errstate(invalid="ignore"):
        want = np.array([ref(float(t)) for t in ts])
    assert got.shape == want.shape
    for special in (np.isnan, np.isinf, lambda x: x == 0.0):
        np.testing.assert_array_equal(special(got), special(want))
    ok = np.isfinite(want) & (want != 0.0)
    np.testing.assert_allclose(got[ok], want[ok], rtol=rtol, atol=0.0)


@pytest.mark.parametrize("name", sorted(AT_FAMILY))
def test_at_agrees_with_fn_at_knots_and_beyond(name):
    ts = np.concatenate([AT_POINTS, np.nextafter(AT_POINTS, 0.0)])
    _assert_at_is_fn(name, ts)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40))
def test_at_agrees_with_fn(log_ts):
    ts = 10.0 ** np.array(log_ts)
    for name in AT_FAMILY:
        _assert_at_is_fn(name, ts)


def test_at_family_has_zero_infinite_and_nan_cells():
    ts = np.array([1.0])  # inside the zero cell (0.5, 2) of the step
    assert AT_FAMILY["from_step"].at(ts)[0] == 0.0
    assert AT_FAMILY["pow"].at(ts)[0] == math.inf
    # where the float product 0 * inf is nan, the products read 0
    assert math.isnan(0.0 * math.inf)
    assert AT_FAMILY["0 * inf"].at(ts)[0] == 0.0
    assert AT_FAMILY["inf * 0"].at(ts)[0] == 0.0
    assert AT_FAMILY["step antiderivative, infinite cells"].at(ts)[0] == (
        math.inf)
