import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import zeta

from fourierineq.extreal import ExtReal
from fourierineq.norms import (SequenceData, _log_power_integral, _zeta2,
                               bochkarev_norm, dyadic_block_norms, expL_pair,
                               gamma_norm, llogl_norm, morrey_optimal_norm,
                               optimal_Y_norm, theta_norm)
from fourierineq.pieces import StepFunction, parse_exp
from fourierineq.symfunc import SymFunc
from fourierineq.weights import NONINCREASING, WeightSpec

E1 = SequenceData(np.array([1.0]))


def test_sequence_data_star_twostar():
    a = SequenceData(np.array([1.0, 3.0, 2.0]))
    assert np.allclose(a.star, [3.0, 2.0, 1.0])
    assert np.allclose(a.twostar, [3.0, 2.5, 2.0])
    assert a.total == 6.0


def test_sequence_from_csv(tmp_path):
    p = tmp_path / "seq.csv"
    p.write_text("n,value\n1,2.0\n3,1.0\n")
    a = SequenceData.from_csv(str(p))
    assert np.allclose(a.values, [2.0, 0.0, 1.0])


def test_theta_sup_form():
    v = theta_norm(E1, math.inf)
    assert v.is_finite
    assert v.value == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-12)


def test_theta_bracket_against_partial_sums():
    # for e1, theta(p)^p = sum_n 1/(n log^{p/2}(n+1)); bracket the series
    p = 4.0
    v = theta_norm(E1, p).value
    ns = np.arange(1, 200001, dtype=float)
    partial = float(np.sum(1.0 / (ns * np.log(ns + 1) ** (p / 2))))
    # closed form: int_N^inf dx / (x log^{p/2} x) = log(N)^{1-p/2} / (p/2-1)
    upper_tail = math.log(200000.0) ** (1 - p / 2) / (p / 2 - 1)
    assert partial <= v ** p <= partial + 1.2 * upper_tail


def test_theta_tail_matches_mpmath_reference():
    # exact partial sum to 65536 plus an Euler-Maclaurin tail whose
    # integral is taken in y = log(x + 1), both in mpmath
    v = theta_norm(E1, 3).value
    assert v ** 3 == pytest.approx(4.078931176552033, rel=1e-8)


# integral_N^inf dx / (x log^{1+d}(x+1)), mpmath at 30 digits: the closed
# part y0^-d / d plus the remainder by mpmath.quad, y0 = log(N + 1)
LOG_POWER_INTEGRALS = [
    (Fraction(1, 100), 65536, 97.62263933301049015),
    (Fraction(1, 100), 10**6, 97.40838222951133602),
    (Fraction(1, 2), 65536, 0.60056115823417487891),
    (Fraction(1, 2), 10**6, 0.53807959695464885069),
    (3, 65536, 0.00024436666424096442935),
    (3, 10**6, 0.00012640897438723554895),
]


@pytest.mark.parametrize("d, N, ref", LOG_POWER_INTEGRALS)
def test_log_power_integral_matches_mpmath(d, N, ref):
    # the theta tail's integral: the remainder to relative accuracy in
    # z = e^-(y - y0), not to QUADPACK's absolute floor (4.7e-12 off at
    # d = 1/2, N = 65536)
    assert _log_power_integral(1.0, d, N) == pytest.approx(ref, rel=1e-14,
                                                           abs=0.0)


def test_theta_just_above_two_keeps_its_tail():
    # d = p/2 - 1 = 5e-21: the tail integral is about 1.3e20 * const
    b = SequenceData(np.array([1.0, 0.5, 0.25]))
    v = theta_norm(b, parse_exp("2.00000000000000000001"))
    assert v.is_finite and v.value > 1e10


def test_theta_homogeneity():
    a = SequenceData(np.array([2.0, 1.0, 0.5]))
    b = SequenceData(3.0 * a.values)
    for p in (3.0, math.inf):
        assert theta_norm(b, p).value == pytest.approx(
            3.0 * theta_norm(a, p).value, rel=1e-9)


def test_theta_requires_p_gt_2():
    with pytest.raises(ValueError):
        theta_norm(E1, 2.0)


def test_regime_decided_on_exact_exponent():
    # both exponents round to the float 2.0; the regime follows the exact
    # value
    above = parse_exp("2.00000000000000000001")
    below = parse_exp("1.99999999999999999999")
    assert float(above) == float(below) == 2.0
    b = SequenceData(np.array([1.0, 0.5, 0.25]))
    l2 = math.sqrt(1.3125)
    assert theta_norm(b, above).is_finite
    assert bochkarev_norm(b, above) == pytest.approx(l2, rel=1e-12)
    # the p > 2 block form, whose block weights tend to 1 as p -> 2+
    assert dyadic_block_norms(b, above) == pytest.approx(l2, rel=1e-12)
    for p in (below, 2):
        with pytest.raises(ValueError):
            theta_norm(b, p)
        with pytest.raises(ValueError):
            bochkarev_norm(b, p)
    with pytest.raises(ValueError):
        dyadic_block_norms(b, 2)
    with pytest.raises(ValueError):
        gamma_norm(b, above)
    # the q < 2 forms just below 2 continue those at q = 1.9999999
    assert dyadic_block_norms(b, below) == pytest.approx(
        dyadic_block_norms(b, 1.9999999), rel=1e-6)
    assert gamma_norm(b, below).value == pytest.approx(
        gamma_norm(b, 1.9999999).value, rel=1e-6)
    # Morrey: the q < 2 form is unbounded for this f at every q < 2
    f = StepFunction.from_cells([0, 1, 2], [1.0, 0.5])
    one = StepFunction.constant(1.0)
    assert morrey_optimal_norm(f, below, one).is_infinite
    assert morrey_optimal_norm(f, 1.9999999, one).is_infinite
    assert morrey_optimal_norm(f, 2, one).is_finite


def test_gamma_bracket_against_partial_sums():
    # for e1 with the two-star continuation, the inner tail at n is the
    # Hurwitz zeta value zeta(2, n)
    q = 1.0
    v = gamma_norm(E1, q).value
    ns = np.arange(1, 200001, dtype=float)
    inner = zeta(2, ns)
    partial = float(np.sum(inner ** (q / 2)
                           / (ns * np.log(ns + 1) ** (q / 2))))
    # zeta(2, n) <= 1/(n-1); integrate in u = log x coordinates where the
    # bound becomes ~ exp(-u/2) u^{-1/2}, which quad handles cleanly
    upper_tail = quad(lambda u: math.exp(u / 2) * u ** (-q / 2)
                      / (math.exp(u) - 1.0) ** (q / 2),
                      math.log(200000.0), 60.0, limit=200)[0]
    assert partial <= v ** q <= partial + 1.2 * upper_tail


def test_zeta2_matches_scipy_zeta():
    xs = [*range(1, 200), *np.linspace(0.01, 40.0, 997),
          *np.geomspace(1.0, 1e15, 999)]
    for x in xs:
        want = float(zeta(2, x))
        assert abs(_zeta2(x) - want) <= 2e-15 * want, x


def test_gamma_star_variant_le_twostar():
    a = SequenceData(np.array([1.0, 0.7, 0.2, 0.1]))
    s = gamma_norm(a, 1.0, use_twostar=False).value
    t = gamma_norm(a, 1.0, use_twostar=True).value
    assert s <= t


def test_bochkarev():
    v = bochkarev_norm(E1, math.inf)
    assert v == pytest.approx(1.0 / math.sqrt(math.log(2.0)), rel=1e-12)
    # dominated by the theta norm at the same exponent
    a = SequenceData(np.array([1.0, 0.5, 0.25, 0.125]))
    assert bochkarev_norm(a, 4.0) <= 5.0 * theta_norm(a, 4.0).value


def test_dyadic_single_block_reduces_to_l2():
    # support inside the first block (indices 1, 2): plain l2 norm
    a = SequenceData(np.array([3.0, 4.0]))
    assert dyadic_block_norms(a, 4.0) == pytest.approx(5.0, rel=1e-12)


def test_dyadic_blocks_comparable_to_series():
    a = SequenceData(np.array([1.0 / n for n in range(1, 101)]))
    for e in (4.0, 1.0):
        direct = (theta_norm(a, e) if e > 2 else gamma_norm(a, e)).value
        block = dyadic_block_norms(a, e)
        assert 0.2 * direct <= block <= 5.0 * direct


def test_rearrangement_invariance():
    a = SequenceData(np.array([0.2, 1.0, 0.5, 0.1]))
    b = SequenceData(np.array([1.0, 0.1, 0.2, 0.5]))
    assert theta_norm(a, 3.0).value == theta_norm(b, 3.0).value
    assert gamma_norm(a, 1.0).value == gamma_norm(b, 1.0).value


def test_optimal_Y_q2_quadrature():
    # u = 1, q = 2, f = 1_(0,1]: norm^2 = int min(1/t,1)^2 dt = 2
    f = StepFunction.indicator(1.0)
    v = optimal_Y_norm(f, WeightSpec.one(), 2)
    assert v.is_finite and v.value == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_optimal_Y_q_lt_2():
    f = StepFunction.indicator(1.0)
    # a power-law u runs the q#-tail integral out to t = inf
    for u, q in [(WeightSpec.indicator(1.0), 1),
                 (WeightSpec.power(0.25), 1.5)]:
        v = optimal_Y_norm(f, u, q)
        assert v.is_finite and v.value > 0
        # homogeneity in f
        v2 = optimal_Y_norm(f.scaled(2.0), u, q)
        assert v2.value == pytest.approx(2.0 * v.value, rel=1e-7)


def test_optimal_Y_trivial_space_certified():
    # q < 2 with a u whose q#-tail diverges: the space is trivial
    f = StepFunction.indicator(1.0)
    v = optimal_Y_norm(f, WeightSpec.one(), 1)
    assert v.is_infinite


def test_optimal_Y_underflow_is_not_a_certified_zero():
    f, u = StepFunction.indicator(1.0), WeightSpec.indicator(1.0)
    # the weight (U/xi)**(q#/2), about 2**(-q#/2), falls below the least
    # double 2**-1074 once q# > 2148 (q = 1999/1000 gives q# = 3998, q
    # just below 2 about 4e20), so the integral reads 0; the norm of a
    # nonzero f is positive, so that 0 is indeterminate
    for q in (Fraction(1999, 1000), parse_exp("1.99999999999999999999")):
        v = optimal_Y_norm(f, u, q)
        assert v.state == "indeterminate" and "underflow" in v.reason
    # a small but representable norm stays finite
    v = optimal_Y_norm(f, u, Fraction(199, 100))
    assert v.is_finite and 0.0 < v.value < 1e-29


def test_morrey_q2():
    # f = 1_(0,1], shape(R) = R^{-1/2}: the sup is 1, attained on R <= 1
    f = StepFunction.indicator(1.0)
    from fractions import Fraction
    shape = StepFunction.power(1.0, Fraction(1, 2))
    v = morrey_optimal_norm(f, 2, shape)
    assert v.is_finite and v.value == pytest.approx(1.0, rel=1e-9)


def test_morrey_unbounded_certified():
    # constant shape: the functional grows like G(R)^{1/2} -> sqrt(2) sup,
    # but a growing shape R^{1/4} is certified infinite
    f = StepFunction.indicator(1.0)
    from fractions import Fraction
    shape = StepFunction.power(1.0, Fraction(-1, 4))
    v = morrey_optimal_norm(f, 2, shape)
    assert v.is_infinite


def test_expL_pair_box():
    f = StepFunction.indicator(1.0)
    left, right = expL_pair(f)
    assert left.is_finite and left.value == pytest.approx(1.0, rel=1e-5)
    assert right.is_finite and right.value == pytest.approx(1.0, rel=1e-5)


def test_llogl_box():
    f = StepFunction.indicator(1.0)
    v = llogl_norm(f)
    assert v.is_finite and v.value == pytest.approx(2.0, rel=1e-9)


def test_zero_inputs():
    z = SequenceData(np.zeros(3))
    assert theta_norm(z, 4.0).value == 0.0
    assert gamma_norm(z, 1.0).value == 0.0
    assert bochkarev_norm(z, 4.0) == 0.0
    zf = StepFunction.from_cells([0, 1], [0.0])
    assert optimal_Y_norm(zf, WeightSpec.one(), 2).value == 0.0
    # a zero weight has a zero norm for every f
    zu = WeightSpec.from_table(StepFunction.constant(0.0), NONINCREASING)
    for q in (1, 2, 3):
        assert optimal_Y_norm(StepFunction.indicator(1.0), zu, q) == (
            ExtReal.finite(0.0))
    assert llogl_norm(zf).value == 0.0


# morrey_optimal_norm on the suite's and the benchmark's finite cases,
# (f, q, shape, d) -> its value when G(R^d) was a quadrature per scan sample;
# the d = 3 box case re-pinned upward (from 1.0203318003558435, +2.7e-12)
# when the search between the scan's samples became array steps, which
# reach the dense scan of its bracket below
BOX = StepFunction.indicator(1.0)
TWO = StepFunction.from_cells([0, 1, 2], [1.0, 0.5])
MORREY = {
    "box, q=2, R^-1/2": ((BOX, 2, StepFunction.power(1.0, Fraction(1, 2)), 1),
                         1.0000000000000002),
    "two cells, q=2, 1": ((TWO, 2, StepFunction.constant(1.0), 1),
                          1.6871791814386439),
    "two cells, q=3, 1, d=2": ((TWO, 3, StepFunction.constant(1.0), 2),
                               1.4537643280457095),
    "box, q=1, R^-1/2": ((BOX, 1, StepFunction.power(1.0, Fraction(1, 2)),
                          1), 1.4142135623730951),
    "two cells, q=3/2, R^-1/2, d=2": (
        (TWO, Fraction(3, 2), StepFunction.power(1.0, Fraction(1, 2)), 2),
        1.2852449446246108),
    "box, q=4, R^-1/4, d=3": (
        (BOX, 4, StepFunction.power(1.0, Fraction(1, 4)), 3),
        1.020331800358631),
}


@pytest.mark.parametrize("name", sorted(MORREY))
def test_morrey_scan_on_an_anchored_cumulative(monkeypatch, name):
    # G is anchored at the scan's grid, so the scan reads the values of
    # one Cumulative.at pass (a QUADPACK integral per sample once took 621
    # calls on the box case, under 80 when only the refining search and
    # the knots did)
    args, before = MORREY[name]
    sup = SymFunc.sup
    scanned = []
    monkeypatch.setattr(SymFunc, "sup", lambda f: (scanned.append(f),
                                                   sup(f))[1])
    v = morrey_optimal_norm(*args)
    assert v.is_finite and v.value == pytest.approx(before, rel=1e-12)
    # the sup reaches a dense scan between the neighbours of its best
    # sample, 20001 even points
    (f,) = scanned
    ts = f.scan_grid()
    k = int(np.nanargmax(f.at(ts)))
    dense = f.at(np.linspace(ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)],
                             20001))
    assert v.value >= float(np.nanmax(dense)) * (1.0 - 1e-13)
