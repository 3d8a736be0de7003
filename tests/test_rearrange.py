import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierineq.pieces import Divergence, Piece, StepFunction
from fourierineq.rearrange import (circ_profile, distribution, double_star,
                                   hl_pairing, lower_star, star)
from fourierineq.symfunc import Asym, SymFunc
from fourierineq.weights import NONDECREASING, NONINCREASING, WeightSpec

from conftest import measure_above, random_cells


@st.composite
def step_functions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_cells(rng, max_cells=n)


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_star_equimeasurable(f):
    fs = star(f)
    levels = sorted({v for v in f.values if not math.isnan(v)})
    probes = list(levels)
    probes += [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    probes += [0.0, max(levels) + 1.0]
    for lam in probes:
        assert abs(measure_above(f, lam)
                   - measure_above(fs, lam)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(step_functions())
def test_star_nonincreasing_and_idempotent(f):
    fs = star(f)
    assert fs.is_nonincreasing()
    fss = star(fs)
    assert fss.breakpoints == fs.breakpoints
    assert fss.values == fs.values


@settings(max_examples=40, deadline=None)
@given(step_functions())
def test_double_star_dominates_star(f):
    fs = star(f)
    fss = double_star(f)
    for t in [0.1, 0.5, 1.0, 2.0, 5.0, 9.0, 20.0]:
        assert fss(t) >= fs(t) - 1e-12


@settings(max_examples=40, deadline=None)
@given(step_functions(), step_functions())
def test_hl_pairing_upper_bound(f, g):
    # integral of f g over the common refinement never exceeds the pairing
    fr = f.refine(g.breakpoints)
    gr = g.refine(f.breakpoints)
    direct = (fr * gr).integrate()
    paired = hl_pairing(f, g)
    assert direct.is_finite and paired.is_finite
    assert direct.value <= paired.value + 1e-9 * (1.0 + paired.value)


def test_star_power_exact():
    # t^{-1/2} is already non-increasing: star is the identity
    f = StepFunction.power(1.0, Fraction(1, 2))
    fs = star(f)
    assert fs(4.0) == pytest.approx(0.5, rel=1e-14)


def test_star_increasing_unbounded():
    f = StepFunction.power(1.0, -1)  # grows like t
    fs = star(f)
    assert fs(1.0) == math.inf


def test_distribution_step():
    f = StepFunction.from_cells([0, 1, 3], [2.0, 1.0])
    m = distribution(f)
    assert m(0.5) == pytest.approx(3.0)   # |{f > 0.5}| = 3
    assert m(1.5) == pytest.approx(1.0)   # |{f > 1.5}| = 1
    assert m(2.5) == pytest.approx(0.0)


def test_double_star_exact_constant():
    f = StepFunction.from_cells([0, 1], [1.0])
    fss = double_star(f)
    # f** = 1 on (0,1], 1/t beyond
    assert fss(0.5) == pytest.approx(1.0)
    assert fss(2.0) == pytest.approx(0.5)


def test_double_star_is_a_symfunc_with_certified_ends():
    fss = double_star(StepFunction.indicator(1.0))
    assert isinstance(fss, SymFunc)
    assert fss.head == Asym(1) and fss.tail == Asym(1, -1, 0)
    for t in (0.25, math.nextafter(1.0, 0.0), 1.0, 3.0, 1e6):
        assert fss(t) == pytest.approx(min(1.0, 1.0 / t), rel=1e-15)


def test_double_star_of_a_non_integrable_head_diverges():
    # t**-2: the integral of f* over (0, t) is infinite for every t
    with pytest.raises(Divergence):
        double_star(StepFunction.power(1.0, 2))


def test_circ_profile_dimension():
    w = WeightSpec.power(1, NONINCREASING, d=2)
    prof = circ_profile(w)
    assert prof(4.0) == pytest.approx(0.5, rel=1e-14)


def test_circ_profile_misdeclared():
    # a growing profile in the non-increasing slot rearranges to +inf
    w = WeightSpec.power(1, NONDECREASING)  # r^{+1}
    bad = WeightSpec("power", NONINCREASING, a=-1)  # also r^{+1}, declared dec
    prof = circ_profile(bad)
    assert prof(1.0) == math.inf
    assert w.is_monotone_valid()


def test_lower_star():
    w = WeightSpec.power(Fraction(1, 2), NONDECREASING)  # r^{1/2}, increasing
    ls = lower_star(w)
    assert ls(4.0) == pytest.approx(2.0, rel=1e-14)
    # decreasing profile in the non-decreasing slot collapses to 0
    bad = WeightSpec("power", NONDECREASING, a=-1)  # r^{-1} declared inc
    ls2 = lower_star(bad)
    assert ls2(1.0) == 0.0


def test_hl_pairing_exact_constants():
    f = StepFunction.from_cells([0, 1], [5.0])
    g = StepFunction.from_cells([0, 1], [6.0])
    r = hl_pairing(f, g)
    assert r.is_finite and r.value == pytest.approx(30.0, abs=1e-12)


def test_hl_pairing_of_a_product_without_closed_form():
    # f = 1 + t**-1/2 times a power tail of g: no exact product piece on
    # (1, inf), so the pairing is a certified SymFunc integral
    f = StepFunction([Piece(0.0, math.inf, 1.0, 1.0, 0.0, Fraction(-1, 2))])

    def g(a):
        return StepFunction([Piece(0.0, 1.0, 1.0),
                             Piece(1.0, math.inf, 0.0, 1.0, 0.0, a)])

    # int_0^1 (1 + t**-1/2) + int_1^inf (t**-11/10 + t**-8/5) = 3 + 10 + 5/3
    r = hl_pairing(f, g(Fraction(-11, 10)))
    assert r.is_finite and r.value == pytest.approx(3 + 10 + 5 / 3,
                                                    rel=1e-9)
    # the tail t**-9/10 is not integrable
    assert hl_pairing(f, g(Fraction(-9, 10))).is_infinite


def _reference_star_of_cells(f):
    """Levels sorted descending with Python's stable sort, equal
    neighbours merged, one cell after another from 0."""
    items = sorted(((p.const_value, p.hi - p.lo) for p in f.pieces
                    if p.const_value > 0.0), key=lambda x: -x[0])
    los, his, levels, t = [], [], [], 0.0
    for v, length in items:
        if levels and levels[-1] == v:
            his[-1] += length
        else:
            los.append(t)
            his.append(t + length)
            levels.append(v)
        t += length
    return los, his, levels


def test_star_of_cells_matches_reference_sort():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        f = random_cells(rng)
        los, his, levels = _reference_star_of_cells(f)
        live = star(f).pieces[:-1]
        assert [p.lo for p in live] == los
        assert [p.hi for p in live] == his
        assert [p.const_value for p in live] == levels
        assert star(f).pieces[-1].const_value == 0.0
