import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierineq.pieces import Divergence, Piece, StepFunction, TailSpec
from fourierineq.rearrange import (circ_profile, distribution, double_star,
                                   hl_pairing, lower_star, star)
from fourierineq.symfunc import Asym, SymFunc
from fourierineq.weights import NONDECREASING, NONINCREASING, WeightSpec

from conftest import measure_above, random_cells, random_power_step


@st.composite
def step_functions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_cells(rng, max_cells=n)


@st.composite
def power_steps(draw):
    """1-5 cells, an optional tail t**-a (a in 1/4, 1/2, ..., 7/4) and an
    optional lead t**-1/4 or t**-1/2."""
    cells = draw(st.integers(min_value=1, max_value=5))
    tail = draw(st.none() | st.integers(1, 7).map(lambda k: Fraction(k, 4)))
    lead = draw(st.sampled_from([None, Fraction(1, 4), Fraction(1, 2)]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_power_step(np.random.default_rng(seed), cells, tail, lead)


def _probe_levels(f):
    """Every finite cell level, the midpoints between the sorted finite
    levels and piece end values, and levels below and above them all (not
    the end values themselves, where one ulp of t moves a measure off 0)."""
    ends = {p.limit_at(x) for p in f.pieces for x in (p.lo, p.hi)}
    crit = sorted(v for v in ends if 0.0 < v < math.inf)
    cells = [p.const_value for p in f.pieces
             if p.is_constant and p.const_value > 0.0]
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    return cells + mids + [crit[0] / 2, 2 * crit[-1] + 1.0]


@settings(max_examples=80, deadline=None)
@given(power_steps())
def test_star_and_distribution_match_the_measure_of_each_piece(f):
    try:
        fs = star(f)
    except NotImplementedError:  # two power pieces' level ranges overlap
        return
    levels = _probe_levels(f)
    for lam in levels:
        want = measure_above(f, lam)
        assert measure_above(fs, lam) == pytest.approx(want, rel=1e-9)
    try:
        m = distribution(f)
    except NotImplementedError:
        # only a power piece moved left of its origin has no inverse
        assert any(p.shift < 0.0 and not p.is_constant for p in fs.pieces)
        return
    for lam in levels:
        assert m(lam) == pytest.approx(measure_above(f, lam), rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(power_steps())
def test_star_of_power_steps_is_nonincreasing(f):
    # relative, on a dense grid: is_nonincreasing's absolute 1e-12 reads
    # cancellation in t - shift as a rise
    try:
        fs = star(f)
    except NotImplementedError:
        return
    ts = np.union1d(np.geomspace(1e-6, 1e4, 3000),
                    np.linspace(0.0, 40.0, 4001)[1:])
    vals = fs.at(ts)
    assert np.all(vals[1:] <= vals[:-1] * (1.0 + 1e-9))


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
    # every super-level set has infinite measure
    assert distribution(f)(1.0) == math.inf


def test_distribution_step():
    f = StepFunction.from_cells([0, 1, 3], [2.0, 1.0])
    m = distribution(f)
    assert m(0.5) == pytest.approx(3.0)   # |{f > 0.5}| = 3
    assert m(1.5) == pytest.approx(1.0)   # |{f > 1.5}| = 1
    assert m(2.5) == pytest.approx(0.0)


def test_distribution_of_a_power_lead():
    # t**-1/2 on (0, 1), 1/2 on (1, 2): |{f > lam}| = 2 below 1/2, 1 up to
    # 1 and lam**-2 above
    f = StepFunction.from_cells([0.0, 1.0, 2.0], [1.0, 0.5],
                                lead=TailSpec.power(Fraction(1, 2)))
    m = distribution(f)
    for lam, want in [(0.25, 2.0), (0.75, 1.0), (1.0, 1.0), (4.0, 1 / 16)]:
        assert m(lam) == pytest.approx(want, rel=1e-15)


def test_star_of_a_tail_that_starts_above_the_last_cell():
    # 1.377 on (0, 1.09), 2.147 t**-1/2 beyond (2.056 at 1.09): the tail is
    # cut where it crosses 1.377, its upper part moved to t = 0
    f = StepFunction.from_cells([0.0, 1.089936277021461],
                                [1.3771100936785345, 2.1467835050436612],
                                TailSpec.power(Fraction(1, 2)))
    fs = star(f)
    cut = (2.1467835050436612 / 1.3771100936785345) ** 2
    assert fs.breakpoints[:3] == pytest.approx(
        [0.0, cut - 1.089936277021461, cut], rel=1e-15)
    assert fs(1.0) == pytest.approx(2.1467835050436612 / math.sqrt(
        1.0 + 1.089936277021461), rel=1e-14)
    assert fs(cut + 1.0) == pytest.approx(2.1467835050436612 / math.sqrt(
        cut + 1.0), rel=1e-14)


def test_star_of_cells_drops_a_cell_too_thin_to_show():
    # the one-ulp cell at level 1/2 lands at t = 100, where its width
    # rounds away: star keeps the other two cells and stays contiguous
    f = StepFunction.from_cells([0.0, 1.0, math.nextafter(1.0, 2.0), 100.0],
                                [1.0, 0.5, 2.0])
    assert [(p.lo, p.hi, p.const_value) for p in star(f).pieces] == [
        (0.0, 100.0 - math.nextafter(1.0, 2.0), 2.0),
        (100.0 - math.nextafter(1.0, 2.0), 100.0, 1.0), (100.0, math.inf, 0.0)]


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


def test_lower_star_of_a_table_that_is_not_monotone():
    # v = 2, 1/2, 4 on unit cells and 2t beyond 3: 1/v rearranges to
    # 2, 1/2, 1/4 and (2t)**-1, whose reciprocal v_* is 1/2, 2, 4 and 2t
    table = StepFunction.from_cells([0, 1, 2, 3], [2.0, 0.5, 4.0, 2.0],
                                    tail=TailSpec.power(-1))
    w = WeightSpec.from_table(table, NONDECREASING)
    assert not w.is_monotone_valid()
    ls = lower_star(w)
    for t, want in [(0.5, 0.5), (1.5, 2.0), (2.5, 4.0), (5.0, 10.0),
                    (1e3, 2e3)]:
        assert ls(t) == pytest.approx(want, rel=1e-15)


def test_star_of_an_infinite_level_is_infinite_on_its_width():
    # 1 on (0, 1) and inf on (1, 2): the infinite cell is a part of its own
    # width, laid out first, so star is inf on (0, 1) and not identically
    f = StepFunction.from_cells([0, 1, 2], [1.0, math.inf])
    assert [(p.lo, p.hi, p.const_value) for p in star(f).pieces] == [
        (0.0, 1.0, math.inf), (1.0, 2.0, 1.0), (2.0, math.inf, 0.0)]
    m = distribution(f)
    for lam, want in [(0.5, 2.0), (1.0, 1.0), (1e300, 1.0)]:
        assert m(lam) == want


def test_lower_star_of_a_table_with_a_zero_cell():
    # v = 1 on (0, 1), 0 on (1, 2) and 3t beyond: 1/v = 1, inf and
    # (3t)**-1 rearranges to inf on (0, 1), 1 on (1, 2) and (3t)**-1
    # beyond, whose reciprocal v_* is 0, 1 and 3t (it read 0 everywhere)
    table = StepFunction.from_cells([0, 1, 2], [1.0, 0.0, 3.0],
                                    tail=TailSpec.power(-1))
    ls = lower_star(WeightSpec.from_table(table, NONDECREASING))
    for t, want in [(0.5, 0.0), (1.5, 1.0), (3.0, 9.0), (10.0, 30.0)]:
        assert ls(t) == pytest.approx(want, rel=1e-15)


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
