import math
from fractions import Fraction

import numpy as np
import pytest

from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.weights import (NONDECREASING, NONINCREASING, WeightSpec,
                                 parse_weight)


def test_power_direction_convention():
    # pow(a) non-increasing means r^{-a}; non-decreasing means r^{+a}
    dec = WeightSpec.power(Fraction(1, 2), NONINCREASING)
    inc = WeightSpec.power(Fraction(1, 2), NONDECREASING)
    assert dec.evaluate(4.0) == pytest.approx(0.5)
    assert inc.evaluate(4.0) == pytest.approx(2.0)
    assert dec.is_monotone_valid()
    assert inc.is_monotone_valid()


def test_indicator():
    w = WeightSpec.indicator(2.0)
    assert w.evaluate(1.0) == 1.0
    assert w.evaluate(3.0) == 0.0
    with pytest.raises(ValueError):
        WeightSpec("indicator", NONDECREASING, radius=1.0)


def test_table_monotonicity_check():
    up = StepFunction.from_cells([0, 1, 2], [1.0, 2.0, 1.0],
                                 tail=TailSpec.power(-1))  # keeps growing
    w = WeightSpec.from_table(up, NONDECREASING)
    assert w.is_monotone_valid()
    w_bad = WeightSpec.from_table(up, NONINCREASING)
    assert not w_bad.is_monotone_valid()


def test_halfline_profile_dimension():
    # r^{-1} in d = 2 becomes t^{-1/2} in ball-measure coordinates
    w = WeightSpec.power(1, NONINCREASING, d=2)
    prof = w.halfline_profile()
    assert prof(4.0) == pytest.approx(0.5, rel=1e-14)
    assert prof(9.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_parse_round_trip():
    for text in ["pow(1/4)", "pow(-3/2)", "powlog(1,2)", "ind(2.5)",
                 "pow(1/4)@d=2", "pow(0)"]:
        w = parse_weight(text)
        assert parse_weight(w.format()).format() == w.format()


def test_parse_values():
    w = parse_weight("pow(1/4)@d=3", NONDECREASING)
    assert w.d == 3 and w.a == Fraction(1, 4)
    assert w.direction == NONDECREASING
    one = parse_weight("pow(0)")
    assert one.family == "one"
    assert one.evaluate(7.0) == 1.0


def test_parse_table(tmp_path):
    f = StepFunction.from_cells([0.0, 1.0, 2.0], [2.0, 1.0])
    p = tmp_path / "w.csv"
    f.to_csv(str(p))
    w = parse_weight(f"table({p})")
    assert w.evaluate(0.5) == 2.0 and w.evaluate(1.5) == 1.0


def test_parse_errors():
    for text in ["gauss(1)", "pow()", "pow(nan)", "pow(inf)", "pow(1/0)",
                 "powlog(1,nan)", "ind(0)", "ind(-1)", "ind(inf)"]:
        with pytest.raises(ValueError):
            parse_weight(text)


def test_construction_rejects_invalid_parameters():
    for a in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError):
            WeightSpec.power(a)
        with pytest.raises(ValueError):
            WeightSpec.powerlog(1, a)
    for R in [0.0, -1.0, math.inf, math.nan]:
        with pytest.raises(ValueError):
            WeightSpec.indicator(R)


def test_format_strings():
    assert WeightSpec.power(Fraction(1, 4)).format() == "pow(1/4)"
    assert WeightSpec.indicator(2.0).format() == "ind(2)"
    assert WeightSpec.power(1, d=2).format() == "pow(1)@d=2"


def _scalar_evaluate(w, r):
    """The pointwise rule: the profile's right limit at r = 0, else the
    value of the piece holding r (pieces are left-open, right-closed)."""
    prof = w.profile()
    return prof.pieces[0].limit_at(0.0) if r <= 0.0 else prof(r)


def test_array_evaluate_matches_pointwise_rule():
    cells = StepFunction.from_cells([0.0, 1.0, 2.0, 4.0],
                                    [math.inf, 2.0, 1.0])
    tailed = StepFunction.from_cells([0.0, 1.0, 2.0], [3.0, 2.0, 1.0],
                                     tail=TailSpec.power(1))
    rng = np.random.default_rng(0)
    rs = np.concatenate([[0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
                         rng.uniform(0.0, 8.0, 200),
                         np.geomspace(1e-12, 1e12, 200)])
    # constant cells are read, not computed: bit for bit
    for w in [WeightSpec.one(), WeightSpec.one(NONDECREASING),
              WeightSpec.indicator(2.0), WeightSpec.indicator(1.0, d=2),
              WeightSpec.from_table(cells, NONINCREASING)]:
        ref = np.array([_scalar_evaluate(w, float(r)) for r in rs])
        assert np.array_equal(w.evaluate(rs), ref), w.format()
    # power pieces use numpy's pow and log: a few ulp from math's
    for w in [WeightSpec.power(Fraction(1, 4)),
              WeightSpec.power(Fraction(1, 2), NONDECREASING),
              WeightSpec.powerlog(1, 2),
              WeightSpec.powerlog(Fraction(1, 3), Fraction(-1, 2),
                                  NONDECREASING),
              WeightSpec.from_table(tailed, NONINCREASING),
              parse_weight("pow(1/4)@d=2")]:
        ref = np.array([_scalar_evaluate(w, float(r)) for r in rs])
        arr = w.evaluate(rs)
        assert np.array_equal(np.isinf(arr), np.isinf(ref)), w.format()
        fin = np.isfinite(ref)
        np.testing.assert_array_max_ulp(arr[fin], ref[fin], maxulp=4)
    # r = 0 takes the right limit: infinite for a decaying power
    assert math.isinf(WeightSpec.power(Fraction(1, 4)).evaluate(0.0))
    assert WeightSpec.from_table(cells, NONINCREASING).evaluate(0.5) \
        == math.inf
    # a float radius gives a float
    assert type(WeightSpec.power(1).evaluate(2.0)) is float
