import math
from fractions import Fraction

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
