import math
from fractions import Fraction

import pytest

from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.symfunc import Asym, Divergence, SymFunc


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
    assert Asym(1.0, Fraction(-1, 2), 0).integrable_at_zero()
    assert not Asym(1.0, -1, 0).integrable_at_zero()
    assert Asym(1.0, -1, -2).integrable_at_inf()
    assert not Asym(1.0, -1, -1).integrable_at_inf()
