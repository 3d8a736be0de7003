import math

import numpy as np
import pytest

from fourierineq.hardy import (HEAD_INTEGRAL, HEAD_SUM, REVERSE,
                               TAIL_INTEGRAL, HardyProblem, brute_force_K,
                               hardy_K)
from fourierineq.pieces import StepFunction, TailSpec


def continuous_problem(kind=HEAD_INTEGRAL, pp=2.0, qq=2.0):
    u = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0], tail=TailSpec.power(3))
    v = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0], tail=TailSpec.power(-1))
    return HardyProblem(kind, pp, qq, u_w=u, v_w=v)


def test_head_integral_sup_form_value():
    # u = t^{-3} beyond 1, v grows: the sup-form constant is finite
    prob = continuous_problem()
    K = hardy_K(prob)
    assert K.is_finite and K.value > 0


def test_sup_form_divergence_certified():
    # u not integrable at infinity: the head form needs int_x^inf u finite
    u = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0], tail=TailSpec.power(0))
    v = StepFunction.constant(1.0)
    prob = HardyProblem(HEAD_INTEGRAL, 2.0, 2.0, u_w=u, v_w=v)
    assert hardy_K(prob).is_infinite


def test_tail_integral_form_value():
    u = StepFunction.from_cells([0.0, 1.0], [1.0])
    v = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0], tail=TailSpec.power(-2))
    prob = HardyProblem(TAIL_INTEGRAL, 2.0, 2.0, u_w=u, v_w=v)
    K = hardy_K(prob)
    assert K.is_finite and K.value > 0


def test_discrete_homogeneity():
    u = np.array([1.0, 0.5, 0.25, 0.125])
    v = np.ones(4)
    prob = HardyProblem(HEAD_SUM, 1.0, 0.5, u_seq=u, v_seq=v)
    K1 = hardy_K(prob)
    prob2 = HardyProblem(HEAD_SUM, 1.0, 0.5, u_seq=4.0 * u, v_seq=v)
    K2 = hardy_K(prob2)
    assert K1.is_finite and K2.is_finite
    # K scales like u^{1/rr}... check simple monotone scaling
    assert K2.value > K1.value


def test_discrete_zero_weight():
    prob = HardyProblem(HEAD_SUM, 1.0, 0.5,
                        u_seq=np.zeros(4), v_seq=np.ones(4))
    K = hardy_K(prob)
    assert K.is_finite and K.value == 0.0


def test_discrete_vanishing_v_certified():
    prob = HardyProblem(HEAD_SUM, 2.0, 1.0,
                        u_seq=np.ones(4),
                        v_seq=np.array([1.0, 0.0, 1.0, 1.0]))
    assert hardy_K(prob).is_infinite


def test_reverse_form():
    w = StepFunction.from_cells([0.0, 1.0], [1.0])
    nu = StepFunction.power(1.0, -1)  # nu(t) = t
    prob = HardyProblem(REVERSE, 1.0, 0.5, w=w, nu=nu)
    K = hardy_K(prob)
    assert K.is_finite and K.value > 0


def test_problem_validation():
    with pytest.raises(ValueError):
        HardyProblem("bogus", 2.0, 2.0)
    with pytest.raises(ValueError):
        HardyProblem(HEAD_SUM, 1.0, 2.0, u_seq=np.ones(2), v_seq=np.ones(2))
    with pytest.raises(ValueError):
        HardyProblem(REVERSE, 1.0, 2.0, w=StepFunction.constant(1.0),
                     nu=StepFunction.constant(1.0))
    with pytest.raises(ValueError):
        HardyProblem(HEAD_INTEGRAL, 0.5, 2.0,
                     u_w=StepFunction.constant(1.0),
                     v_w=StepFunction.constant(1.0))


def test_brute_force_respects_two_sided_bound():
    # at pp = qq = 2 the optimal constant C satisfies K <= C <= 2K, so any
    # true witness ratio stays below 2K; a decent search also gets close to K
    rng = np.random.default_rng(3)
    prob = continuous_problem()
    K = hardy_K(prob)
    best = brute_force_K(prob, rng, n_restarts=6, n_cells=12, n_sweeps=10)
    assert best <= 2.0 * K.value * (1.0 + 1e-6)
    assert best >= K.value / 8.0


def test_head_integral_exact_exponent_certificate():
    # v = t^{4/3}, p = 7/3: v^{1/(1-p)} = t^{-1} is not integrable at 0,
    # so K is infinite whichever way p and q are spelled
    from fractions import Fraction
    u = StepFunction.from_cells([0.0, 1.0], [1.0])
    v = StepFunction.power(1.0, Fraction(-4, 3))
    for p in (7 / 3, Fraction(7, 3), "7/3"):
        prob = HardyProblem(HEAD_INTEGRAL, p, p, u_w=u, v_w=v)
        assert prob.pp == prob.qq == Fraction(7, 3)
        assert hardy_K(prob).is_infinite


def test_float_and_exact_exponents_give_one_certificate():
    from fractions import Fraction
    for kind in (HEAD_INTEGRAL, TAIL_INTEGRAL):
        for pp, qq in ((Fraction(5, 2), Fraction(3, 2)), (2, 3)):
            a = hardy_K(continuous_problem(kind, pp, qq))
            b = hardy_K(continuous_problem(kind, float(pp), float(qq)))
            assert repr(a) == repr(b)
            assert a.value == b.value


def test_dense_grid_matches_pointwise_loop():
    # reference: per-cell linspace and per-point weight calls
    from fourierineq.hardy import _dense_grid
    prob = continuous_problem()
    n_cells = 12
    mids, widths, cell_of, uvals, vvals = _dense_grid(prob.u_w, prob.v_w,
                                                      n_cells)
    edges = np.geomspace(1.0 / 100.0, 100.0, n_cells + 1)
    dense = np.unique(np.concatenate(
        [np.linspace(a, b, 9) for a, b in zip(edges, edges[1:])]))
    ref_mids = 0.5 * (dense[:-1] + dense[1:])
    assert np.array_equal(mids, ref_mids)
    assert np.array_equal(widths, np.diff(dense))
    assert np.all(edges[cell_of] <= mids) and np.all(mids < edges[cell_of + 1])
    for vals, w in ((uvals, prob.u_w), (vvals, prob.v_w)):
        ref = np.array([w(float(t)) for t in mids])
        assert np.allclose(vals, ref, rtol=4e-16, atol=0.0)
