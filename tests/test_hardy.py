import dataclasses
import math
import warnings

import numpy as np
import pytest

from fourierineq import hardy
from fourierineq.hardy import (HEAD_INTEGRAL, HEAD_SUM, REVERSE,
                               TAIL_INTEGRAL, HardyProblem, brute_force_K,
                               hardy_K)
from fourierineq.pieces import StepFunction, TailSpec

from conftest import random_hardy_problems

KINDS = (HEAD_SUM, HEAD_INTEGRAL, TAIL_INTEGRAL, REVERSE)


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
    # discrete weights: u finite and non-negative, v non-negative, not nan
    for u, v in (([1.0, math.nan], [1.0, 1.0]), ([1.0, math.inf], [1.0, 1.0]),
                 ([1.0, -1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, math.nan]),
                 ([1.0, 1.0], [1.0, -2.0])):
        with pytest.raises(ValueError):
            HardyProblem(HEAD_SUM, 2.0, 1.0, u_seq=np.array(u),
                         v_seq=np.array(v))


def test_discrete_infinite_v_admitted():
    # v_n = inf holds x_n at 0: the problem on the remaining terms
    prob = HardyProblem(HEAD_SUM, 2.0, 1.0, u_seq=np.ones(3),
                        v_seq=np.array([1.0, math.inf, 1.0]))
    assert hardy_K(prob).is_finite


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


# -- the lockstep ascent against the sequential one ---------------------------

def _sequential_ratio(prob, n_cells):
    """The ratio of one test input and its length: the cell form read one
    row at a time, the reference of the lockstep ascent."""
    form = hardy._cell_form(prob, n_cells)

    def ratio(x):
        return float(hardy._cell_ratio(form, x[None, :])[0])
    return ratio, form.b.shape[1]


def sequential_brute_force_K(prob, rng, n_restarts=32, n_cells=24,
                             n_sweeps=30):
    """The coordinate ascent run one restart after another."""
    ratio, dim = _sequential_ratio(prob, n_cells)
    best = 0.0
    for _ in range(n_restarts):
        x = rng.lognormal(0.0, 1.0, size=dim)
        cur = ratio(x)
        for _ in range(n_sweeps):
            improved = False
            for i in range(dim):
                for fac in (4.0, 0.25, 1.5, 1 / 1.5):
                    y = x.copy()
                    y[i] *= fac
                    val = ratio(y)
                    if val > cur * (1 + 1e-12):
                        x, cur = y, val
                        improved = True
            if not improved:
                break
        best = max(best, cur)
    return best


def bench_problem(kind):
    """The benchmark's fixed problem of each kind."""
    cell = StepFunction.from_cells([0.0, 1.0], [1.0])
    if kind == HEAD_SUM:
        return HardyProblem(HEAD_SUM, 1.0, 0.5,
                            u_seq=np.array([1.0, 0.5, 0.25, 0.125]),
                            v_seq=np.ones(4))
    if kind == HEAD_INTEGRAL:
        return continuous_problem()
    if kind == TAIL_INTEGRAL:
        v = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                    tail=TailSpec.power(-2))
        return HardyProblem(TAIL_INTEGRAL, 2.0, 2.0, u_w=cell, v_w=v)
    return HardyProblem(REVERSE, 1.0, 0.5, w=cell,
                        nu=StepFunction.power(1.0, -1))


def ascent_problem(prob):
    """prob where brute_force_K runs the ascent: a continuous problem at
    pp = qq = 2, which the Rayleigh quotient solves, moves to (3, 2)."""
    if prob.kind in (HEAD_INTEGRAL, TAIL_INTEGRAL):
        return dataclasses.replace(prob, pp=3.0, qq=2.0)
    return prob


def assert_lockstep_matches(prob, seed, sizes=()):
    got = brute_force_K(prob, np.random.default_rng(seed), *sizes)
    want = sequential_brute_force_K(prob, np.random.default_rng(seed),
                                    *sizes)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    return got


@pytest.mark.parametrize("kind", KINDS)
def test_lockstep_ascent_matches_sequential(kind):
    # the benchmark's problem at its sizes and seeds, then one random
    # problem per seed at the benchmark's sizes and at slightly larger ones
    for seed in (1, 2, 3):
        assert_lockstep_matches(ascent_problem(bench_problem(kind)), seed,
                                (4, 10, 8))
    for seed in range(10):
        prob, = random_hardy_problems(kind, np.random.default_rng(seed), n=1)
        prob = ascent_problem(prob)
        for sizes in ((4, 10, 8), (6, 12, 10)):
            assert assert_lockstep_matches(prob, seed, sizes) > 0


def _counting_ratios(monkeypatch):
    """Wrap the cell ratio so that every ratio call is counted; returns
    the counter."""
    calls = {"ratio": 0}
    ratio = hardy._cell_ratio

    def counted(form, x):
        calls["ratio"] += 1
        return ratio(form, x)

    monkeypatch.setattr(hardy, "_cell_ratio", counted)
    return calls


@pytest.fixture(scope="module")
def default_runs():
    """Per kind: brute_force_K of the benchmark's problem, at (3, 2) where
    it is continuous, at the default sizes and seed 1, with its number of
    ratio calls."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_ratios(mp)
        for kind in KINDS:
            calls["ratio"] = 0
            value = brute_force_K(ascent_problem(bench_problem(kind)),
                                  np.random.default_rng(1))
            runs[kind] = (value, calls["ratio"])
    return runs


@pytest.mark.parametrize("kind", KINDS)
def test_lockstep_ascent_matches_sequential_at_defaults(default_runs, kind):
    want = sequential_brute_force_K(ascent_problem(bench_problem(kind)),
                                    np.random.default_rng(1))
    assert default_runs[kind][0] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_ratio_calls_do_not_grow_with_restarts(default_runs, monkeypatch,
                                               kind):
    # one ratio call for the start points and at most one per move, each
    # for all live restarts at once
    prob = ascent_problem(bench_problem(kind))
    dim = len(prob.u_seq) if kind == HEAD_SUM else 24
    budget = 1 + 4 * 30 * dim
    assert default_runs[kind][1] <= budget
    calls = _counting_ratios(monkeypatch)
    brute_force_K(prob, np.random.default_rng(1), n_restarts=1)
    assert 0 < calls["ratio"] <= budget


def test_no_restarts_give_zero():
    for kind in KINDS:
        assert brute_force_K(ascent_problem(bench_problem(kind)),
                             np.random.default_rng(1), n_restarts=0) == 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_no_sweeps_give_the_best_start(kind):
    prob = ascent_problem(bench_problem(kind))
    ratio, dim = _sequential_ratio(prob, 10)
    starts = np.random.default_rng(5).lognormal(0.0, 1.0, size=(4, dim))
    want = max(0.0, *(ratio(x) for x in starts))
    got = brute_force_K(prob, np.random.default_rng(5), n_restarts=4,
                        n_cells=10, n_sweeps=0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_vanishing_rhs_weight_reads_zero_without_warning():
    prob = HardyProblem(HEAD_SUM, 1.0, 0.5, u_seq=np.ones(4),
                        v_seq=np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert brute_force_K(prob, np.random.default_rng(0)) == 0.0


# -- the cell form against the exact ratio of its test function ---------------

def _cell_edges(f, g, n_cells):
    """The cell edges of a continuous problem with weights f and g."""
    knots = sorted({k for s in (f, g) for k in s.breakpoints if k > 0})
    lo = (knots[0] if knots else 1.0) / 100.0
    hi = (knots[-1] if knots else 1.0) * 100.0
    return np.geomspace(lo, hi, n_cells + 1)


def _quad(fn, a, b, knots):
    """int_a^b fn by scipy's quad, split at the knots."""
    from scipy.integrate import quad
    cuts = [a, *(k for k in knots if a < k < b), b]
    return math.fsum(quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for lo, hi in zip(cuts[:-1], cuts[1:]))


def _exact_ratio(prob, n_cells, x):
    """The exact ratio of the test function that the cell form reads for
    input x: the discrete norms by their sums, the continuous ones by
    scipy's quad, and the reverse sup on a fine grid."""
    pp, qq = float(prob.pp), float(prob.qq)
    if prob.kind == HEAD_SUM:
        u, v = np.asarray(prob.u_seq), np.asarray(prob.v_seq)
        tails = np.cumsum(x[::-1])[::-1]
        return (float(np.sum(u * tails ** qq)) ** (1 / qq)
                / float(np.sum(v * x ** pp)) ** (1 / pp))
    if prob.kind == REVERSE:
        e = _cell_edges(prob.w, prob.nu, n_cells)
        e[0] = 0.0
        lev = np.cumsum(x[::-1])[::-1]
        lhs = math.fsum(lv ** qq * _quad(prob.w, a, b, prob.w.breakpoints)
                        for lv, a, b in zip(lev, e[:-1], e[1:])) ** (1 / qq)
        t = np.union1d(np.geomspace(e[1] / 1e3, e[-1] * 1e3, 20001), e[1:])
        F = np.interp(t, e, np.concatenate([[0.0],
                                            np.cumsum(lev * np.diff(e))]))
        return lhs / float(np.max(prob.nu.at(t) / t * F))
    u, v = prob.u_w, prob.v_w
    e = _cell_edges(u, v, n_cells)
    mass = x * np.diff(e)
    if prob.kind == HEAD_INTEGRAL:  # int_0^t g on cell j, and beyond
        before = np.concatenate([[0.0], np.cumsum(mass)[:-1]])
        inner = [lambda t, j=j: before[j] + x[j] * (t - e[j])
                 for j in range(n_cells)]
        ends = (e[-1], math.inf)
    else:  # int_t^inf g on cell j, and below
        after = np.cumsum(mass[::-1])[::-1] - mass
        inner = [lambda t, j=j: after[j] + x[j] * (e[j + 1] - t)
                 for j in range(n_cells)]
        ends = (0.0, e[0])
    lhs = math.fsum([mass.sum() ** qq * _quad(u, *ends, u.breakpoints),
                     *(_quad(lambda t, h=h: u(t) * h(t) ** qq, a, b,
                             u.breakpoints)
                       for h, a, b in zip(inner, e[:-1], e[1:]))])
    rhs = math.fsum(xj ** pp * _quad(v, a, b, v.breakpoints)
                    for xj, a, b in zip(x, e[:-1], e[1:]))
    return lhs ** (1 / qq) / rhs ** (1 / pp)


@pytest.mark.parametrize("kind", KINDS)
def test_cell_ratio_is_a_lower_bound_of_the_exact_ratio(kind):
    # random inputs on the benchmark's problem and five random problems:
    # the cell form never exceeds the exact ratio of its test function,
    # and it is exact for sequences
    pytest.importorskip("scipy")
    n_cells = 10
    rng = np.random.default_rng(11)
    probs = [bench_problem(kind),
             *random_hardy_problems(kind, np.random.default_rng(7), n=5)]
    for prob in probs:
        form = hardy._cell_form(prob, n_cells)
        for x in rng.lognormal(0.0, 1.0, size=(3, form.b.shape[1])):
            got = float(hardy._cell_ratio(form, x[None, :])[0])
            exact = _exact_ratio(prob, n_cells, x)
            assert 0.0 < got <= exact * (1.0 + 1e-9)
            if kind == HEAD_SUM:
                assert got == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_brute_force_reads_the_sharp_reverse_constant(R):
    # w = 1 on (0, R), nu = t, qq = 1/2: (int_0^R f**(1/2))**2 <= R int_0^R f
    # by Cauchy-Schwarz, with equality for f constant on (0, R), so the
    # optimal constant is R
    prob = HardyProblem(REVERSE, 1.0, 0.5, w=StepFunction.indicator(R),
                        nu=StepFunction.power(1.0, -1))
    for seed in (1, 2, 3):
        best = brute_force_K(prob, np.random.default_rng(seed))
        assert best == pytest.approx(R, rel=1e-9, abs=0.0)
        assert best <= R * (1.0 + 1e-12)


# -- the oracle at pp = qq = 2: the top of the cell form ----------------------

def classical_problem(kind):
    """The classical Hardy inequality (head_integral, u = t^-2 and v = 1)
    or its dual (tail_integral, u = 1 and v = t^2), both with the sharp
    constant 2 (Hardy, Littlewood & Polya 1934, 9.8)."""
    if kind == HEAD_INTEGRAL:
        return HardyProblem(HEAD_INTEGRAL, 2.0, 2.0,
                            u_w=StepFunction.power(1.0, 2),
                            v_w=StepFunction.constant(1.0))
    return HardyProblem(TAIL_INTEGRAL, 2.0, 2.0,
                        u_w=StepFunction.constant(1.0),
                        v_w=StepFunction.power(1.0, -2))


@pytest.mark.parametrize("kind", [HEAD_INTEGRAL, TAIL_INTEGRAL])
def test_oracle_rises_to_the_sharp_constant(kind):
    # finer cells admit more test functions, so the maximum rises, and it
    # stays below the sharp constant; the ascent never beats it
    values = []
    for n_cells in (10, 24, 96):
        got = brute_force_K(classical_problem(kind), np.random.default_rng(1),
                            n_cells=n_cells)
        ascent = sequential_brute_force_K(classical_problem(kind),
                                          np.random.default_rng(1), 4,
                                          n_cells, 8)
        assert got >= ascent * (1.0 - 1e-12)
        values.append(got)
    assert values[0] < values[1] < values[2] <= 2.0
    if kind == HEAD_INTEGRAL:
        assert values == pytest.approx([1.4716, 1.6428, 1.7569], rel=1e-4)


def _top_eigenvalue_root(form):
    """sqrt(lambda_max(D^-1/2 Q D^-1/2)) by LAPACK, over the columns with
    v mass: the maximum of the form at pp = qq = 2."""
    Q = form.a.T @ (form.u[:, None] * form.a)
    on = form.v > 0
    s = form.v[on] ** -0.5
    return math.sqrt(np.linalg.eigvalsh(Q[np.ix_(on, on)]
                                        * np.outer(s, s))[-1])


@pytest.mark.parametrize("kind", [HEAD_INTEGRAL, TAIL_INTEGRAL])
def test_oracle_is_the_maximum_of_the_cell_form(kind):
    # the benchmark's problem and six random ones: the oracle is the form's
    # ratio at its input, the top eigenvalue's root, at least the ratio of
    # every random input, and at most the exact ratio of its test function
    pytest.importorskip("scipy")
    rng = np.random.default_rng(13)
    probs = [bench_problem(kind),
             *random_hardy_problems(kind, np.random.default_rng(7), n=6)]
    for prob in probs:
        for n_cells in (10, 24):
            form = hardy._cell_form(prob, n_cells)
            x = hardy._rayleigh_input(form)
            got = brute_force_K(prob, rng, n_cells=n_cells)
            assert got == float(hardy._cell_ratio(form, x[None, :])[0])
            assert got == pytest.approx(_top_eigenvalue_root(form),
                                        rel=1e-10, abs=0.0)
            tries = rng.lognormal(0.0, 1.0, size=(1000, len(x)))
            assert hardy._cell_ratio(form, tries).max() <= got * (1 + 1e-12)
            assert got <= _exact_ratio(prob, n_cells, x) * (1.0 + 1e-9)


def test_oracle_infinite_where_a_cell_reaches_infinite_u_mass():
    # u = t^(-1/2) is not integrable at infinity, so the last row of the
    # head form has infinite u mass and every input reaches it
    prob = HardyProblem(HEAD_INTEGRAL, 2.0, 2.0,
                        u_w=StepFunction.power(1.0, 0.5),
                        v_w=StepFunction.power(1.0, -1))
    assert hardy._cell_form(prob, 24).a_inf.any()
    assert brute_force_K(prob, np.random.default_rng(1)) == math.inf
    assert hardy_K(prob).is_infinite


def test_oracle_infinite_where_a_cell_without_v_mass_is_read():
    # v = 0 on (0, 1): a level there costs nothing on the right side and
    # raises the left one, so the form is unbounded
    v = StepFunction.from_cells([0.0, 1.0], [0.0, 1.0],
                                tail=TailSpec.power(0))
    prob = HardyProblem(HEAD_INTEGRAL, 2.0, 2.0,
                        u_w=StepFunction.power(1.0, 2), v_w=v)
    form = hardy._cell_form(prob, 24)
    assert not form.a_inf.any() and (form.v == 0.0).any()
    assert brute_force_K(prob, np.random.default_rng(1)) == math.inf
    assert hardy_K(prob).is_infinite
