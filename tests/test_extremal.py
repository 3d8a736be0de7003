import math
from fractions import Fraction

import numpy as np
import pytest

from fourierineq import extremal
from fourierineq.criteria import ExponentConfig
from fourierineq.extremal import (SampledSignal, bracket_constant,
                                  block_l2_condition, cube_pair_condition,
                                  dft, lower_bound_annuli, modulated_bump,
                                  random_band_limited, ratio, step_profile,
                                  symmetric_block_condition, weighted_norm)
from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.weights import NONDECREASING, NONINCREASING, WeightSpec


def gaussian(N=4096, L=64.0):
    dx = L / N
    xs = -L / 2 + dx * np.arange(N)
    return SampledSignal(np.exp(-math.pi * xs ** 2) + 0j, L)


def test_dft_gaussian_self_dual():
    f = gaussian()
    F = dft(f)
    # N = L^2 makes the dual grid coincide with the original one
    assert F.L == pytest.approx(f.L)
    assert np.max(np.abs(F.values - f.values)) < 1e-6


def test_dft_box_at_zero_frequency():
    N, L = 4096, 64.0
    dx = L / N
    xs = -L / 2 + dx * np.arange(N)
    f = SampledSignal((np.abs(xs) <= 0.5).astype(complex), L)
    F = dft(f)
    k0 = np.argmin(np.abs(F.xs))
    # hat f(0) = integral of f = 1 (+dx for the rectangle-rule edge cell)
    assert abs(F.values[k0]) == pytest.approx(1.0, abs=2 * dx)


def test_discrete_plancherel_exact():
    rng = np.random.default_rng(0)
    f = random_band_limited(rng)
    assert weighted_norm(dft(f), 2) == pytest.approx(
        weighted_norm(f, 2), rel=1e-12)


def test_hausdorff_young_on_sample():
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = random_band_limited(rng)
        assert weighted_norm(dft(f), math.inf) <= \
            weighted_norm(f, 1) + 1e-9


def test_weighted_norm_values():
    f = gaussian()
    w = WeightSpec.indicator(1e9)  # effectively 1 on the window
    n1 = weighted_norm(f, 2, w)
    n2 = weighted_norm(f, 2)
    assert n1 == pytest.approx(n2, rel=1e-12)
    assert weighted_norm(f, math.inf) == pytest.approx(1.0, rel=1e-9)


def test_ratio_scale_invariance():
    rng = np.random.default_rng(2)
    f = random_band_limited(rng)
    g = SampledSignal(5.0 * f.values, f.L)
    u = WeightSpec.one()
    v = WeightSpec.one(NONDECREASING)
    cfg = ExponentConfig(2, 2)
    assert ratio(f, u, v, cfg) == pytest.approx(ratio(g, u, v, cfg),
                                                rel=1e-12)


def test_step_profile_preserves_l2_mass():
    rng = np.random.default_rng(3)
    f = random_band_limited(rng)
    prof = step_profile(f)
    mass = prof.pow_compose(2.0).integrate().value
    assert mass == pytest.approx(weighted_norm(f, 2) ** 2, rel=1e-9)


def test_modulated_bump_achieves_degenerate_constant():
    # q = inf, p = 2: best constant is ||u||_inf ||v^{-1}||_{p'}-type; the
    # modulated bump f = v^{-p'} gets within discretization error
    grow = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                   tail=TailSpec.power(-1))
    v = WeightSpec.from_table(grow, NONDECREASING)
    u = WeightSpec.indicator(1.0)
    cfg = ExponentConfig(2, math.inf)
    f = modulated_bump(u, v, cfg)
    r = ratio(f, u, v, cfg)
    # ratio = int f / ||v^{-1}||_2 = 2I / sqrt(2I) = sqrt(2I), I = int v^{-2}
    ref = math.sqrt(2.0 * grow.pow_compose(-2.0).integrate().value)
    assert r == pytest.approx(ref, rel=1e-2)


def test_cube_pair_plancherel():
    u = WeightSpec.one()
    v = WeightSpec.one(NONDECREASING)
    c = cube_pair_condition(u, v, ExponentConfig(2, 2))
    assert c.is_finite and c.value == pytest.approx(1.0, rel=1e-9)


def test_block_l2_condition():
    cfg = ExponentConfig(3, 2)
    u = WeightSpec.indicator(1.0)
    v_const = WeightSpec.one(NONDECREASING)
    r = block_l2_condition(u, v_const, cfg, s=1.0)
    assert r.is_infinite  # constant v: the block sums diverge
    grow = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                   tail=TailSpec.power(-1))
    v = WeightSpec.from_table(grow, NONDECREASING)
    r2 = block_l2_condition(u, v, cfg, s=1.0)
    assert r2.is_finite and r2.value > 0


def test_symmetric_block_condition():
    cfg = ExponentConfig(3, Fraction(1, 2))
    u = WeightSpec.indicator(1.0)
    grow = StepFunction.from_cells([0.0, 1.0], [1.0, 1.0],
                                   tail=TailSpec.power(-1))
    v = WeightSpec.from_table(grow, NONDECREASING)
    block, tail = symmetric_block_condition(u, v, cfg, t=1.0)
    assert block.is_finite and block.value > 0
    assert tail.is_finite  # u compact: its q#-tail beyond t=1 vanishes
    assert tail.value == 0.0


def test_bracket_plancherel_pin():
    rng = np.random.default_rng(7)
    u = WeightSpec.one()
    v = WeightSpec.one(NONDECREASING)
    br = bracket_constant(u, v, ExponentConfig(2, 2), rng, n_random=4)
    assert br.upper.is_finite and br.upper.value == pytest.approx(1.0,
                                                                  abs=1e-12)
    assert br.lower >= 1.0 - 1e-6
    assert br.lower <= br.upper.value + 1e-9


def test_bracket_json():
    rng = np.random.default_rng(7)
    u = WeightSpec.one()
    v = WeightSpec.one(NONDECREASING)
    br = bracket_constant(u, v, ExponentConfig(2, 2), rng, N=512, L=16.0,
                          n_random=2)
    j = br.to_json()
    assert set(j) >= {"lower", "upper", "regime", "witnesses"}
    assert j["regime"] == "I"


def test_linear_sign_ratio_matches_direct_ratio():
    # T(sum eps_n block_n) = sum eps_n T(block_n): the sign ascent's ratio
    # from precomputed block transforms equals the ratio of the assembled
    # signal
    rng = np.random.default_rng(5)
    N, L = 1024, 32.0
    u = WeightSpec.indicator(2.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    for cfg in (ExponentConfig(3, 2), ExponentConfig(math.inf, 1)):
        shells, Wn = extremal._annuli_shells(v, cfg, N, L, 6)
        for blocks in (extremal._translate_blocks(v, cfg, N, L, 6),
                       (Wn ** 0.5)[:, None] * shells):
            ratio_of = extremal._block_ratio(blocks, L, u, v, cfg)
            for _ in range(4):
                eps = rng.choice([-1.0, 1.0], size=len(blocks))
                f = SampledSignal(sum(e * b for e, b in zip(eps, blocks)), L)
                assert ratio_of(eps) == pytest.approx(ratio(f, u, v, cfg),
                                                      rel=1e-12)
