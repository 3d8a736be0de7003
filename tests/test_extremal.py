import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fourierineq import extremal, pieces
from fourierineq.criteria import ExponentConfig
from fourierineq.extremal import (SampledSignal, bracket_constant,
                                  block_l2_condition, cube_pair_condition,
                                  dft, lower_bound_annuli,
                                  lower_bound_translates, modulated_bump,
                                  random_band_limited, ratio, step_profile,
                                  symmetric_block_condition, weighted_norm)
from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.weights import (NONDECREASING, NONINCREASING, WeightSpec,
                                 parse_weight)


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


def test_dft_of_rows_is_the_dft_of_each_row():
    rng = np.random.default_rng(4)
    rows = [random_band_limited(rng, 512, 16.0) for _ in range(3)]
    F = dft(SampledSignal([f.values for f in rows], 16.0))
    assert F.values.shape == (3, 512) and F.N == 512
    for f, Tf in zip(rows, F.values):
        assert np.array_equal(Tf, dft(f).values)


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
    f = modulated_bump(v, cfg)
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
    # T(sum eps_n block_n) = sum eps_n T(block_n), and disjoint blocks give
    # ||v f||_p from the block norms: the batched evaluator's ratio of each
    # row of patterns equals the ratio of the assembled signal
    rng = np.random.default_rng(5)
    N, L = 1024, 32.0
    u = WeightSpec.indicator(2.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    for cfg, M in itertools.product(
            (ExponentConfig(3, 2), ExponentConfig(math.inf, 1),
             ExponentConfig(6, Fraction(3, 2)), ExponentConfig(4, 3),
             ExponentConfig(3, 1)), (4, 6)):
        ratios = extremal._GridRatios(u, v, cfg, N, L)
        shells, Wn = extremal._annuli_shells(ratios, M)
        for blocks in (extremal._translate_blocks(ratios, M),
                       (Wn ** 0.5)[:, None] * shells):
            ratio_of = extremal._block_ratio(blocks, ratios)
            E = rng.choice([-1.0, 1.0], size=(4, len(blocks)))
            for eps, r in zip(E, ratio_of(E)):
                f = SampledSignal(sum(e * b for e, b in zip(eps, blocks)), L)
                assert r == pytest.approx(ratio(f, u, v, cfg), rel=1e-12)


def test_translate_blocks_partition_the_grid():
    # half-open blocks -s <= x - 2ns < s: no grid point lies in two blocks
    # (the closed blocks shared one at n_blocks = 2 and 11, three at 4)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    for N, L in ((512, 16.0), (1024, 32.0), (256, 64.0)):
        for M in range(1, 13):
            blocks = extremal._translate_blocks(extremal._GridRatios(
                WeightSpec.one(), v, ExponentConfig(3, 2), N, L), M)
            assert np.max(np.count_nonzero(blocks, axis=0)) <= 1


def test_block_ratio_refuses_overlapping_blocks():
    N, L = 512, 16.0
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    cfg = ExponentConfig(3, 2)
    ratios = extremal._GridRatios(u, v, cfg, N, L)
    blocks = extremal._translate_blocks(ratios, 6)
    blocks[1] += blocks[0]
    with pytest.raises(ValueError, match="disjoint"):
        extremal._block_ratio(blocks, ratios)


THETAS = (-0.5, 0.0, 0.25, 0.5, 1.0)  # lower_bound_annuli's amplitude family


def test_sign_search_is_the_brute_force_maximum():
    # the search over 2**(M-1) patterns equals the largest public ratio()
    # of every explicitly assembled signal over all 2**M patterns; at
    # q = 2 the search reads each pattern from the blocks' Gram matrix
    N, L = 512, 16.0
    u = WeightSpec.indicator(2.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    for cfg, M in ((ExponentConfig(3, 2), 6), (ExponentConfig(math.inf, 1), 6),
                   (ExponentConfig(4, 2), 6), (ExponentConfig(math.inf, 2), 6),
                   (ExponentConfig(3, 2), 10)):
        signs = [np.array(e)
                 for e in itertools.product((1.0, -1.0), repeat=M)]
        ratios = extremal._GridRatios(u, v, cfg, N, L)
        blocks = extremal._translate_blocks(ratios, M)
        brute = max(ratio(SampledSignal(eps @ blocks, L), u, v, cfg)
                    for eps in signs)
        assert lower_bound_translates(u, v, cfg, N, L, M) == pytest.approx(
            brute, rel=1e-12)
        shells, Wn = extremal._annuli_shells(ratios, M)
        brute = max(ratio(SampledSignal((eps * Wn ** th) @ shells, L),
                          u, v, cfg) for eps in signs for th in THETAS)
        assert lower_bound_annuli(u, v, cfg, N, L, M) == pytest.approx(
            brute, rel=1e-12)


def test_sign_search_skips_nan_rows():
    # u = |xi|^(-1/2) at (inf, 2): u**2 has no finite cell average at
    # xi = 0, so the dual weight is inf there, and a pattern whose transform
    # vanishes at xi = 0 has the ratio 0 * inf = NaN, the others inf; a
    # NaN row hid the rest of its batch, and the witness read 0.0
    N, L = 512, 16.0
    u = WeightSpec.power(Fraction(1, 2))
    v = WeightSpec.one(NONDECREASING)
    cfg = ExponentConfig(math.inf, 2)
    blocks = extremal._translate_blocks(
        extremal._GridRatios(u, v, cfg, N, L), 6)
    signs = [np.array(e) for e in itertools.product((1.0, -1.0), repeat=6)]
    with np.errstate(invalid="ignore"):
        rows = [ratio(SampledSignal(eps @ blocks, L), u, v, cfg)
                for eps in signs]
        witness = lower_bound_translates(u, v, cfg, N, L)
    assert any(math.isnan(r) for r in rows)
    assert max(r for r in rows if not math.isnan(r)) == math.inf
    assert witness == math.inf
    assert extremal.best_sign_ratio(
        lambda E: np.where(E[:, 0] > 0, np.nan, 2.0), 4) == 2.0
    assert extremal.best_sign_ratio(
        lambda E: np.full(len(E), np.nan), 4) == 0.0


@pytest.mark.parametrize("us, vs, p, q", [
    ("pow(1/2)", "pow(1/2)", 3, 2), ("pow(3/4)", "pow(1/4)", 4, 2),
    ("pow(1/2)", "pow(0)", math.inf, 2)])
def test_block_witnesses_of_a_singular_u_at_q2(us, vs, p, q):
    # u**2 = |xi|^(-2a) has no finite cell average at xi = 0 (2a >= 1), so
    # the dual weight is inf there: the Gram matrix would hold inf and NaN,
    # and these witnesses keep the per-pattern norms, which read inf
    u, v = parse_weight(us), parse_weight(vs, NONDECREASING)
    cfg = ExponentConfig(p, q)
    with np.errstate(invalid="ignore"):
        assert lower_bound_translates(u, v, cfg, 512, 16.0) == math.inf
        assert lower_bound_annuli(u, v, cfg, 512, 16.0) == math.inf


def test_block_witnesses_at_q2_take_no_dual_grid_norms(monkeypatch):
    # at q = 2, with u finite on the dual grid, a pattern's transform norm
    # is read from the Gram matrix; q != 2 and a singular u keep the
    # N-point norms of _GridRatios.transform_norms
    N, L = 512, 16.0
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    calls, transform_norms = [], extremal._GridRatios.transform_norms

    def counted(self, TF):
        calls.append(np.shape(TF))
        return transform_norms(self, TF)
    monkeypatch.setattr(extremal._GridRatios, "transform_norms", counted)
    for u, cfg, expect in (
            (WeightSpec.indicator(1.0), ExponentConfig(3, 2), False),
            (WeightSpec.power(Fraction(1, 4)), ExponentConfig(4, 2), False),
            (WeightSpec.indicator(1.0), ExponentConfig(3, 1), True),
            (WeightSpec.power(Fraction(1, 2)), ExponentConfig(3, 2), True)):
        calls.clear()
        lower_bound_translates(u, v, cfg, N, L)
        lower_bound_annuli(u, v, cfg, N, L)
        assert bool(calls) == expect


def ascent_sign_ratio(ratio_of, eps0, rng, n_draws=8):
    """The randomized 1-flip ascent that best_sign_ratio replaced, kept as
    a reference: n_draws starts (eps0, then random patterns), each
    improved one sign flip at a time while a flip raises the ratio."""
    best = 0.0
    M = len(eps0)
    for draw in range(n_draws):
        eps = eps0 if draw == 0 else rng.choice([-1.0, 1.0], size=M)
        cur = ratio_of(eps)
        improved = True
        while improved:
            improved = False
            for i in range(M):
                trial = eps.copy()
                trial[i] *= -1
                val = ratio_of(trial)
                if val > cur * (1 + 1e-12):
                    eps, cur = trial, val
                    improved = True
        best = max(best, cur)
    return best


def ascent_witnesses(u, v, cfg, rng, N, L):
    """(translates, annuli) as the ascent found them, drawing from rng in
    the order bracket_constant did (p > 2 and q < p)."""
    ratios = extremal._GridRatios(u, v, cfg, N, L)
    blocks = extremal._translate_blocks(ratios, 6)
    translate_ratio = extremal._block_ratio(blocks, ratios)
    translates = ascent_sign_ratio(lambda e: translate_ratio(e[None])[0],
                                   np.ones(6), rng)
    shells, Wn = extremal._annuli_shells(ratios, 6)
    shell_ratio = extremal._block_ratio(shells, ratios)
    annuli = max(ascent_sign_ratio(
        lambda e: shell_ratio(e[None] * Wn ** th)[0], np.ones(6), rng,
        n_draws=4) for th in THETAS)
    return translates, annuli


def test_sign_search_is_never_below_the_ascent():
    N, L = 512, 16.0
    for R, g, p, q in itertools.product((0.5, 2.0), (Fraction(1, 4),
                                                     Fraction(1, 2)),
                                        (3, 4, math.inf), (1, 2)):
        u = WeightSpec.indicator(R)
        v = WeightSpec.power(g, NONDECREASING)
        cfg = ExponentConfig(p, q)
        ascent = ascent_witnesses(u, v, cfg, np.random.default_rng(1), N, L)
        exact = (lower_bound_translates(u, v, cfg, N, L),
                 lower_bound_annuli(u, v, cfg, N, L))
        for a, e in zip(ascent, exact):
            assert e >= a * (1 - 1e-12)


def test_sign_search_beats_the_ascent_at_inf_1():
    # ind(2) against pow(1/4) at (inf, 1): with the rng of bracket_constant
    # at seed 3 (eight random signals drawn first), the ascent stopped at
    # annuli 5.7338; the exact maximum is 5.9063
    u = WeightSpec.indicator(2.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    cfg = ExponentConfig(math.inf, 1)
    rng = np.random.default_rng(3)
    for _ in range(8):
        random_band_limited(rng, 4096, 64.0)
    _, ascent = ascent_witnesses(u, v, cfg, rng, 4096, 64.0)
    exact = lower_bound_annuli(u, v, cfg)
    assert ascent == pytest.approx(5.733804, rel=1e-6)
    assert exact == pytest.approx(5.906331, rel=1e-6)
    assert exact > ascent


def test_block_witnesses_do_not_depend_on_rng():
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    cfg = ExponentConfig(3, 2)
    a, b = (bracket_constant(u, v, cfg, np.random.default_rng(seed),
                             N=512, L=16.0) for seed in (1, 2))
    assert a.witnesses["random_band_limited"] != \
        b.witnesses["random_band_limited"]
    for name in ("translates", "annuli"):
        assert a.witnesses[name] == b.witnesses[name]


def test_random_witness_is_the_best_ratio_of_its_draws():
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    cfg = ExponentConfig(3, 2)
    br = bracket_constant(u, v, cfg, np.random.default_rng(9), N=512, L=16.0)
    rng = np.random.default_rng(9)
    best = max(ratio(random_band_limited(rng, 512, 16.0), u, v, cfg)
               for _ in range(8))
    assert br.witnesses["random_band_limited"] == pytest.approx(best,
                                                                rel=1e-12)


def test_block_sums_are_decided_by_the_end_rule():
    # v = |x|^a at (p, q) = (4, 1), p' = 4/3 and p# = 4: the v-block terms
    # go like n^(-4a), sum_n n^(-1/2) at a = 1/8 and sum_n 1/n at a = 1/4
    u = WeightSpec.indicator(1.0)
    cfg = ExponentConfig(4, 1)
    for a in (Fraction(1, 8), Fraction(1, 4)):
        v = WeightSpec.power(a, NONDECREASING)
        block, _ = symmetric_block_condition(u, v, cfg, t=1.0)
        assert block.is_infinite
    # powlog(1/4, 1): terms like 1/(n log^4 n), a convergent series
    v = WeightSpec.powerlog(Fraction(1, 4), 1, NONDECREASING)
    r = block_l2_condition(u, v, cfg, s=1.0)
    assert r.is_finite and r.value == pytest.approx(2.0944, rel=1e-4)


def test_block_series_adds_its_remainder():
    # powlog(1/4, 1) at (p, q) = (4, 1), s = 1: the terms go like
    # 1/(n log^4 n), and the 4,000 blocks a side alone read 2.0944214.  The
    # reference is the partial sum of the first 4,000 blocks a side plus the
    # mpmath block tail 2 * integral_{N+1/2}^inf m(x)**3 dx, m(x) the mass of
    # v**(-4/3) on the block of width 2 centred at 2x (with 64,000 blocks
    # a side and their tail the sum agrees to 1e-12); recomputed with the
    # tail integrated in u = log x, it reads 2.0945212622
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.powerlog(Fraction(1, 4), 1, NONDECREASING)
    r = block_l2_condition(u, v, ExponentConfig(4, 1), s=1.0)
    assert r.is_finite and abs(r.value - 2.0945212260) < 1e-6


def test_block_sum_reaches_quadrature_in_one_batch(monkeypatch):
    # the blocks of a power-log profile are log-factor integrals: they reach
    # quad_cells together, in a bounded number of calls, not one per block
    cells = []
    quad_cells = pieces.quad_cells
    monkeypatch.setattr(pieces, "quad_cells", lambda at, a, b, *rest: (
        cells.append(len(a)), quad_cells(at, a, b, *rest))[1])
    prof = WeightSpec.powerlog(Fraction(1, 4), 1, NONDECREASING).profile()
    assert math.isfinite(extremal._block_sum(prof, Fraction(-4, 3), 3, 2.0))
    assert len(cells) <= 6 and sum(cells) > extremal._BLOCK_MAX


def test_block_l2_condition_borderline_growth_diverges():
    # v = |x|^{9/22} at p = 11 (p# = 22/9): the blocks give sum_n 1/n, so
    # the condition is infinite; the growth test compares exact exponents
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(9, 22), NONDECREASING)
    assert block_l2_condition(u, v, ExponentConfig(11, 2), s=1.0).is_infinite


def test_cube_pair_sup_is_C3():
    from fourierineq.criteria import C3
    u = WeightSpec.indicator(1.0)
    for g, p, q in ((Fraction(1, 4), 2, 2), (Fraction(3, 4), 2, 2),
                    (Fraction(1, 2), 2, 3)):
        v = WeightSpec.power(g, NONDECREASING)
        cfg = ExponentConfig(p, q)
        c = cube_pair_condition(u, v, cfg)
        assert repr(c) == repr(C3(u, v, cfg))
        # and the sup bounds every point value, a maximum at a kink
        # included (the maximum of the first case sits at s = 1)
        if c.is_finite:
            for s in (0.3, 1.0, 4.0):
                assert cube_pair_condition(u, v, cfg, s=s).value <= \
                    c.value * (1 + 1e-12)


def test_bracket_lower_skips_nan_witnesses(monkeypatch):
    # v = |x|^(-1/2) is infinite at x = 0, a sample of the signal grid:
    # the random and bump ratios read inf / inf or 0 * inf = NaN, which
    # bounds nothing, and came first in max(witnesses)
    u = WeightSpec.power(Fraction(1, 2))
    v = WeightSpec.power(Fraction(1, 2))
    cfg = ExponentConfig(3, 2)

    def bracket():
        with np.errstate(invalid="ignore"):
            return bracket_constant(u, v, cfg, np.random.default_rng(7),
                                    N=512, L=16.0, n_random=2)

    br = bracket()
    wit = br.witnesses
    assert math.isnan(wit["random_band_limited"])  # kept visible
    assert math.isnan(wit["modulated_bump"])
    assert br.lower == max(x for x in wit.values() if not math.isnan(x))
    nan = lambda *args, **kw: math.nan  # noqa: E731
    monkeypatch.setattr(extremal, "lower_bound_translates", nan)
    monkeypatch.setattr(extremal, "lower_bound_annuli", nan)
    br = bracket()
    assert all(math.isnan(x) for x in br.witnesses.values())
    assert br.lower == 0.0


def test_a_fault_in_a_witness_surfaces(monkeypatch):
    # bracket_constant catches nothing: a ValueError inside the translates
    # witness at (3, 2) reaches its caller
    def fail(*args):
        raise ValueError("a fault in a witness")
    monkeypatch.setattr(extremal, "_translate_blocks", fail)
    with pytest.raises(ValueError, match="a fault in a witness"):
        bracket_constant(WeightSpec.indicator(1.0),
                         WeightSpec.power(Fraction(1, 4), NONDECREASING),
                         ExponentConfig(3, 2), np.random.default_rng(3),
                         N=512, L=16.0, n_random=2)


def test_bracket_with_an_infinite_v_sample_warns_nothing():
    # the same bracket at the defaults, under the suite's filter, which
    # turns a RuntimeWarning into an error: inf / inf and 0 * inf in the
    # ratios are NaN witnesses, not warnings
    br = bracket_constant(WeightSpec.power(Fraction(1, 2)),
                          WeightSpec.power(Fraction(1, 2)),
                          ExponentConfig(3, 2), np.random.default_rng(7))
    wit = br.witnesses
    assert math.isnan(wit["random_band_limited"])
    assert math.isnan(wit["modulated_bump"])
    assert br.lower == max(x for x in wit.values() if not math.isnan(x))


def test_bracket_in_d3_reports_no_lower_bound():
    u = WeightSpec.indicator(1.0, d=3)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING, d=3)
    br = bracket_constant(u, v, ExponentConfig(3, 2, 3),
                          np.random.default_rng(7), N=256, n_random=2)
    assert br.lower is None and br.witnesses == {} and br.notes
    assert br.to_json()["lower"] is None
    with pytest.raises(ValueError, match="one dimension"):
        bracket_constant(u, WeightSpec.power(Fraction(1, 4), NONDECREASING),
                         ExponentConfig(3, 2, 3), np.random.default_rng(7))


def test_bracket_evaluates_each_weight_once(monkeypatch):
    # v on the signal grid and u on the dual grid, one call each, shared by
    # every witness (5 calls when each witness evaluated v again); the
    # witnesses are those of the public builders, bit for bit
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    cfg = ExponentConfig(3, 2)
    N, L = 512, 16.0
    calls, evaluate = [], WeightSpec.evaluate

    def counted(self, x):
        calls.append(self)
        return evaluate(self, x)
    monkeypatch.setattr(WeightSpec, "evaluate", counted)
    br = bracket_constant(u, v, cfg, np.random.default_rng(3), N=N, L=L)
    assert len(calls) == 2 and {id(w) for w in calls} == {id(u), id(v)}
    monkeypatch.undo()
    assert br.witnesses["modulated_bump"] == ratio(
        modulated_bump(v, cfg, N, L), u, v, cfg)
    assert br.witnesses["translates"] == lower_bound_translates(u, v, cfg,
                                                                N, L)
    assert br.witnesses["annuli"] == lower_bound_annuli(u, v, cfg, N, L)


def test_bracket_transforms_in_batches(monkeypatch):
    # one FFT call each for the random signals, the modulated bump, the
    # translate blocks and the annuli shells (21 with one call a signal)
    u = WeightSpec.indicator(1.0)
    v = WeightSpec.power(Fraction(1, 4), NONDECREASING)
    calls, fft = [], np.fft.fft

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fft(*args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted)
    br = bracket_constant(u, v, ExponentConfig(3, 2),
                          np.random.default_rng(3), N=512, L=16.0)
    assert set(br.witnesses) == {"random_band_limited", "modulated_bump",
                                 "translates", "annuli"}
    assert len(calls) <= 4
