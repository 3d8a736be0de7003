"""End-to-end acceptance suite.

Each test pins one advertised guarantee of the package: exact rearrangement
identities, the transform's norm inequalities on sampled signals, the
level-function domination constant, exact classification of power-weight
configurations, sharpness of the degenerate constant, duality invariance,
two-sidedness of the Hardy constants, comparability of the correction weight,
sequence-norm equivalences, and consistency of the two-sided constant
brackets.  Tolerances are fixed; regression pins were recorded from the
first certified run and are asserted with the stated bands.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fourierineq.calderon import verify_joint_type
from fourierineq.criteria import (ExponentConfig, U_func, dual_config,
                                  evaluate, xi_func)
from fourierineq.extremal import (bracket_constant, dft, modulated_bump,
                                  random_band_limited, ratio, weighted_norm)
from fourierineq.hardy import (HEAD_INTEGRAL, HEAD_SUM, REVERSE,
                               TAIL_INTEGRAL, brute_force_K, hardy_K)
from fourierineq.norms import (SequenceData, bochkarev_norm,
                               dyadic_block_norms, gamma_norm, theta_norm)
from fourierineq.pieces import StepFunction, TailSpec
from fourierineq.rearrange import hl_pairing, star
from fourierineq.weights import NONDECREASING, NONINCREASING, WeightSpec

from conftest import measure_above, random_cells, random_hardy_problems


# -- 1. exact rearrangement identities --------------------------------------

def test_rearrangement_identities_on_1000_samples():
    rng = np.random.default_rng(2024)
    fs = [random_cells(rng) for _ in range(1000)]
    for i, f in enumerate(fs):
        fstar = star(f)
        # equimeasurability, exactly (up to fsum rounding of reordered sums)
        levels = sorted({v for v in f.values if not math.isnan(v)})
        probes = levels + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        for lam in probes + [0.0]:
            assert abs(measure_above(f, lam)
                       - measure_above(fstar, lam)) <= 1e-10
        # star is idempotent, piece for piece
        fss = star(fstar)
        assert fss.breakpoints == fstar.breakpoints
        assert fss.values == fstar.values
        # the pairing bound for consecutive sample pairs
        if i % 2 == 1:
            g = fs[i - 1]
            direct = (f.refine(g.breakpoints) * g.refine(f.breakpoints)
                      ).integrate()
            paired = hl_pairing(f, g)
            assert direct.value <= paired.value + 1e-9 * (1 + paired.value)


# -- 2. transform norm inequalities on sampled signals -----------------------

def test_transform_endpoint_inequalities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = random_band_limited(rng, N=4096, L=64.0)
        F = dft(f)
        assert weighted_norm(F, math.inf) <= weighted_norm(f, 1) + 1e-9
        assert abs(weighted_norm(F, 2) / weighted_norm(f, 2) - 1.0) <= 1e-6


# -- 3. level-function domination constant (regression pin) ------------------

JOINT_TYPE_PIN = 0.6186  # first certified run, seed 7, 100 signals


def test_joint_type_constant_pinned_and_seed_stable():
    values = {}
    for seed in (7, 11, 13):
        rng = np.random.default_rng(seed)
        sigs = [random_band_limited(rng, N=4096, L=64.0)
                for _ in range(100)]
        cert = verify_joint_type(sigs)
        assert math.isfinite(cert.bestK)
        values[seed] = cert.bestK
    assert values[7] == pytest.approx(JOINT_TYPE_PIN, rel=0.10)
    for seed in (11, 13):
        assert values[seed] == pytest.approx(values[7], rel=0.10)


# -- 4. exact classification of the power-weight grid ------------------------

def test_power_weight_grid_classified_exactly():
    # and each finite C3 is Pitt's sharp constant, the sup form's constant
    # value (1 - lam q)**(-1/q) (1 - alpha p')**(-1/p')
    ps = [1 + Fraction(k, 4) for k in range(1, 21)]      # 20 values in (1, 6]
    alphas = [Fraction(j - 5, 16) for j in range(20)]    # 20 values
    mismatches = []
    off_closed_form = []
    for p in ps:
        for q in ps:
            if p > q:
                continue  # grid restricted to 1 < p <= q < inf
            pprime = p / (p - 1)
            for al in alphas:
                lam = 1 / p + 1 / q + al - 1  # exact balance exponent
                expected = (0 <= al < 1 / pprime) and (0 <= lam < 1 / q)
                u = (WeightSpec.one() if lam == 0
                     else WeightSpec.power(lam, NONINCREASING))
                v = (WeightSpec.one(NONDECREASING) if al == 0
                     else WeightSpec.power(al, NONDECREASING))
                rep = evaluate(u, v, ExponentConfig(p, q))
                if rep.holds != expected:
                    mismatches.append((p, q, al))
                if rep.holds:
                    closed = (float(1 - lam * q) ** (-1 / float(q))
                              * float(1 - al * pprime) ** (-1 / float(pprime)))
                    if rep.constants["C3"].value != pytest.approx(
                            closed, rel=1e-13, abs=0.0):
                        off_closed_form.append((p, q, al))
    assert mismatches == []
    assert off_closed_form == []


# -- 5. the unweighted constant is exactly 1 ---------------------------------

def test_unweighted_constant_pinned():
    u = WeightSpec.one()
    v = WeightSpec.one(NONDECREASING)
    cfg = ExponentConfig(2, 2)
    rep = evaluate(u, v, cfg)
    assert rep.constants["C3"].value == 1.0
    br = bracket_constant(u, v, cfg, np.random.default_rng(7), n_random=4)
    assert br.lower >= 1.0 - 1e-6
    assert br.lower <= br.upper.value + 1e-9


# -- 6. degenerate sharpness: the bump witness reaches the product constant --

def test_degenerate_constant_is_achieved():
    u = WeightSpec.indicator(1.0)
    checked = 0
    for growth in (1.0, 2.0):
        for scale in (1.0, 2.0, 4.0):
            grow = StepFunction.from_cells(
                [0.0, scale], [scale ** growth] * 2,
                tail=TailSpec.power(-growth))
            v = WeightSpec.from_table(grow, NONDECREASING)
            for p in (2, 3):
                if checked >= 10:
                    break
                cfg = ExponentConfig(p, math.inf)
                f = modulated_bump(v, cfg)
                r = ratio(f, u, v, cfg)
                pp = p / (p - 1)
                ref = (2.0 * grow.pow_compose(-pp).integrate().value
                       ) ** (1.0 / pp)
                assert r >= 0.9 * ref, (growth, scale, p, r / ref)
                assert r <= ref * (1.0 + 1e-3)  # rectangle-rule error scale
                checked += 1
    assert checked == 10


# -- 7. duality invariance ----------------------------------------------------

def test_dual_problem_finiteness_invariant():
    ps = [Fraction(5, 4), Fraction(3, 2), 2, 3, 4]
    lams = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 4)]
    als = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(-1, 8)]
    n = 0
    for p in ps:
        for q in ps:
            for lam, al in zip(lams, als):
                if n >= 50:
                    return
                u = (WeightSpec.power(lam, NONINCREASING) if lam
                     else WeightSpec.one())
                v = (WeightSpec.power(al, NONDECREASING) if al
                     else WeightSpec.one(NONDECREASING))
                cfg = ExponentConfig(p, q)
                du, dv, dcfg = dual_config(u, v, cfg)
                assert (evaluate(u, v, cfg).governing.is_finite
                        == evaluate(du, dv, dcfg).governing.is_finite), \
                    (p, q, lam, al)
                n += 1


# -- 8. Hardy constants are two-sided ----------------------------------------

@pytest.mark.parametrize("kind", [HEAD_SUM, HEAD_INTEGRAL, TAIL_INTEGRAL,
                                  REVERSE])
def test_hardy_constant_two_sided(kind):
    C_EQUIV = 8.0
    probs = random_hardy_problems(kind, np.random.default_rng(42))
    per_seed = {}
    for seed in (1, 2):
        ratios = []
        for prob in probs:
            K = hardy_K(prob)
            assert K.is_finite and K.value > 0
            best = brute_force_K(prob, np.random.default_rng(seed),
                                 n_restarts=4, n_cells=10, n_sweeps=8)
            r = best / K.value
            assert 1.0 / C_EQUIV <= r <= C_EQUIV
            ratios.append(r)
        per_seed[seed] = np.array(ratios)
    drift = np.max(np.abs(per_seed[1] - per_seed[2]) / per_seed[1])
    assert drift <= 0.10


# -- 9. the correction weight stays comparable to U ---------------------------

def test_xi_comparable_to_U_for_power_weights():
    cases = []
    for (p, q) in [(3, Fraction(1, 2)), (4, Fraction(2, 3)), (3, 1),
                   (5, Fraction(3, 2)), (4, Fraction(1, 3))]:
        cfg = ExponentConfig(p, q)
        lo, hi = 1 / Fraction(cfg.q_sharp), 1 / Fraction(q)
        for k in (1, 2):  # interior of the admissible decay interval
            cases.append((cfg, lo + (hi - lo) * Fraction(k, 4)))
    assert len(cases) == 10
    ts = np.geomspace(1e-4, 1e4, 200)
    for cfg, lam in cases:
        u = WeightSpec.power(lam, NONINCREASING)
        xi = xi_func(u, cfg)
        U = U_func(u, cfg)
        rs = [xi(float(t)) / U(float(t)) for t in ts]
        assert max(rs) <= 4.0
        assert max(1.0 / r for r in rs) <= 4.0


# -- 10. sequence-norm equivalences -------------------------------------------

def test_sequence_norms_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(1, 200))
        a = SequenceData(rng.lognormal(0.0, 1.5, m))
        for p in (3.0, 4.0, math.inf):
            th = theta_norm(a, p).value
            assert bochkarev_norm(a, p) <= th * (1.0 + 1e-9)
            if not math.isinf(p):
                blk = dyadic_block_norms(a, p)
                assert 0.5 * th <= blk <= 2.0 * th
        for q in (0.5, 1.0):
            g = gamma_norm(a, q).value
            blk = dyadic_block_norms(a, q)
            assert 0.5 * g <= blk <= 2.0 * g


def test_trig_polynomial_coefficient_norms():
    # theta norm of the coefficients vs the sampled Lorentz(2, p) norm of
    # the polynomial on the (measure-1) torus; ratio bands are regression
    # pins from the first certified run
    rng = np.random.default_rng(9)
    Ns = 8192
    theta_grid = np.linspace(0, 2 * np.pi, Ns, endpoint=False)
    ts = (np.arange(Ns) + 0.5) / Ns
    ratios = {3.0: [], 4.0: [], math.inf: []}
    for _ in range(100):
        m = int(rng.integers(2, 60))
        b = rng.lognormal(0.0, 1.0, m)
        phases = rng.uniform(0, 2 * np.pi, m)
        ks = np.arange(1, m + 1)
        f = np.abs(np.sum(b[:, None] * np.exp(
            1j * (ks[:, None] * theta_grid[None, :] + phases[:, None])),
            axis=0))
        fstar = np.sort(f)[::-1]
        a = SequenceData(b)
        for p in ratios:
            if math.isinf(p):
                lor = float(np.max(np.sqrt(ts) * fstar))
            else:
                lor = float(np.sum((np.sqrt(ts) * fstar) ** p / ts / Ns)
                            ) ** (1.0 / p)
            ratios[p].append(theta_norm(a, p).value / lor)
    for p, rs in ratios.items():
        assert 0.5 <= min(rs) and max(rs) <= 3.0, (p, min(rs), max(rs))


# -- 11. two-sided brackets are consistent ------------------------------------

def test_bracket_consistency_localized_u():
    BAND = 1.5  # half-line vs full-line measure conventions differ by <= this
    cfg = ExponentConfig(3, 2)
    n = 0
    for R in (0.5, 1.0, 2.0, 4.0, 8.0):
        for gamma in (Fraction(1, 4), Fraction(1, 2)):
            u = WeightSpec.indicator(R)
            v = WeightSpec.power(gamma, NONDECREASING)
            lows = []
            for seed in (7, 11):
                br = bracket_constant(u, v, cfg, np.random.default_rng(seed),
                                      n_random=4)
                assert br.upper.is_finite
                assert math.isfinite(br.lower) and br.lower > 0
                assert br.lower <= BAND * br.upper.value
                lows.append(br.lower)
            assert abs(lows[0] - lows[1]) / lows[0] <= 0.15
            n += 1
    assert n == 10
