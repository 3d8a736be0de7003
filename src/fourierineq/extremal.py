"""Discrete transform experiments: empirical ratios, constructive lower
bounds, necessary-condition functionals, and the two-sided bracket.

Signals are sampled on a uniform grid of N points (N a power of two) over
[-L/2, L/2); the transform is the quadrature-weighted DFT

    Tf(k/L) = (L/N) * sum_j f(x_j) exp(-2 pi i x_j k / L),

whose dual grid has spacing 1/L.  With these weights the discrete Plancherel
identity holds exactly and |Tf| is bounded by the discrete L1 norm, so the
elementary inequalities are reproduced to machine precision.

All norms here use ordinary Lebesgue measure on R (the criteria module works
in ball-measure half-line coordinates; the two conventions agree up to
bounded factors, which is why brackets are compared through tolerance bands
rather than equalities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import (ExponentConfig, CriterionReport, evaluate, classify,
                       _is_inf, REGIME_DEG_QINF)
from .extreal import ExtReal
from .pieces import StepFunction
from .weights import WeightSpec


@dataclass
class SampledSignal:
    values: np.ndarray  # complex samples at x_j = -L/2 + j L/N
    L: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        n = len(self.values)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("sample count must be a power of two")
        if not self.L > 0:
            raise ValueError("domain length must be positive")

    @property
    def N(self) -> int:
        return len(self.values)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def xs(self) -> np.ndarray:
        return -self.L / 2 + np.arange(self.N) * self.dx


def dft(sig: SampledSignal) -> SampledSignal:
    """Quadrature-weighted DFT; output is a SampledSignal on the dual grid
    (spacing 1/L, span N/L, frequencies -N/(2L) .. (N/2-1)/L)."""
    N = sig.N
    F = np.fft.fft(sig.values)
    k = np.arange(N)
    k[k >= N // 2] -= N  # frequency index of each FFT bin
    phase = np.where(k % 2 == 0, 1.0, -1.0)  # exp(i pi k), k in Z
    vals = sig.dx * phase * F
    return SampledSignal(np.fft.fftshift(vals), N / sig.L)


def _lp_norm(mags: np.ndarray, dx: float, p) -> float:
    """(dx sum mags^p)^(1/p); the max at p = inf."""
    if _is_inf(p):
        return float(np.max(mags))
    pf = float(p)
    return float((dx * np.sum(mags ** pf)) ** (1.0 / pf))


def weighted_norm(sig: SampledSignal, p, w: Optional[WeightSpec] = None
                  ) -> float:
    """(integral |w f|^p)^(1/p) by the grid quadrature; sup norm at p=inf."""
    mags = np.abs(sig.values)
    if w is not None:
        mags = mags * w.evaluate(np.abs(sig.xs))
    return _lp_norm(mags, sig.dx, p)


def ratio(f: SampledSignal, u: WeightSpec, v: WeightSpec,
          cfg: ExponentConfig) -> float:
    """Empirical ||u Tf||_q / ||v f||_p; a lower bound for the optimal C."""
    den = weighted_norm(f, cfg.p, v)
    if den == 0.0:
        return 0.0
    num = weighted_norm(dft(f), cfg.q, u)
    return num / den


def step_profile(sig: SampledSignal) -> StepFunction:
    """|f| as a compact step function (cell widths dx; layout irrelevant
    for rearrangement purposes)."""
    mags = np.abs(sig.values)
    grid = np.arange(sig.N + 1) * sig.dx
    return StepFunction.from_cells(grid.tolist(), mags.tolist())


def random_band_limited(rng: np.random.Generator, N: int = 4096,
                        L: float = 64.0, band_frac: float = 0.125
                        ) -> SampledSignal:
    """Random smooth signal: Gaussian spectrum restricted to a low band."""
    spec = (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    k = np.arange(N)
    k[k >= N // 2] -= N
    spec[np.abs(k) > band_frac * N / 2] = 0.0
    vals = np.fft.ifft(spec)
    return SampledSignal(vals, L)


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


def _vinv_pprime(v: WeightSpec, cfg: ExponentConfig, xs: np.ndarray
                 ) -> np.ndarray:
    pp = cfg.p_prime
    e = float(pp) if not _is_inf(pp) else 1.0
    vals = v.evaluate(np.abs(xs))
    with np.errstate(divide="ignore"):
        return np.where(vals > 0, vals ** (-e), np.inf)


def modulated_bump(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                   N: int = 4096, L: float = 64.0) -> SampledSignal:
    """f(x) = v(x)**(-p') e^{2 pi i xi0 x} with xi0 at the max of u.

    This witness makes ||u Tf||_inf approach ||u||_inf ||1/v||_{p'}
    ||f v||_p and is the sharpness witness in the degenerate regime."""
    sig = SampledSignal(np.zeros(N, dtype=complex), L)
    xs = sig.xs
    base = _vinv_pprime(v, cfg, xs)
    base[~np.isfinite(base)] = 0.0
    # u is radial non-increasing: its max over the dual grid sits at xi = 0
    sig.values = base.astype(complex)
    return sig


def _block_ratio(blocks: np.ndarray, L: float, u: WeightSpec, v: WeightSpec,
                 cfg: ExponentConfig):
    """eps -> ratio(SampledSignal(eps @ blocks, L), u, v, cfg).

    The transform is linear, T(sum eps_n block_n) = sum eps_n T(block_n),
    so the block transforms and both weight arrays are computed once and
    each call costs two matrix-vector products and two weighted norms."""
    f0 = SampledSignal(blocks[0], L)
    Ts = [dft(SampledSignal(b, L)) for b in blocks]
    Tblocks = np.array([T.values for T in Ts])
    vw = v.evaluate(np.abs(f0.xs))
    uw = u.evaluate(np.abs(Ts[0].xs))

    def ratio_of(eps: np.ndarray) -> float:
        den = _lp_norm(np.abs(eps @ blocks) * vw, f0.dx, cfg.p)
        if den == 0.0:
            return 0.0
        return _lp_norm(np.abs(eps @ Tblocks) * uw, Ts[0].dx, cfg.q) / den
    return ratio_of


def best_sign_ratio(ratio_of, eps0: np.ndarray, rng: np.random.Generator,
                    n_draws: int = 8) -> float:
    """Maximize ratio_of over sign patterns: random draws + 1-flip ascent."""
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


def _translate_blocks(v: WeightSpec, cfg: ExponentConfig, N: int, L: float,
                      n_blocks: int) -> np.ndarray:
    """Rows lambda_n v**(-p') 1_{|x - 2ns| <= s} of the translate witness."""
    p = float(cfg.p) if not _is_inf(cfg.p) else math.inf
    if not p > 2:
        raise ValueError("translate witness needs p > 2")
    sig0 = SampledSignal(np.zeros(N, dtype=complex), L)
    xs = sig0.xs
    base = _vinv_pprime(v, cfg, xs)
    base[~np.isfinite(base)] = 0.0
    s = L / (4.0 * n_blocks)
    masks = np.abs(xs - 2 * np.arange(n_blocks)[:, None] * s) <= s
    Vn = np.array([float(np.sum(base[m]) * sig0.dx) for m in masks])
    Vn = np.maximum(Vn, 1e-300)
    lam = Vn ** (1.0 / (p - 2.0)) if math.isfinite(p) else np.ones(n_blocks)
    return np.where(masks, lam[:, None] * base, 0.0)


def lower_bound_translates(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                           rng: np.random.Generator, N: int = 4096,
                           L: float = 64.0, n_blocks: int = 6) -> float:
    """Randomized translate witness for p > 2:

    f = v**(-p') sum_n eps_n lambda_n 1_{|x - 2ns| <= s},
    lambda_n = V_n**(1/(p-2)), V_n the local mass of v**(-p').
    """
    blocks = _translate_blocks(v, cfg, N, L, n_blocks)
    return best_sign_ratio(_block_ratio(blocks, L, u, v, cfg),
                           np.ones(n_blocks), rng)


def _annuli_shells(v: WeightSpec, cfg: ExponentConfig, N: int, L: float,
                   n_shells: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows v**(-p') 1_{shell n} for shells of dyadically halving
    v**(-p') mass inside radius 0.45 L, and the mass W_n of each shell."""
    sig0 = SampledSignal(np.zeros(N, dtype=complex), L)
    xs = sig0.xs
    base = _vinv_pprime(v, cfg, xs)
    base[~np.isfinite(base)] = 0.0
    radii = np.abs(xs)
    Rmax = 0.45 * L
    inside = radii <= Rmax
    total = float(np.sum(base[inside]) * sig0.dx)
    # shell boundaries alpha_n (descending) with mass total / 2**n outside
    order = np.argsort(radii)
    cum = np.cumsum(base[order] * sig0.dx)
    alphas = [Rmax]
    for n in range(1, n_shells):
        # mass inside alpha_n equals total / 2**n (dyadic halving)
        target = total * 2.0 ** (-n)
        idx = int(np.searchsorted(cum, target))
        alphas.append(float(radii[order][min(idx, N - 1)]))
    alphas.append(0.0)
    masks = np.array([(radii > alphas[n + 1]) & (radii <= alphas[n]) & inside
                      for n in range(n_shells)])
    Wn = np.array([max(float(np.sum(base[m]) * sig0.dx), 1e-300)
                   for m in masks])
    return np.where(masks, base, 0.0), Wn


def lower_bound_annuli(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                       rng: np.random.Generator, N: int = 4096,
                       L: float = 64.0, n_shells: int = 6) -> float:
    """Randomized annuli witness for q < p: shells of equal dyadic
    v**(-p') mass, amplitudes swept over a one-parameter power family and
    improved by sign ascent."""
    shells, Wn = _annuli_shells(v, cfg, N, L, n_shells)
    best = 0.0
    for theta in (-0.5, 0.0, 0.25, 0.5, 1.0):
        blocks = (Wn ** theta)[:, None] * shells
        best = max(best, best_sign_ratio(_block_ratio(blocks, L, u, v, cfg),
                                         np.ones(n_shells), rng, n_draws=4))
    return best


# ---------------------------------------------------------------------------
# necessary-condition functionals
# ---------------------------------------------------------------------------


def cube_pair_condition(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                        s: Optional[float] = None) -> ExtReal:
    """(int_{|A|=s} u^q)^{1/q} (int_{|B|=1/s} v^{-p'})^{1/p'} over centered
    balls with |A||B| = 1; the sup over s when s is None."""
    from .criteria import U_func, _W_func, _guarded
    from .symfunc import Divergence

    def compute() -> ExtReal:
        U = U_func(u, cfg)
        W = _W_func(v, cfg)
        qe = 1.0 / float(cfg.q)
        pe = 0.0 if _is_inf(cfg.p_prime) else 1.0 / float(cfg.p_prime)
        if s is not None:
            return ExtReal.finite(U(s) ** qe * (W(s) ** pe if pe else W(s)))
        prod = U.pow(1.0 / float(cfg.q)).mul(
            W if cfg.p == 1 else W.pow(1 / cfg.p_prime))
        return prod.sup()

    return _guarded(compute)


def _profile_interval_mass(prof: StepFunction, e: float, a: float, b: float
                           ) -> float:
    """integral_a^b w0(r)**e dr for 0 <= a < b (one side of the line)."""
    powed = prof.pow_compose(e)
    val = powed.integrate(max(a, 0.0), b)
    return val.value if val.is_finite else math.inf


def block_l2_condition(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                       s: float, n_max: int = 4000, rel_tol: float = 1e-10
                       ) -> ExtReal:
    """Translate-block necessary condition for p > 2 at spacing scale s:

    (int_{|A| = 1/s} u^q)^{1/q} * (sum_n V_n^{p#/p'})^{1/p#},
    V_n = mass of v**(-p') on the block of width 2s centered at 2ns.
    """
    if not (_is_inf(cfg.p) or cfg.p > 2):
        raise ValueError("block condition requires p > 2")
    q = float(cfg.q)
    pp = float(cfg.p_prime)
    psh = float(cfg.p_sharp)
    from .rearrange import circ_profile
    ustar = circ_profile(u)
    if any(math.isinf(pc.offset) for pc in ustar.pieces):
        return ExtReal.infinite("u* identically infinite")
    uval = ustar.pow_compose(q).integrate(0.0, 1.0 / s)
    if not uval.is_finite:
        return ExtReal.infinite(uval.reason)
    ufac = uval.value ** (1.0 / q)
    prof = v.profile()
    # symbolic tail check: v0 ~ r^g growth => V_n ~ 2s (2ns)^{-g p'},
    # terms ~ n^{-g p' p#/p'}; converges iff g * p# > 1
    last = prof.pieces[-1]
    if last.coef != 0.0:
        growth = float(last.a)  # v0 ~ r**growth at infinity
        if growth * psh <= 1.0:
            return ExtReal.infinite(
                "block sums diverge: v growth exponent too small "
                f"({growth:g} * p# <= 1)")
    elif last.offset > 0.0:
        return ExtReal.infinite("block sums diverge: v constant at infinity")
    # n = 0 block is symmetric around the origin
    e = psh / pp
    total = (2.0 * _profile_interval_mass(prof, -pp, 0.0, s)) ** e
    n = 1
    while n <= n_max:
        Vn = _profile_interval_mass(prof, -pp, 2 * n * s - s, 2 * n * s + s)
        term = 2.0 * Vn ** e  # blocks at +-2ns
        total += term
        if term < rel_tol * total and n > 8:
            break
        n += 1
    return ExtReal.finite(ufac * total ** (1.0 / psh))


def symmetric_block_condition(u: WeightSpec, v: WeightSpec,
                              cfg: ExponentConfig, t: float,
                              n_max: int = 4000, rel_tol: float = 1e-10
                              ) -> tuple[ExtReal, ExtReal]:
    """Two necessary functionals for 0 < q < 2 < p <= inf at scale t:

    block form  (sum_n (v**(-p') mass of block n/t)^{p#/p'})^{1/p#}
                * (sum_n (u^q mass of block n t)^{q#/q})^{1/q#},
    tail form   (int_{1/t}^inf v0^{-p#})^{1/p#} (int_t^inf u0^{q#})^{1/q#}.

    Returned as (block_form, tail_form).
    """
    q = float(cfg.q)
    qsh = float(cfg.q_sharp)
    pp = float(cfg.p_prime)
    psh = float(cfg.p_sharp)
    uprof = u.profile()
    vprof = v.profile()

    def block_sum(prof: StepFunction, e_in: float, e_out: float,
                  width: float) -> float:
        half = width / 2.0
        tot = (2.0 * _profile_interval_mass(prof, e_in, 0.0, half)) ** e_out
        n = 1
        while n <= n_max:
            m = _profile_interval_mass(prof, e_in, n * width - half,
                                       n * width + half)
            if math.isinf(m):
                return math.inf
            term = 2.0 * m ** e_out
            tot += term
            if term < rel_tol * tot and n > 8:
                break
            n += 1
        return tot

    vsum = block_sum(vprof, -pp, psh / pp, 1.0 / t)
    usum = block_sum(uprof, q, qsh / q, t)
    if math.isinf(vsum) or math.isinf(usum):
        block = ExtReal.infinite("block sums diverge")
    else:
        block = ExtReal.finite(vsum ** (1.0 / psh) * usum ** (1.0 / qsh))
    vtail = vprof.pow_compose(-psh).integrate(1.0 / t, math.inf)
    utail = uprof.pow_compose(qsh).integrate(t, math.inf)
    tail = (vtail.powf(1.0 / psh)) * (utail.powf(1.0 / qsh))
    return block, tail


# ---------------------------------------------------------------------------
# two-sided bracket
# ---------------------------------------------------------------------------


@dataclass
class ConstantBracket:
    lower: float
    upper: ExtReal
    regime: str
    witnesses: dict[str, float] = field(default_factory=dict)
    report: Optional[CriterionReport] = None

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper.to_json(),
                "regime": self.regime, "witnesses": self.witnesses}


def bracket_constant(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                     rng: np.random.Generator, N: int = 4096,
                     L: float = 64.0, n_random: int = 8) -> ConstantBracket:
    """Bracket the optimal constant: criteria upper value vs the best
    constructive witness ratio (every witness gives a true lower bound)."""
    report = evaluate(u, v, cfg)
    upper = report.governing
    wit: dict[str, float] = {}

    best = 0.0
    for _ in range(n_random):
        sig = random_band_limited(rng, N, L)
        best = max(best, ratio(sig, u, v, cfg))
    wit["random_band_limited"] = best

    bump = modulated_bump(u, v, cfg, N, L)
    if np.all(np.isfinite(bump.values)) and np.any(bump.values != 0):
        wit["modulated_bump"] = ratio(bump, u, v, cfg)

    p_gt_2 = _is_inf(cfg.p) or cfg.p > 2
    if p_gt_2:
        try:
            wit["translates"] = lower_bound_translates(u, v, cfg, rng, N, L)
        except (ValueError, FloatingPointError):
            pass
    q_lt_p = _is_inf(cfg.p) or (not _is_inf(cfg.q) and cfg.q < cfg.p)
    if q_lt_p and report.regime != REGIME_DEG_QINF:
        wit["annuli"] = lower_bound_annuli(u, v, cfg, rng, N, L)

    lower = max(wit.values()) if wit else 0.0
    return ConstantBracket(lower, upper, report.regime, wit, report)
