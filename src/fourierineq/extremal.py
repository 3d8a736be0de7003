"""Discrete transform experiments: empirical ratios, constructive lower
bounds, necessary-condition functionals, and the two-sided bracket.

Signals are sampled on a uniform grid of N points (N a power of two) over
[-L/2, L/2); the transform is the quadrature-weighted DFT

    Tf(k/L) = (L/N) * sum_j f(x_j) exp(-2 pi i x_j k / L),

whose dual grid has spacing 1/L.  With these weights the discrete Plancherel
identity holds exactly and |Tf| is bounded by the discrete L1 norm, so the
elementary inequalities are reproduced to machine precision.  ``dft`` works
on rows: a SampledSignal may hold k signals (k, N) on one grid, and a
bracket transforms its random signals, and the blocks of each block
witness, in one FFT call each.  A bracket evaluates v on the signal grid
and u on the dual grid once, in one ``_GridRatios``; every witness reads
its grid, its norms and its profile v**(-p') from there.

The translate and annuli witnesses are sums sum_n e_n b_n of blocks b_n
with disjoint supports, so ||v sum_n e_n b_n||_p is the l^p norm of
(|e_n| ||v b_n||_p)_n: a sign search computes the M block norms once and
only the transform side once per pattern.  At q = 2 the transform side is
the quadratic form e^T G e of the M x M Gram matrix of the weighted block
transforms, so a pattern costs M**2 operations, not an N-point norm.

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

from .criteria import (C3, CriterionReport, U_func, W_func, evaluate,
                       ustar_profile, REGIME_DEG_QINF)
from .exponents import Exponent, ExponentConfig, is_inf
from .extreal import ExtReal, json_float
from .pieces import StepFunction
from .symfunc import SymFunc, guarded
from .weights import WeightSpec


@dataclass
class SampledSignal:
    # complex samples at x_j = -L/2 + j L/N: one signal (N,), or one signal
    # per row (k, N) on the same grid
    values: np.ndarray
    L: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim not in (1, 2):
            raise ValueError("samples must be one signal or rows of signals")
        n = self.values.shape[-1]
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("sample count must be a power of two")
        if not self.L > 0:
            raise ValueError("domain length must be positive")

    @property
    def N(self) -> int:
        return self.values.shape[-1]

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def xs(self) -> np.ndarray:
        return -self.L / 2 + np.arange(self.N) * self.dx


def dft(sig: SampledSignal) -> SampledSignal:
    """Quadrature-weighted DFT; output is a SampledSignal on the dual grid
    (spacing 1/L, span N/L, frequencies -N/(2L) .. (N/2-1)/L).  Rows of
    signals are transformed row by row, in one FFT call."""
    N = sig.N
    F = np.fft.fft(sig.values, axis=-1)
    k = np.arange(N)
    k[k >= N // 2] -= N  # frequency index of each FFT bin
    phase = np.where(k % 2 == 0, 1.0, -1.0)  # exp(i pi k), k in Z
    vals = sig.dx * phase * F
    return SampledSignal(np.fft.fftshift(vals, axes=-1), N / sig.L)


def _lp_norm(mags: np.ndarray, dx: float, p):
    """(dx sum mags^p)^(1/p) along the last axis (one norm per row of a
    2-d array); the max at p = inf."""
    if is_inf(p):
        return np.max(mags, axis=-1)
    pf = float(p)
    return (dx * np.sum(mags ** pf, axis=-1)) ** (1.0 / pf)


def weighted_norm(sig: SampledSignal, p, w: Optional[WeightSpec] = None
                  ) -> float:
    """(integral |w f|^p)^(1/p) by the grid quadrature; sup norm at p=inf."""
    mags = np.abs(sig.values)
    if w is not None:
        mags = mags * w.evaluate(np.abs(sig.xs))
    return float(_lp_norm(mags, sig.dx, p))


def _dual_weight(u: WeightSpec, T: SampledSignal, q) -> np.ndarray:
    """u at the samples |xi| of the dual grid.  Where u is infinite at a
    sample (a singular weight sampled at xi = 0), the q-th root of the
    average of u**q over the radii of the sample's cell [xi - dx/2,
    xi + dx/2] instead, finite wherever u**q is locally integrable; at
    q = inf the weight stays infinite."""
    w = u.evaluate(np.abs(T.xs))
    singular = np.flatnonzero(~np.isfinite(w))
    if is_inf(q) or not len(singular):
        return w
    xi = np.abs(T.xs[singular])
    r0, r1 = np.maximum(xi - T.dx / 2, 0.0), xi + T.dx / 2
    w[singular] = (u.profile().pow_compose(q).integrals(r0, r1)
                   / (r1 - r0)) ** (1.0 / float(q))
    return w


def ratio(f: SampledSignal, u: WeightSpec, v: WeightSpec,
          cfg: ExponentConfig) -> float:
    """Empirical ||u Tf||_q / ||v f||_p of the quadrature-weighted DFT on
    Z_N, not a bound for the optimal C of the transform on R.
    A weight infinite at a dual sample enters by ``_dual_weight``."""
    den = weighted_norm(f, cfg.p, v)
    if den == 0.0:
        return 0.0
    T = dft(f)
    num = _lp_norm(np.abs(T.values) * _dual_weight(u, T, cfg.q), T.dx, cfg.q)
    return float(num) / den


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, 0 where den is 0 (``ratio``'s convention), nan where
    both are inf."""
    with np.errstate(invalid="ignore"):
        return np.divide(num, den, out=np.zeros(np.shape(den)),
                         where=den != 0.0)


class _GridRatios:
    """sig -> ratio() of sig, or of every row of sig, a SampledSignal on
    N points over [-L/2, L/2).  v at |x| and u on the dual grid are
    evaluated once, here, for every signal of a bracket; base is v**(-p')
    on the signal grid (``_vinv_pprime`` of the same values), the profile
    of every constructive witness."""

    def __init__(self, u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                 N: int, L: float):
        self.x = SampledSignal(np.zeros(N), L)
        self.xi = SampledSignal(np.zeros(N), N / L)  # dft's output grid
        self.vw = v.evaluate(np.abs(self.x.xs))
        self.uw = _dual_weight(u, self.xi, cfg.q)
        self.base = _vinv_pprime(cfg, self.vw)
        self.cfg = cfg

    def signal_norms(self, F: np.ndarray) -> np.ndarray:
        """||v f||_p of every row f of F; nan where v is inf at a zero
        sample of f (0 * inf)."""
        with np.errstate(invalid="ignore"):
            return _lp_norm(np.abs(F) * self.vw, self.x.dx, self.cfg.p)

    def transform_norms(self, TF: np.ndarray) -> np.ndarray:
        """||u Tf||_q of every row Tf of TF (on the dual grid)."""
        return _lp_norm(np.abs(TF) * self.uw, self.xi.dx, self.cfg.q)

    def __call__(self, sig: SampledSignal) -> np.ndarray:
        return _quotient(self.transform_norms(dft(sig).values),
                         self.signal_norms(sig.values))


def step_profile(sig: SampledSignal) -> StepFunction:
    """|f| as a compact step function (cell widths dx; layout irrelevant
    for rearrangement purposes)."""
    mags = np.abs(sig.values)
    grid = np.arange(sig.N + 1) * sig.dx
    return StepFunction.from_cells(grid.tolist(), mags.tolist())


_BAND_FRAC = 0.125  # random_band_limited keeps |k| <= _BAND_FRAC * N / 2


def random_band_limited(rng: np.random.Generator, N: int = 4096,
                        L: float = 64.0) -> SampledSignal:
    """Random smooth signal: Gaussian spectrum restricted to a low band."""
    spec = (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    k = np.arange(N)
    k[k >= N // 2] -= N
    spec[np.abs(k) > _BAND_FRAC * N / 2] = 0.0
    vals = np.fft.ifft(spec)
    return SampledSignal(vals, L)


def best_random_ratio(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                      rng: np.random.Generator, N: int = 4096,
                      L: float = 64.0, n: int = 8, *, ratios=None) -> float:
    """The largest ratio() of n signals ``random_band_limited(rng, N, L)``,
    drawn one by one in rng order (0.0 when n < 1); their transforms are
    one FFT over rows and their ratios one ``_GridRatios`` call.  ratios:
    a ``_GridRatios`` to reuse."""
    if n < 1:
        return 0.0
    ratios = ratios or _GridRatios(u, v, cfg, N, L)
    sigs = SampledSignal([random_band_limited(rng, N, L).values
                          for _ in range(n)], L)
    return float(np.max(ratios(sigs)))


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------


def _vinv_pprime(cfg: ExponentConfig, vals: np.ndarray) -> np.ndarray:
    """v**(-p') from the values vals of v, 0 where it is not finite."""
    pp = cfg.p_prime
    e = float(pp) if not is_inf(pp) else 1.0
    with np.errstate(divide="ignore"):
        base = np.where(vals > 0, vals ** (-e), np.inf)
    base[~np.isfinite(base)] = 0.0
    return base


def modulated_bump(v: WeightSpec, cfg: ExponentConfig, N: int = 4096,
                   L: float = 64.0) -> SampledSignal:
    """f(x) = v(x)**(-p') e^{2 pi i xi0 x} with xi0 at the max of u, which
    is xi0 = 0 for every radial non-increasing u: so f = v**(-p'), and u
    is not needed.

    This witness makes ||u Tf||_inf approach ||u||_inf ||1/v||_{p'}
    ||f v||_p and is the sharpness witness in the degenerate regime.  A
    bracket reads it from its grid, as ``_GridRatios.base``."""
    xs = SampledSignal(np.zeros(N), L).xs
    return SampledSignal(_vinv_pprime(cfg, v.evaluate(np.abs(xs))), L)


def _block_ratio(blocks: np.ndarray, ratios):
    """E -> ratio() of the signals E @ blocks, one per row of the real
    (k, M) coefficient array E; ratios is the bracket's ``_GridRatios``.

    The blocks have disjoint supports (ValueError otherwise), so the signal
    side of a row is ||v sum e_n block_n||_p = ||(|e_n| P_n)_n||_lp with
    P_n = ||v block_n||_p (the max at p = inf): M numbers per row, from
    block norms computed once.  The transform is linear, T(sum e_n block_n)
    = sum e_n T(block_n), so the M block transforms are one FFT over rows.

    At q = 2, where u is finite at every dual sample, the transform side
    is a quadratic form: with A_n = u T(block_n) on the dual grid and the
    M x M Gram matrix G = Re(A A*) dxi, ||u T(sum e_n block_n)||_2**2 =
    e^T G e.  G is built once, and a row costs M**2 operations, not N.
    Every other input (q != 2, or a singular u whose cell average is
    infinite) takes a batch as one real matrix product (E times the float
    view of the transforms) and the dual-side norms of its rows."""
    if np.any(np.count_nonzero(blocks, axis=0) > 1):
        raise ValueError("blocks must have disjoint supports")
    P = ratios.signal_norms(blocks)
    TB = dft(SampledSignal(blocks, ratios.x.L)).values
    p = ratios.cfg.p
    if ratios.cfg.q == 2 and np.all(np.isfinite(ratios.uw)):
        # (M, 2N): the real and imaginary part of each weighted sample in
        # turn, so A A^T is the real part of the complex Gram matrix
        A = (TB * ratios.uw).view(float)
        G = (A @ A.T) * ratios.xi.dx

        def pattern_norms(E: np.ndarray) -> np.ndarray:
            return np.sqrt(np.maximum(np.sum((E @ G) * E, axis=-1), 0.0))
    else:
        Tflat = np.ascontiguousarray(TB).view(float)

        def pattern_norms(E: np.ndarray) -> np.ndarray:
            return ratios.transform_norms((E @ Tflat).view(complex))

    def ratio_of(E: np.ndarray) -> np.ndarray:
        return _quotient(pattern_norms(E), _lp_norm(np.abs(E) * P, 1.0, p))
    return ratio_of


_CHUNK = 8  # sign patterns per batch of best_sign_ratio


def best_sign_ratio(ratio_of, M: int) -> float:
    """Exact maximum of ratio_of over the sign patterns eps in {-1, 1}^M.
    Flipping every sign leaves a ratio unchanged, so the 2**(M-1) patterns
    with eps_(M-1) = 1 are enough: pattern c has eps_n = 1 - 2 (bit n of
    c), and they go through in batches of _CHUNK rows (at q = 2 a row of
    a ``_block_ratio`` is one quadratic form in the signs).  A NaN row
    (0 * inf, where a transform vanishes at a dual sample of infinite
    weight) is skipped; 0.0 when every row is NaN."""
    best = 0.0
    codes = np.arange(2 ** (M - 1))
    for start in range(0, len(codes), _CHUNK):
        E = 1.0 - 2.0 * ((codes[start:start + _CHUNK, None]
                          >> np.arange(M)) & 1)
        rows = ratio_of(E)
        best = float(np.max(rows, initial=best, where=~np.isnan(rows)))
    return best


def _translate_blocks(ratios: _GridRatios, n_blocks: int) -> np.ndarray:
    """Rows lambda_n v**(-p') 1_{-s <= x - 2ns < s} of the translate
    witness on the grid of ratios, disjoint supports."""
    cfg, x, base = ratios.cfg, ratios.x, ratios.base
    p = float(cfg.p) if not is_inf(cfg.p) else math.inf
    if not p > 2:
        raise ValueError("translate witness needs p > 2")
    xs = x.xs
    s = x.L / (4.0 * n_blocks)
    # block n is -s <= x - 2ns < s; one index per point, so a point on a
    # common edge lies in one block only, whatever the rounding
    index = np.floor((xs + s) / (2 * s))
    masks = index == np.arange(n_blocks)[:, None]
    Vn = np.array([float(np.sum(base[m]) * x.dx) for m in masks])
    Vn = np.maximum(Vn, 1e-300)
    lam = Vn ** (1.0 / (p - 2.0)) if math.isfinite(p) else np.ones(n_blocks)
    return np.where(masks, lam[:, None] * base, 0.0)


def lower_bound_translates(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                           N: int = 4096, L: float = 64.0, n_blocks: int = 6,
                           *, ratios=None) -> float:
    """Translate witness for p > 2: the largest ratio() of

    f = v**(-p') sum_n eps_n lambda_n 1_{-s <= x - 2ns < s},
    lambda_n = V_n**(1/(p-2)), V_n the local mass of v**(-p'),

    over all 2**(n_blocks-1) sign patterns eps, 8 at a time
    (``best_sign_ratio``).  At q = 2 (u finite on the dual grid) a
    pattern's transform norm is the quadratic form e^T G e of the blocks'
    Gram matrix (``_block_ratio``).  ratios: a ``_GridRatios`` to reuse."""
    ratios = ratios or _GridRatios(u, v, cfg, N, L)
    blocks = _translate_blocks(ratios, n_blocks)
    return best_sign_ratio(_block_ratio(blocks, ratios), n_blocks)


def _annuli_shells(ratios: _GridRatios, n_shells: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Rows v**(-p') 1_{shell n} for shells of dyadically halving
    v**(-p') mass inside radius 0.45 L on the grid of ratios, and the mass
    W_n of each shell."""
    x, base = ratios.x, ratios.base
    radii = np.abs(x.xs)
    Rmax = 0.45 * x.L
    inside = radii <= Rmax
    total = float(np.sum(base[inside]) * x.dx)
    # shell boundaries alpha_n (descending) with mass total / 2**n outside
    order = np.argsort(radii)
    cum = np.cumsum(base[order] * x.dx)
    alphas = [Rmax]
    for n in range(1, n_shells):
        # mass inside alpha_n equals total / 2**n (dyadic halving)
        target = total * 2.0 ** (-n)
        idx = int(np.searchsorted(cum, target))
        alphas.append(float(radii[order][min(idx, x.N - 1)]))
    alphas.append(0.0)
    masks = np.array([(radii > alphas[n + 1]) & (radii <= alphas[n]) & inside
                      for n in range(n_shells)])
    Wn = np.array([max(float(np.sum(base[m]) * x.dx), 1e-300)
                   for m in masks])
    return np.where(masks, base, 0.0), Wn


def lower_bound_annuli(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                       N: int = 4096, L: float = 64.0, n_shells: int = 6,
                       *, ratios=None) -> float:
    """Annuli witness for q < p: shells of dyadically halving v**(-p')
    mass W_n with amplitudes W_n**theta, and the largest ratio() over a
    power family of theta and all 2**(n_shells-1) sign patterns, 8 at a
    time (``best_sign_ratio``).  The shells are transformed once, since
    T(lambda shell) = lambda T(shell), and at q = 2 (u finite on the dual
    grid) their Gram matrix serves every theta and pattern
    (``_block_ratio``).  ratios: a ``_GridRatios``."""
    ratios = ratios or _GridRatios(u, v, cfg, N, L)
    shells, Wn = _annuli_shells(ratios, n_shells)
    shell_ratio = _block_ratio(shells, ratios)
    return max(best_sign_ratio(lambda E: shell_ratio(E * Wn ** theta),
                               n_shells)
               for theta in (-0.5, 0.0, 0.25, 0.5, 1.0))


# ---------------------------------------------------------------------------
# necessary-condition functionals
# ---------------------------------------------------------------------------


def cube_pair_condition(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                        s: Optional[float] = None) -> ExtReal:
    """(int_{|A|=s} u^q)^{1/q} (int_{|B|=1/s} v^{-p'})^{1/p'} over centered
    balls with |A||B| = 1; the sup over s (the constant C3) when s is
    None."""
    if s is None:
        return C3(u, v, cfg)

    def compute() -> ExtReal:
        # at p = 1, W is the sup-norm factor itself
        pe = 1.0 if cfg.p == 1 else 1.0 / float(cfg.p_prime)
        return ExtReal.finite(U_func(u, cfg)(s) ** (1.0 / float(cfg.q))
                              * W_func(v, cfg)(s) ** pe)
    return guarded(compute)


_BLOCK_MAX = 4000  # blocks a side of a _block_sum summed term by term


def _block_sum(prof: StepFunction, e_in: Exponent, e_out: Exponent,
               width: float) -> float:
    """sum_n (integral of prof**e_in over block n)**e_out over the blocks of
    the given width centred at n * width, n in Z (prof is a radial
    profile), for exact exponents: inf where the end rule finds the terms'
    tail (prof**e_in)**e_out not integrable, or a block mass is inf.  The
    masses of the _BLOCK_MAX = N blocks a side come from one call of
    ``StepFunction.integrals``; the rest of a side is width**(e_out - 1)
    times the end rule's leading term of the integral of that tail beyond
    (N + 1/2) width (left out where that point is not past 1 and the tail
    has a log factor)."""
    powed = prof.pow_compose(e_in)
    term = SymFunc.from_step(powed).tail.pow(e_out)
    if not term.integrable(at_zero=False):
        return math.inf
    fe = float(e_out)
    edges = width * (np.arange(_BLOCK_MAX + 1) + 0.5)
    masses = powed.integrals(np.append(0.0, edges[:-1]), edges)
    if np.isinf(masses).any():
        return math.inf
    far, rest, beyond = edges[-1], term.integrated(), 0.0
    if rest.coef and (rest.b == 0 or far > 1.0):
        beyond = (rest.coef * far ** float(rest.a)
                  * math.log(far) ** float(rest.b) * width ** (fe - 1.0))
    return ((2.0 * masses[0]) ** fe
            + 2.0 * (math.fsum((masses[1:] ** fe).tolist()) + beyond))


def block_l2_condition(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                       s: float) -> ExtReal:
    """Translate-block necessary condition for p > 2 at spacing scale s:

    (int_{|A| = 1/s} u^q)^{1/q} * (sum_n V_n^{p#/p'})^{1/p#},
    V_n = mass of v**(-p') on the block of width 2s centered at 2ns.
    """
    if not (is_inf(cfg.p) or cfg.p > 2):
        raise ValueError("block condition requires p > 2")
    q, pp, psh = float(cfg.q), cfg.p_prime, cfg.p_sharp

    def compute() -> ExtReal:
        uval = ustar_profile(u).pow_compose(q).integrate(0.0, 1.0 / s)
        if not uval.is_finite:
            return ExtReal.infinite(uval.reason)
        total = _block_sum(v.profile(), -pp, psh / pp, 2.0 * s)
        if math.isinf(total):
            return ExtReal.infinite("block sums diverge")
        return ExtReal.finite(uval.value ** (1.0 / q)
                              * total ** (1.0 / float(psh)))
    return guarded(compute)


def symmetric_block_condition(u: WeightSpec, v: WeightSpec,
                              cfg: ExponentConfig, t: float
                              ) -> tuple[ExtReal, ExtReal]:
    """Two necessary functionals for 0 < q < 2 < p <= inf at scale t:

    block form  (sum_n (v**(-p') mass of block n/t)^{p#/p'})^{1/p#}
                * (sum_n (u^q mass of block n t)^{q#/q})^{1/q#},
    tail form   (int_{1/t}^inf v0^{-p#})^{1/p#} (int_t^inf u0^{q#})^{1/q#}.

    Returned as (block_form, tail_form).
    """
    qsh = float(cfg.q_sharp)
    psh = float(cfg.p_sharp)
    uprof = u.profile()
    vprof = v.profile()
    vsum = _block_sum(vprof, -cfg.p_prime, cfg.p_sharp / cfg.p_prime,
                      1.0 / t)
    usum = _block_sum(uprof, cfg.q, cfg.q_sharp / cfg.q, t)
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
    lower: Optional[float]  # None where no witness applies
    upper: ExtReal
    regime: str
    witnesses: dict[str, float] = field(default_factory=dict)
    report: Optional[CriterionReport] = None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"lower": (None if self.lower is None
                          else json_float(self.lower)),
                "upper": self.upper.to_json(), "regime": self.regime,
                "witnesses": {k: json_float(x)
                              for k, x in self.witnesses.items()},
                "notes": self.notes}


def bracket_constant(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig,
                     rng: np.random.Generator, N: int = 4096,
                     L: float = 64.0, n_random: int = 8) -> ConstantBracket:
    """Bracket the optimal constant: criteria upper value vs the best
    constructive witness ratio.  A witness ratio is that of the
    quadrature-weighted DFT on Z_N, not a lower bound for the operator on
    R (for u = v = 1, p = 4/3, q = 4 it is 1.0 against 0.936687).
    Only ``random_band_limited`` is random: the best ratio of n_random
    signals drawn from rng (``best_random_ratio``).  The modulated bump
    and the translates and annuli witnesses are deterministic, the last
    two exact maxima over every sign pattern.  All of them share one
    evaluation of v on the signal grid and of u on the dual grid.  The
    witnesses are signals on the line, so in d > 1 there is no lower bound
    (and a note says so); ValueError unless u, v and cfg share one
    dimension."""
    report = evaluate(u, v, cfg)
    upper = report.governing
    if cfg.d > 1:
        return ConstantBracket(None, upper, report.regime, {}, report, [
            f"no lower bound: the witnesses are one-dimensional signals, "
            f"not functions on R^{cfg.d}"])
    wit: dict[str, float] = {}
    ratios = _GridRatios(u, v, cfg, N, L)
    wit["random_band_limited"] = best_random_ratio(u, v, cfg, rng, N, L,
                                                   n_random, ratios=ratios)

    # the modulated bump is v**(-p'), the grid's base
    if np.any(ratios.base != 0):
        wit["modulated_bump"] = float(ratios(SampledSignal(ratios.base, L)))

    if is_inf(cfg.p) or cfg.p > 2:
        wit["translates"] = lower_bound_translates(u, v, cfg, N, L,
                                                   ratios=ratios)
    q_lt_p = is_inf(cfg.p) or (not is_inf(cfg.q) and cfg.q < cfg.p)
    if q_lt_p and report.regime != REGIME_DEG_QINF:
        wit["annuli"] = lower_bound_annuli(u, v, cfg, N, L, ratios=ratios)

    # a NaN witness (0 * inf or inf / inf on the grid) bounds nothing
    lower = max((x for x in wit.values() if not math.isnan(x)), default=0.0)
    return ConstantBracket(lower, upper, report.regime, wit, report)
