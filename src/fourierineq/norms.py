"""Optimal-space and sequence norms.

Function side: the largest right-hand space for a weighted transform
inequality with a fixed non-increasing radial target weight, a Morrey-type
scale of such norms, and the exponential-Orlicz endpoint pair.

Sequence side: the prefix norm Theta_{2,p} (2 < p <= inf), the two-star
tail norm Gamma_{2,q} (1 <= q < 2), the companion sup norm with the
log^{1/p#} scaling, and dyadic-block equivalents of both series norms.

Logs are natural; log+(x) = max(log x, 0).  Infinite series tails are
summed via integral comparison with relative remainder below 1e-10 so
values are reproducible at reported precision.

Every SymFunc here comes from the constructors and the algebra of
``SymFunc``, which make its end terms (``_phi_symfunc`` keeps its exact
evaluator and takes its ends from that algebra), and every integral, the
series tails included, runs through the graded rule ``pieces.quad_cells``;
the Morrey norm anchors its cumulative G at the grid that its sup scans
(``SymFunc.anchored``), so the scan reads G's anchors after one
``Cumulative.at`` pass instead of one quadrature per sample.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .calderon import inner_average, phi_fn
from .criteria import qsharp_tail_finite, ustar_sym, w_inner_weight
from .exponents import ExponentConfig, as_exp, is_inf, sharp
from .extreal import ExtReal
from .pieces import StepFunction, end_quad, quad_cells
from .rearrange import circ_profile, star
from .symfunc import Divergence, SymFunc, guarded
from .weights import WeightSpec


# ---------------------------------------------------------------------------
# sequence container
# ---------------------------------------------------------------------------


@dataclass
class SequenceData:
    """A finite non-negative sequence, implicitly extended by zero.

    Caches the non-increasing rearrangement a* and the maximal averages
    a**_n = (1/n) sum_{j<=n} a*_j (which dominate a* entrywise).
    """

    values: np.ndarray
    star: np.ndarray = field(init=False)
    twostar: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        vals = np.abs(np.asarray(self.values, dtype=float))
        self.values = vals
        self.star = np.sort(vals)[::-1]
        n = np.arange(1, len(vals) + 1)
        self.twostar = np.cumsum(self.star) / n

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(np.sum(self.star))

    @staticmethod
    def from_csv(path: str) -> "SequenceData":
        pairs: list[tuple[int, float]] = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().lower() in ("n", "#"):
                    continue
                pairs.append((int(row[0]), float(row[1])))
        size = max(n for n, _ in pairs) if pairs else 0
        vals = np.zeros(size)
        for n, v in pairs:
            if n < 1:
                raise ValueError("indices are 1-based")
            vals[n - 1] = v
        return SequenceData(vals)


# ---------------------------------------------------------------------------
# series norms
# ---------------------------------------------------------------------------


_TAIL_START = 65536


def _series_tail(f, N: int, integral: float) -> float:
    """sum_{n > N} f(n) for smooth, eventually-decreasing f, by
    Euler-Maclaurin from integral = integral_N^inf f: integral - f(N)/2 -
    f'(N)/12.  The neglected remainder is O(f'''(N)), far below the 1e-10
    relative target for N >= 65536."""
    h = N * 1e-6
    fprime = (f(N + h) - f(N - h)) / (2 * h)
    return integral - f(N) / 2.0 - fprime / 12.0


def _log_power_integral(c: float, d, N: int) -> float:
    """integral_N^inf c / (x log^{1+d}(x+1)) dx for an exact d > 0.  In
    y = log(x+1) the integrand is c y^{-1-d} / (1 - e^{-y}): its main part
    c y^{-1-d} integrates in closed form to c y0^{-d} / d, and only the
    remainder c y^{-1-d} e^{-y} / (1 - e^{-y}), which decays like e^{-y},
    goes to quadrature, by ``quad_cells`` to relative accuracy in
    z = e^{-(y - y0)} on (0, 1), where it reads
    e^{-y0} (y0 - log z)^{-1-d} / (1 - e^{-y0} z).  No range is lost where
    e^y overflows, and the 1/d growth as d -> 0 is kept."""
    y0 = math.log(N + 1)
    s = 1.0 + float(d)
    e0 = 1.0 / (N + 1)  # e^{-y0}

    def rest_at(z: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # z = 0 is y = inf, where it is 0
            return e0 * (y0 - np.log(z)) ** -s / (1.0 - e0 * z)
    rest = float(quad_cells(rest_at, np.zeros(1), np.ones(1))[0])
    return c * (y0 ** -float(d) / float(d) + rest)


def theta_norm(b: SequenceData, p) -> ExtReal:
    """Prefix series norm, 2 < p <= inf:

    p < inf: (sum_n (sum_{j<=n} (b*_j)^2)^{p/2} / (n log^{p/2}(n+1)))^{1/p}
    p = inf: sup_n (sum_{j<=n} (b*_j)^2 / log(n+1))^{1/2}.
    """
    p = as_exp(p)
    if not (is_inf(p) or p > 2):
        raise ValueError("theta norm requires p > 2")
    m = len(b)
    if m == 0 or b.star[0] == 0.0:
        return ExtReal.finite(0.0)
    sq = np.cumsum(b.star ** 2)
    ns = np.arange(1, m + 1, dtype=float)
    logs = np.log(ns + 1)
    if is_inf(p):
        return ExtReal.finite(float(np.sqrt(np.max(sq / logs))))
    pf = float(p)
    partial = float(np.sum(sq ** (pf / 2) / (ns * logs ** (pf / 2))))
    # beyond the support the prefix sum is constant
    const = sq[-1] ** (pf / 2)
    N0 = max(m, _TAIL_START)
    if N0 > m:
        ns2 = np.arange(m + 1, N0 + 1, dtype=float)
        partial += const * float(np.sum(1.0 / (ns2 *
                                               np.log(ns2 + 1) ** (pf / 2))))
    tail = _series_tail(lambda x: const / (x * math.log(x + 1) ** (pf / 2)),
                        N0, _log_power_integral(const, p / 2 - 1, N0))
    return ExtReal.finite((partial + tail) ** (1.0 / pf))


# B_2, B_4, ..., B_14: the Bernoulli numbers of zeta(2, x)'s asymptotic series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _zeta2_series(x):
    """zeta(2, x) for x >= 16, at a float or an array: the asymptotic series
    1/x + 1/(2 x**2) + sum_k B_2k / x**(2k+1) over 7 Bernoulli terms, in
    powers of 1/x so that a huge x underflows instead of overflowing."""
    r = 1.0 / x
    r2 = r * r
    series = 0.0
    for b in reversed(_BERNOULLI):
        series = series * r2 + b
    return r + 0.5 * r2 + r * r2 * series


def _zeta2(x) -> float:
    """Hurwitz zeta(2, x) = sum_{k>=0} (x + k)**-2 for x > 0: the recurrence
    zeta(2, x) = x**-2 + zeta(2, x + 1) up to x >= 16, then
    ``_zeta2_series``.  The recurrence's terms are added smallest first."""
    x = float(x)
    steps = []
    while x < 16.0:
        steps.append(x)
        x += 1.0
    return (sum(1.0 / (y * y) for y in reversed(steps))
            + _zeta2_series(x))


def _gamma_terms(a: SequenceData, use_twostar: bool) -> np.ndarray:
    seq = a.twostar if use_twostar else a.star
    return np.cumsum((seq ** 2)[::-1])[::-1]


def _zeta2_at(ns: np.ndarray) -> np.ndarray:
    """zeta(2, n) on the consecutive integers ns, by the recurrence
    zeta(2, n) = zeta(2, n + 1) + 1/n**2: one scalar zeta(2, ns[-1] + 1)
    plus a reversed cumulative sum of 1/n**2, adding positive terms only."""
    return (np.cumsum(1.0 / ns[::-1] ** 2)[::-1]
            + _zeta2(ns[-1] + 1))


def gamma_norm(a: SequenceData, q, use_twostar: bool = True) -> ExtReal:
    """Tail series norm, 0 < q < 2:

    (sum_n (sum_{j>=n} (a**_j)^2)^{q/2} / (n log^{q/2}(n+1)))^{1/q};
    use_twostar=False evaluates the a*-variant (equivalent up to a fixed
    factor, and zero tail beyond the support).
    """
    q = as_exp(q)
    if not 0 < q < 2:
        raise ValueError("gamma norm requires 0 < q < 2")
    qf = float(q)
    m = len(a)
    if m == 0 or a.star[0] == 0.0:
        return ExtReal.finite(0.0)
    tails = _gamma_terms(a, use_twostar)
    ns = np.arange(1, m + 1, dtype=float)
    logs = np.log(ns + 1)
    S = a.total
    if use_twostar:
        # beyond the support a**_j = S / j exactly, so the inner tail at n
        # is S^2 * hurwitz_zeta(2, n); fold that into the finite terms too
        extra = S * S * _zeta2(m + 1)
        tails = tails + extra
    total = float(np.sum(tails ** (qf / 2) / (ns * logs ** (qf / 2))))
    if use_twostar:
        # remaining outer terms: (S^2 zeta(2,n))^{q/2} / (n log^{q/2}(n+1))
        N0 = max(m, _TAIL_START)
        if N0 > m:
            ns2 = np.arange(m + 1, N0 + 1, dtype=float)
            inner = S * S * _zeta2_at(ns2)
            total += float(np.sum(inner ** (qf / 2)
                                  / (ns2 * np.log(ns2 + 1) ** (qf / 2))))

        def tail_term(x):
            """The outer term at x >= N0, a float or an array."""
            return ((S * S * _zeta2_series(x)) ** (qf / 2)
                    / (x * np.log(x + 1) ** (qf / 2)))
        # its end, with zeta(2, x) ~ 1/x and log(x + 1) ~ 1 + log+ x at inf
        model = (SymFunc.power(S * S, -1).pow(q / 2)
                 .mul(SymFunc.power(1.0, -1))
                 .mul(SymFunc.one_plus_log_plus().pow(-q / 2)))
        total += float(_series_tail(tail_term, N0, end_quad(
            tail_term, model.tail, N0, math.inf)))
    return ExtReal.finite(total ** (1.0 / qf))


def bochkarev_norm(b: SequenceData, p) -> float:
    """sup_n log^{-1/p#}(n+1) (sum_{j<=n} (b*_j)^2)^{1/2}, 2 < p <= inf."""
    p = as_exp(p)
    if not (is_inf(p) or p > 2):
        raise ValueError("requires p > 2")
    psharp = float(sharp(p))
    m = len(b)
    if m == 0 or b.star[0] == 0.0:
        return 0.0
    sq = np.cumsum(b.star ** 2)
    ns = np.arange(1, m + 1, dtype=float)
    return float(np.max(np.sqrt(sq) / np.log(ns + 1) ** (1.0 / psharp)))


def dyadic_block_norms(a: SequenceData, exponent) -> float:
    """Block-form equivalent of the series norms over the blocks
    (y_k, y_{k+1}] with log y_k = 2^k (plus an initial block [1, y_0]):

    exponent = p > 2:   (sum_k 2^{k(1-p/2)} (sum_block (a*_j)^2)^{p/2})^{1/p}
    exponent = q < 2:   the same shape on the two-star tail increments,
                        including the exact S/j continuation beyond the
                        support (S = sum a*).
    """
    exponent = as_exp(exponent)
    if exponent == 2 or exponent <= 0:
        raise ValueError("block norms are defined away from exponent 2")
    e = float(exponent)
    m = len(a)
    if m == 0 or a.star[0] == 0.0:
        return 0.0
    if exponent > 2:
        sq = a.star ** 2
        total = 0.0
        k = 0
        lo = 0  # 0-based start of current block
        while lo < m:
            # block is (y_{k-1}, y_k], 1-based indices
            y_next = math.exp(2.0 ** k) if 2.0 ** k < 700 else math.inf
            hi = min(m, int(math.floor(y_next)))
            if hi > lo:
                block = float(np.sum(sq[lo:hi]))
                weight = 2.0 ** ((k - 1) * (1.0 - e / 2.0)) if k > 0 else 1.0
                total += weight * block ** (e / 2.0)
            lo = max(lo, hi)
            k += 1
            if math.isinf(y_next):
                break
        return total ** (1.0 / e)
    # e < 2: two-star tail blocks; inner tail T(n) = sum_{j>=n} (a**_j)^2
    S = a.total
    zeta_tail = S * S * _zeta2(m + 1)
    T_at = np.cumsum((a.twostar ** 2)[::-1])[::-1] + zeta_tail

    def tail_from(n: float) -> float:
        if n <= m:
            return float(T_at[int(n) - 1])
        return S * S * _zeta2(n)

    total = 0.0
    k = 0
    prev_y = 1.0
    while True:
        y = math.exp(2.0 ** k) if 2.0 ** k < 700 else math.inf
        block = tail_from(prev_y) - (tail_from(math.floor(y) + 1)
                                     if math.isfinite(y) else 0.0)
        weight = 2.0 ** ((k - 1) * (1.0 - e / 2.0)) if k > 0 else 1.0
        term = weight * max(block, 0.0) ** (e / 2.0)
        total += term
        if math.isinf(y) or (y > m and term <= 1e-12 * total):
            break
        prev_y = math.floor(y) + 1.0
        k += 1
    return total ** (1.0 / e)


# ---------------------------------------------------------------------------
# optimal function-space norms
# ---------------------------------------------------------------------------


def _phi_symfunc(f: StepFunction) -> SymFunc:
    """t -> integral_0^t (integral_0^{1/r} f*)^2 dr (calderon's Phi_f), at
    ``phi_fn``, with the ends and knots of the antiderivative of the
    squared inner average; requires f* integrable and the squared inner
    average integrable at inf (raises Divergence otherwise)."""
    fs = star(f)
    if not fs.integrate(0.0, math.inf).is_finite:
        raise Divergence("f* is not integrable; inner averages diverge")
    sq = inner_average(fs).pow(2)
    if not sq.tail.integrable(at_zero=False):
        raise Divergence("squared inner averages are not integrable")
    G = sq.antiderivative()
    return SymFunc(G.head, G.tail, G.knots, at=phi_fn(fs))


def optimal_Y_norm(f: StepFunction, u: WeightSpec, q) -> ExtReal:
    """Norm of the largest right-hand space for target weight u and
    exponent q:

    q >= 2: (int u*(t)^q (int_0^{1/t} f*)^q dt)^{1/q};
    q < 2 with finite correction weight xi:
        (int u*^q U^{q#/2} xi^{-q#/2} t^{-q/2} Phi_f(t)^{q/2} dt)^{1/q}
        with Phi_f(t) = int_0^t (int_0^{1/r} f*)^2 dr;
    q < 2 with xi identically infinite: the space is trivial (+inf for
    any f that is not a.e. zero).

    For a nonzero f and a nonzero u the integrand is positive near 0, so a
    computed 0 is floating-point underflow (of (U/xi)**(q#/2) for q just
    below 2, where q# is huge) and is reported indeterminate.
    """
    q = as_exp(q)
    if not 0 < q < math.inf:
        raise ValueError("requires 0 < q < inf")
    qf = float(q)
    if f.support_bound() == 0.0:  # f = 0 a.e.
        return ExtReal.finite(0.0)
    cfg = ExponentConfig(math.inf, q)

    def compute() -> ExtReal:
        if q >= 2:
            uq = ustar_sym(u, cfg.q)
            integrand = uq.mul(inner_average(star(f)).pow(cfg.q))
            return integrand.integral().powf(1.0 / qf)
        tail_ok = qsharp_tail_finite(u, cfg)
        if not tail_ok.is_finite:
            return ExtReal.infinite(
                "correction weight xi is identically infinite: " +
                (tail_ok.reason or ""))
        w = w_inner_weight(u, cfg)
        integrand = w.mul(_phi_symfunc(f).pow(q / 2))
        return integrand.integral().powf(1.0 / qf)
    norm = guarded(compute)
    if (norm.is_finite and norm.value == 0.0
            and circ_profile(u).support_bound() > 0.0):
        return ExtReal.indeterminate(
            "the integrand underflows to 0 in floating point, but the norm "
            "of a nonzero f is positive")
    return norm


def morrey_optimal_norm(f: StepFunction, q, shape: StepFunction,
                        d: int = 1) -> ExtReal:
    """Morrey-scale optimal norm with ball-shape weight `shape`:

    q >= 2: sup_R shape(R) (int_0^{R^d} (int_0^{1/t} f*)^q dt)^{1/q}
    q < 2:  sup_R shape(R) R^{-d/2} (int_0^{R^d} Phi_f(t)^{q/2} dt)^{1/q}.
    """
    q = as_exp(q)
    if not 0 < q < math.inf:
        raise ValueError("requires 0 < q < inf")
    if f.support_bound() == 0.0:  # f = 0 a.e.
        return ExtReal.finite(0.0)
    phi_sym = SymFunc.from_step(shape)
    # R**(-d/2), without the knot 1 of SymFunc.power
    r_pow = SymFunc.from_step(StepFunction.power(1.0, d / 2))

    def composite(G: SymFunc) -> SymFunc:
        """R -> shape(R) G(R^d)^{1/q} [* R^{-d/2} when q < 2]."""
        out = G.pow_arg(d).pow(1 / q).mul(phi_sym)
        return out.mul(r_pow) if q < 2 else out

    def compute() -> ExtReal:
        if q >= 2:
            inner = inner_average(star(f)).pow(q)
        else:
            inner = _phi_symfunc(f).pow(q / 2)
        G = inner.antiderivative()  # cumulative integral, certified asyms
        # G anchored at the grid that the composite's sup scans: one
        # Cumulative.at pass instead of a quadrature per sample
        grid = composite(G).scan_grid()
        return composite(G.anchored(grid ** d)).sup()
    return guarded(compute)


def expL_pair(F: StepFunction, d: int = 1) -> tuple[ExtReal, ExtReal]:
    """Exponential-Orlicz endpoint pair:

    left:  sup_R (R^d (1 + log+(1/R)))^{-1} int_0^{R^d} F*
    right: sup_R (1 + log+ R)^{-1} int_0^R F*.
    """
    if F.support_bound() == 0.0:  # F = 0 a.e.
        return ExtReal.finite(0.0), ExtReal.finite(0.0)
    A = SymFunc.from_step(star(F)).antiderivative()
    wlog = SymFunc.one_plus_log_plus().pow_arg(-1)  # 1 + log+(1/R)
    dleft = SymFunc.power(1.0, d).mul(wlog)
    left = A.pow_arg(d).mul(dleft.pow(-1)).sup()
    right = A.mul(SymFunc.one_plus_log_plus().pow(-1)).sup()
    return left, right


def llogl_norm(F: StepFunction) -> ExtReal:
    """int F*(t) (1 + log+(1/t)) dt, the associate-side functional of the
    exponential-Orlicz norm."""
    if F.support_bound() == 0.0:  # F = 0 a.e.
        return ExtReal.finite(0.0)
    Fs = SymFunc.from_step(star(F))
    return Fs.mul(SymFunc.one_plus_log_plus().pow_arg(-1)).integral()
