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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import zeta as _hurwitz

from .calderon import _phi_fn, _phi_fn_numeric
from .criteria import ExponentConfig, U_func, _ustar_sym, _w_inner_weight, \
    _is_inf, qsharp_tail_finite
from .extreal import ExtReal
from .pieces import StepFunction, as_exp, log_quad
from .rearrange import star
from .symfunc import Asym, Divergence, SymFunc
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


def _series_tail(f, N: int) -> float:
    """sum_{n > N} f(n) for smooth, eventually-decreasing f, by
    Euler-Maclaurin: integral_N^inf f - f(N)/2 - f'(N)/12.  The integral
    is computed in u = log x coordinates (the series here decay like
    powers of log, which the plain infinite-interval transform handles
    poorly).  The neglected remainder is O(f'''(N)), far below the 1e-10
    relative target for N >= 65536."""
    integral = log_quad(f, N, math.inf)
    h = N * 1e-6
    fprime = (f(N + h) - f(N - h)) / (2 * h)
    return integral - f(N) / 2.0 - fprime / 12.0


def theta_norm(b: SequenceData, p) -> ExtReal:
    """Prefix series norm, 2 < p <= inf:

    p < inf: (sum_n (sum_{j<=n} (b*_j)^2)^{p/2} / (n log^{p/2}(n+1)))^{1/p}
    p = inf: sup_n (sum_{j<=n} (b*_j)^2 / log(n+1))^{1/2}.
    """
    p = as_exp(p)
    if not (_is_inf(p) or p > 2):
        raise ValueError("theta norm requires p > 2")
    m = len(b)
    if m == 0 or b.star[0] == 0.0:
        return ExtReal.finite(0.0)
    sq = np.cumsum(b.star ** 2)
    ns = np.arange(1, m + 1, dtype=float)
    logs = np.log(ns + 1)
    if _is_inf(p):
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
                        N0)
    return ExtReal.finite((partial + tail) ** (1.0 / pf))


def _gamma_terms(a: SequenceData, use_twostar: bool) -> np.ndarray:
    seq = a.twostar if use_twostar else a.star
    return np.cumsum((seq ** 2)[::-1])[::-1]


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
        extra = S * S * float(_hurwitz(2, m + 1))
        tails = tails + extra
    total = float(np.sum(tails ** (qf / 2) / (ns * logs ** (qf / 2))))
    if use_twostar:
        # remaining outer terms: (S^2 zeta(2,n))^{q/2} / (n log^{q/2}(n+1))
        N0 = max(m, _TAIL_START)
        if N0 > m:
            ns2 = np.arange(m + 1, N0 + 1, dtype=float)
            inner = S * S * _hurwitz(2, ns2)
            total += float(np.sum(inner ** (qf / 2)
                                  / (ns2 * np.log(ns2 + 1) ** (qf / 2))))
        total += _series_tail(
            lambda x: (S * S * float(_hurwitz(2, x))) ** (qf / 2)
            / (x * math.log(x + 1) ** (qf / 2)), N0)
    return ExtReal.finite(total ** (1.0 / qf))


def bochkarev_norm(b: SequenceData, p) -> float:
    """sup_n log^{-1/p#}(n+1) (sum_{j<=n} (b*_j)^2)^{1/2}, 2 < p <= inf."""
    p = as_exp(p)
    if not (_is_inf(p) or p > 2):
        raise ValueError("requires p > 2")
    cfg_psharp = 2.0 if _is_inf(p) else float(2 * p / (p - 2))
    m = len(b)
    if m == 0 or b.star[0] == 0.0:
        return 0.0
    sq = np.cumsum(b.star ** 2)
    ns = np.arange(1, m + 1, dtype=float)
    return float(np.max(np.sqrt(sq) / np.log(ns + 1) ** (1.0 / cfg_psharp)))


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
    zeta_tail = S * S * float(_hurwitz(2, m + 1))
    T_at = np.cumsum((a.twostar ** 2)[::-1])[::-1] + zeta_tail

    def tail_from(n: float) -> float:
        if n <= m:
            return float(T_at[int(n) - 1])
        return S * S * float(_hurwitz(2, n))

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


def _inner_average_sym(f: StepFunction) -> SymFunc:
    """t -> integral_0^{1/t} f* as a SymFunc (non-increasing in t)."""
    fs = star(f)
    return SymFunc.from_step(fs).antiderivative().recip_arg()


def _phi_symfunc(f: StepFunction) -> SymFunc:
    """t -> integral_0^t (integral_0^{1/r} f*)^2 dr with certified
    asymptotics; requires f* integrable (raises Divergence otherwise)."""
    fs = star(f)
    tot = fs.integrate(0.0, math.inf)
    if not tot.is_finite:
        raise Divergence("f* is not integrable; inner averages diverge")
    fn = _phi_fn(fs) if fs.is_compact() else _phi_fn_numeric(fs)
    a_tot = tot.value
    phi_total = None
    # as t -> 0 the inner average is the full mass a_tot
    head = Asym(a_tot * a_tot, 1, 0)
    # as t -> inf the integral saturates (inner average is square-integrable
    # near infinity because f* is bounded near its support bound)
    sym = SymFunc.from_step(fs).antiderivative().recip_arg().pow(2)
    tail_val = sym.integral()
    if not tail_val.is_finite:
        raise Divergence("squared inner averages are not integrable")
    tail = Asym(tail_val.value, 0, 0)
    return SymFunc(fn, head, tail, knots=[1.0 / k for k in fs.breakpoints
                                          if k > 0.0])


def optimal_Y_norm(f: StepFunction, u: WeightSpec, q) -> ExtReal:
    """Norm of the largest right-hand space for target weight u and
    exponent q:

    q >= 2: (int u*(t)^q (int_0^{1/t} f*)^q dt)^{1/q};
    q < 2 with finite correction weight xi:
        (int u*^q U^{q#/2} xi^{-q#/2} t^{-q/2} Phi_f(t)^{q/2} dt)^{1/q}
        with Phi_f(t) = int_0^t (int_0^{1/r} f*)^2 dr;
    q < 2 with xi identically infinite: the space is trivial (+inf for
    any f that is not a.e. zero).
    """
    q = as_exp(q)
    if not 0 < q < math.inf:
        raise ValueError("requires 0 < q < inf")
    qf = float(q)
    if not f.pieces or f.essential_sup().value == 0.0:
        return ExtReal.finite(0.0)
    cfg = ExponentConfig(math.inf, q)
    try:
        if q >= 2:
            uq = _ustar_sym(u, cfg, cfg.q)
            integrand = uq.mul(_inner_average_sym(f).pow(cfg.q))
            return integrand.integral().powf(1.0 / qf)
        tail_ok = qsharp_tail_finite(u, cfg)
        if not tail_ok.is_finite:
            return ExtReal.infinite(
                "correction weight xi is identically infinite: " +
                (tail_ok.reason or ""))
        w = _w_inner_weight(u, cfg)
        phi = _phi_symfunc(f)
        integrand = w.mul(phi.pow(q / 2))
        return integrand.integral().powf(1.0 / qf)
    except Divergence as exc:
        return ExtReal.infinite(exc.reason)


def morrey_optimal_norm(f: StepFunction, q, shape: StepFunction,
                        d: int = 1) -> ExtReal:
    """Morrey-scale optimal norm with ball-shape weight `shape`:

    q >= 2: sup_R shape(R) (int_0^{R^d} (int_0^{1/t} f*)^q dt)^{1/q}
    q < 2:  sup_R shape(R) R^{-d/2} (int_0^{R^d} Phi_f(t)^{q/2} dt)^{1/q}.
    """
    q = as_exp(q)
    if not 0 < q < math.inf:
        raise ValueError("requires 0 < q < inf")
    qf = float(q)
    if not f.pieces or f.essential_sup().value == 0.0:
        return ExtReal.finite(0.0)
    try:
        if q >= 2:
            inner = _inner_average_sym(f).pow(q)
        else:
            inner = _phi_symfunc(f).pow(q / 2)
        G = inner.antiderivative()  # cumulative integral, certified asyms
    except Divergence as exc:
        return ExtReal.infinite(exc.reason)
    phi_sym = SymFunc.from_step(shape)
    # R -> shape(R) * G(R^d)^{1/q} [* R^{-d/2} when q < 2] as a SymFunc in R

    def comp(R: float) -> float:
        val = G(R ** d) ** (1.0 / qf) * phi_sym(R)
        if q < 2:
            val *= R ** (-d / 2.0)
        return val

    def map_asym(a: Asym) -> Asym:
        # G(R^d) asymptotics in R, then the 1/q power
        out = Asym(a.coef, a.a * d, a.b).pow(1 / q)
        if q < 2:
            out = out.mul(Asym(1.0, -d / 2.0, 0))
        return out

    head = map_asym(G.head).mul(phi_sym.head)
    tail = map_asym(G.tail).mul(phi_sym.tail)
    knots = sorted(set(list(shape.breakpoints) +
                       [k ** (1.0 / d) for k in G.knots if k > 0]))
    return SymFunc(comp, head, tail, knots=knots).sup()


def expL_pair(F: StepFunction, d: int = 1) -> tuple[ExtReal, ExtReal]:
    """Exponential-Orlicz endpoint pair:

    left:  sup_R (R^d (1 + log+(1/R)))^{-1} int_0^{R^d} F*
    right: sup_R (1 + log+ R)^{-1} int_0^R F*.
    """
    if not F.pieces or F.essential_sup().value == 0.0:
        return ExtReal.finite(0.0), ExtReal.finite(0.0)
    A = SymFunc.from_step(star(F)).antiderivative()

    def denom_left(R: float) -> float:
        return R ** d * (1.0 + max(math.log(1.0 / R), 0.0))

    # near 0: R^d (1 + log(1/R)) ~ (1/d) t log(1/t) with t = R^d
    dleft = SymFunc(denom_left, Asym(1.0, d, 1), Asym(1.0, d, 0),
                    knots=[1.0])
    Aleft = SymFunc(lambda R: A(R ** d),
                    Asym(A.head.coef, A.head.a * d, A.head.b),
                    Asym(A.tail.coef, A.tail.a * d, A.tail.b),
                    knots=[k ** (1.0 / d) for k in A.knots if k > 0])
    left = Aleft.mul(dleft.pow(-1)).sup()

    dright = SymFunc(lambda R: 1.0 + max(math.log(R), 0.0),
                     Asym(1.0, 0, 0), Asym(1.0, 0, 1), knots=[1.0])
    right = A.mul(dright.pow(-1)).sup()
    return left, right


def llogl_norm(F: StepFunction) -> ExtReal:
    """int F*(t) (1 + log+(1/t)) dt, the associate-side functional of the
    exponential-Orlicz norm."""
    if not F.pieces or F.essential_sup().value == 0.0:
        return ExtReal.finite(0.0)
    Fs = SymFunc.from_step(star(F))
    wlog = SymFunc(lambda t: 1.0 + max(math.log(1.0 / t), 0.0),
                   Asym(1.0, 0, 1), Asym(1.0, 0, 0), knots=[1.0])
    return Fs.mul(wlog).integral()
