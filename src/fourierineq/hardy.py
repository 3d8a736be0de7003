"""Hardy-type inequality constants, forward and reverse.

Four problem kinds:

    head_sum       discrete:  (sum_n u_n (sum_{j>=n} x_j)**qq)**(1/qq)
                              <= K (sum_n v_n x_n**pp)**(1/pp),  qq < pp
    head_integral  continuous, inner integral_0^x g
    tail_integral  continuous, inner integral_x^inf g
    reverse        (int f**qq w)**(1/qq) <= K sup_x (nu(x)/x) int_0^x f
                   over non-increasing f, 0 < qq < 1

hardy_K evaluates the classical equivalent constant for each kind (sup form
when qq >= pp, integral form when qq < pp; the discrete pp <= 1 case uses
the inf form).  brute_force_K searches for near-extremal inputs by
multiplicative coordinate ascent from random restarts.  Its ratio is not a
certified lower bound on the optimal constant: the continuous norms are
midpoint sums on a grid of 8 sub-cells per geometric cell cut to
[knot/100, 100 knot], and the reverse form's sup is taken at the
midpoints, so the ratio can exceed the exact one of the same step
function (by up to 3.9% on a reverse problem at 10 cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import Exponent, as_exp, conjugate, is_inf
from .extreal import ExtReal
from .pieces import StepFunction
from .symfunc import SymFunc, guarded

HEAD_SUM = "head_sum"
HEAD_INTEGRAL = "head_integral"
TAIL_INTEGRAL = "tail_integral"
REVERSE = "reverse"


@dataclass
class HardyProblem:
    kind: str
    pp: Exponent  # exponent on the right-hand side
    qq: Exponent  # exponent on the left-hand side
    # discrete data
    u_seq: Optional[np.ndarray] = None
    v_seq: Optional[np.ndarray] = None
    # continuous data
    u_w: Optional[StepFunction] = None
    v_w: Optional[StepFunction] = None
    # reverse data: weight w and the non-decreasing nu with nu(t)/t
    # non-increasing
    w: Optional[StepFunction] = None
    nu: Optional[StepFunction] = None

    def __post_init__(self) -> None:
        if self.kind not in (HEAD_SUM, HEAD_INTEGRAL, TAIL_INTEGRAL, REVERSE):
            raise ValueError(f"unknown Hardy problem kind {self.kind!r}")
        self.pp = as_exp(self.pp)
        self.qq = as_exp(self.qq)
        if self.kind == HEAD_SUM:
            if self.u_seq is None or self.v_seq is None:
                raise ValueError("discrete problems need u_seq and v_seq")
            if not self.qq < self.pp:
                raise ValueError("the discrete form requires qq < pp")
        elif self.kind == REVERSE:
            if not 0 < self.qq < 1:
                raise ValueError("reverse form requires 0 < qq < 1")
            if self.w is None or self.nu is None:
                raise ValueError("reverse problems need w and nu")
        else:
            if self.u_w is None or self.v_w is None:
                raise ValueError("continuous problems need u_w and v_w")
            if self.pp <= 1:
                raise ValueError("continuous forms require pp > 1")

    @property
    def rr(self) -> Exponent:
        """1/rr = 1/qq - 1/pp."""
        if is_inf(self.pp):
            return self.qq
        return 1 / (1 / self.qq - 1 / self.pp)


# ---------------------------------------------------------------------------
# the two Hardy functionals
# ---------------------------------------------------------------------------


def sup_form(A: SymFunc, B: SymFunc, p: Exponent, q: Exponent) -> ExtReal:
    """sup_s A(s)**(1/q) B(s)**(1/p'), the constant for p <= q.  At p = 1
    B is read as the sup-norm factor itself.  Raises Divergence as the
    SymFunc calculus does."""
    rhs = B if p == 1 else B.pow(1 / conjugate(p))
    return A.pow(1 / q).mul(rhs).sup()


def integral_form(a: SymFunc, A: SymFunc, B: SymFunc, p: Exponent,
                  r: Exponent) -> ExtReal:
    """(int a A**(r/p) B**(r/p'))**(1/r), the constant for q < p with
    1/r = 1/q - 1/p.  At p = inf there is no A factor; at p = 1 B is read
    as the sup-norm factor itself.  Raises Divergence as sup_form does."""
    integrand = a if is_inf(p) else a.mul(A.pow(r / p))
    integrand = integrand.mul(B if p == 1 else B.pow(r / conjugate(p)))
    return integrand.integral().powf(1.0 / float(r))


# ---------------------------------------------------------------------------
# equivalent constants
# ---------------------------------------------------------------------------


def hardy_K(prob: HardyProblem) -> ExtReal:
    if prob.kind == HEAD_SUM:
        return _discrete_K(prob)
    if prob.kind == REVERSE:
        return reverse_hardy_K(prob)
    return _continuous_K(prob)


def _discrete_weights(prob: HardyProblem) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of a discrete problem, v cut or padded with inf to the length
    of u: an inf v_n admits only x_n = 0."""
    u = np.asarray(prob.u_seq, dtype=float)
    v = np.asarray(prob.v_seq, dtype=float)[:len(u)]
    return u, np.pad(v, (0, len(u) - len(v)), constant_values=np.inf)


def _discrete_K(prob: HardyProblem) -> ExtReal:
    u, v = _discrete_weights(prob)
    pp, rr = prob.pp, prob.rr
    Ucum = np.cumsum(u)
    if pp <= 1:
        vtail = np.minimum.accumulate(v[::-1])[::-1]  # inf_{j>=n} v_j
        if np.any((u > 0) & (vtail == 0.0)):
            return ExtReal.infinite("inf_{j>=n} v_j vanishes where u_n > 0")
        terms = u * Ucum ** float(rr / pp) * vtail ** float(-rr / pp)
    else:
        e = float(1 / (1 - pp))
        with np.errstate(divide="ignore"):
            ve = np.where(v > 0, v ** e, np.inf)
        if np.any(np.isinf(ve) & (u > 0)):
            return ExtReal.infinite("v_n vanishes where u_n > 0")
        vtail = np.cumsum(ve[::-1])[::-1]
        terms = (u * Ucum ** float(rr / pp)
                 * vtail ** float(rr / conjugate(pp)))
    return ExtReal.finite(float(np.sum(terms)) ** float(1 / rr))


def _continuous_K(prob: HardyProblem) -> ExtReal:
    pp, qq = prob.pp, prob.qq

    def compute() -> ExtReal:
        usym = SymFunc.from_step(prob.u_w)
        vsym = SymFunc.from_step(prob.v_w.pow_compose(1 / (1 - pp)))
        if prob.kind == HEAD_INTEGRAL:
            # conditions pair int_x^inf u with int_0^x v**(1/(1-pp))
            ufac, vfac = usym.tail_integral(), vsym.antiderivative()
        else:
            ufac, vfac = usym.antiderivative(), vsym.tail_integral()
        if qq >= pp:
            return sup_form(ufac, vfac, pp, qq)
        return integral_form(usym, ufac, vfac, pp, prob.rr)
    return guarded(compute)


def reverse_hardy_K(prob: HardyProblem) -> ExtReal:
    """Reverse Hardy constant for non-increasing functions (0 < qq < 1):

    xi(t) = t**qq (int_t^inf s**(-1/(1-qq)) W(s)**(1/(1-qq)) ds)**(1-qq),
    K     = (int nu**(-qq) xi**(-qq/(1-qq)) W**(qq/(1-qq)) w dt)**(1/qq),

    where W(x) = int_0^x w; finite iff xi is finite and the integral
    converges."""
    qq = prob.qq

    def compute() -> ExtReal:
        wsym = SymFunc.from_step(prob.w)
        W = wsym.antiderivative()
        inner = SymFunc.power(1.0, -1 / (1 - qq)).mul(W.pow(1 / (1 - qq)))
        xi = SymFunc.power(1.0, qq).mul(inner.tail_integral().pow(1 - qq))
        nu_sym = SymFunc.from_step(prob.nu)
        integrand = (nu_sym.pow(-qq).mul(xi.pow(-qq / (1 - qq)))
                     .mul(W.pow(qq / (1 - qq))).mul(wsym))
        return integrand.integral().powf(1.0 / float(qq))
    return guarded(compute)


# ---------------------------------------------------------------------------
# brute-force extremal search (a discretized ratio, not a certified bound)
# ---------------------------------------------------------------------------


def brute_force_K(prob: HardyProblem, rng: np.random.Generator,
                  n_restarts: int = 32, n_cells: int = 24,
                  n_sweeps: int = 30) -> float:
    """Best ratio LHS/RHS found by coordinate ascent over test inputs.
    The restarts are the rows of one array and move in lockstep, one
    ratio call per move; a row stops after a sweep without a gain."""
    if prob.kind == HEAD_SUM:
        ratio, dim = _discrete_ratio_fn(prob)
    elif prob.kind == REVERSE:
        ratio, dim = _reverse_ratio_fn(prob, n_cells)
    else:
        ratio, dim = _continuous_ratio_fn(prob, n_cells)
    x = rng.lognormal(0.0, 1.0, size=(n_restarts, dim))
    cur = ratio(x)
    live, c = np.arange(n_restarts), cur.copy()
    for _ in range(n_sweeps):
        if not live.size:
            break
        improved = np.zeros(live.size, dtype=bool)
        for i in range(dim):
            for fac in (4.0, 0.25, 1.5, 1 / 1.5):
                y = x.copy()
                y[:, i] *= fac
                val = ratio(y)
                up = val > c * (1 + 1e-12)
                if up.any():
                    x[up], c[up] = y[up], val[up]
                    improved |= up
        cur[live] = c
        live, x, c = live[improved], x[improved], c[improved]
    return max([0.0, *cur.tolist()])


def _row_ratio(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs / rhs per row, 0 where rhs is not positive."""
    return np.divide(lhs, rhs, out=np.zeros(len(lhs)), where=rhs > 0)


def _discrete_ratio_fn(prob: HardyProblem):
    """The ratio of each row of a (rows, dim) array of sequences; x_n is
    held at 0 where v_n is inf."""
    u, v = _discrete_weights(prob)
    held = np.isinf(v)
    v = np.where(held, 0.0, v)
    pp, qq = float(prob.pp), float(prob.qq)

    def ratio(x: np.ndarray) -> np.ndarray:
        x = np.where(held, 0.0, x)
        tails = x[:, ::-1].cumsum(axis=-1)[:, ::-1]
        lhs = (u * tails ** qq).sum(axis=-1) ** (1.0 / qq)
        rhs = (v * x ** pp).sum(axis=-1) ** (1.0 / pp)
        return _row_ratio(lhs, rhs)

    return ratio, len(u)


def _dense_grid(f: StepFunction, g: StepFunction, n_cells: int):
    """The evaluation grid of a continuous test function with n_cells
    geometric cells spanning the knots of f and g (100 times beyond them
    on both sides), each cell cut into 8: the midpoints and widths of the
    sub-cells, the cell holding each midpoint, and f and g at the
    midpoints."""
    knots = sorted({k for s in (f, g) for k in s.breakpoints if k > 0})
    lo = (knots[0] if knots else 1.0) / 100.0
    hi = (knots[-1] if knots else 1.0) * 100.0
    edges = np.geomspace(lo, hi, n_cells + 1)
    dense = np.unique(np.linspace(edges[:-1], edges[1:], 9, axis=1))
    mids = 0.5 * (dense[:-1] + dense[1:])
    cell_of = np.clip(np.searchsorted(edges, mids, side="right") - 1,
                      0, n_cells - 1)
    return mids, np.diff(dense), cell_of, f.at(mids), g.at(mids)


def _continuous_ratio_fn(prob: HardyProblem, n_cells: int):
    """The ratio of each row of a (rows, n_cells) array of cell levels."""
    pp, qq = float(prob.pp), float(prob.qq)
    _mids, widths, cell_of, uvals, vvals = _dense_grid(prob.u_w, prob.v_w,
                                                       n_cells)

    def ratio(x: np.ndarray) -> np.ndarray:
        masses = x.take(cell_of, axis=-1) * widths
        if prob.kind == HEAD_INTEGRAL:
            inner = masses.cumsum(axis=-1) - 0.5 * masses
        else:
            inner = masses[:, ::-1].cumsum(axis=-1)[:, ::-1] - 0.5 * masses
        lhs = (uvals * inner ** qq * widths).sum(axis=-1) ** (1.0 / qq)
        gp = (x ** pp).take(cell_of, axis=-1)
        rhs = (vvals * gp * widths).sum(axis=-1) ** (1.0 / pp)
        return _row_ratio(lhs, rhs)

    return ratio, n_cells


def _reverse_ratio_fn(prob: HardyProblem, n_cells: int):
    """The ratio of each row of a (rows, n_cells) array of cell levels,
    made non-increasing first; the sup is taken at the midpoints."""
    qq = float(prob.qq)
    mids, widths, cell_of, wvals, nuvals = _dense_grid(prob.w, prob.nu,
                                                       n_cells)
    nu_over_t = nuvals / mids

    def ratio(x: np.ndarray) -> np.ndarray:
        # enforce a non-increasing test function
        lev = np.maximum.accumulate(x[:, ::-1], axis=-1)[:, ::-1]
        fq = (lev ** qq).take(cell_of, axis=-1)
        lhs = (wvals * fq * widths).sum(axis=-1) ** (1.0 / qq)
        masses = lev.take(cell_of, axis=-1) * widths
        cums = masses.cumsum(axis=-1) - 0.5 * masses
        rhs = (nu_over_t * cums).max(axis=-1)
        return _row_ratio(lhs, rhs)

    return ratio, n_cells
