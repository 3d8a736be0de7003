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
multiplicative coordinate ascent from random restarts.  Its test ratio is
one form over cell levels, built from exact cell masses of the weights
(``_cell_form``): the ratio of an admissible step function, or a lower
bound of it, so the search is a lower bound on the optimal constant, up to
the rounding of the cell masses.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
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
# brute-force extremal search (a lower bound from step test functions)
# ---------------------------------------------------------------------------


def brute_force_K(prob: HardyProblem, rng: np.random.Generator,
                  n_restarts: int = 32, n_cells: int = 24,
                  n_sweeps: int = 30) -> float:
    """Best ratio of ``_cell_form`` found by coordinate ascent: a lower
    bound on the optimal constant, up to the rounding of the cell masses.
    The restarts are the rows of one array and move in lockstep, one ratio
    call per move; a row stops after a sweep without a gain."""
    form = _cell_form(prob, n_cells)
    dim = form.b.shape[1]
    x = rng.lognormal(0.0, 1.0, size=(n_restarts, dim))
    cur = _cell_ratio(form, x)
    live, c = np.arange(n_restarts), cur.copy()
    for _ in range(n_sweeps):
        if not live.size:
            break
        improved = np.zeros(live.size, dtype=bool)
        for i in range(dim):
            for fac in (4.0, 0.25, 1.5, 1 / 1.5):
                y = x.copy()
                y[:, i] *= fac
                val = _cell_ratio(form, y)
                up = val > c * (1 + 1e-12)
                if up.any():
                    x[up], c[up] = y[up], val[up]
                    improved |= up
        cur[live] = c
        live, x, c = live[improved], x[improved], c[improved]
    return max([0.0, *cur.tolist()])


# (sum_i u_i (a x)_i**q)**(1/q) / (sum_j v_j (b x)_j**p)**(1/p) over x >= 0,
# max_j (b x)_j at p = inf; x reaching a row of a_inf (mass inf) reads inf
_CellForm = namedtuple("_CellForm", "a u a_inf b v q p")


def _cell_form(prob: HardyProblem, n_cells: int) -> _CellForm:
    """The test ratio of prob as one form, exact for head_sum (x is the
    sequence).  Otherwise x_j is the level of g on the j-th of n_cells
    geometric cells spanning the weights' knots 100 times over, 0 off them,
    and the weights enter by exact masses.  head_integral takes int_0^t g
    at each cell's left end, tail_integral int_t^inf g at its right end.
    reverse gives f the non-increasing levels sum_{k>=j} x_k from 0, and
    bounds nu(t)/t int_0^t f on a cell (a, b) by nu(a)/a int_0^b f (nu(b) f
    on the first), as nu rises and nu(t)/t falls; exact for nu = t.  So the
    form never exceeds the exact ratio of its test function.  An input
    whose v mass is inf is held at 0."""
    q, p = float(prob.qq), float(prob.pp)
    if prob.kind == HEAD_SUM:
        u, v = _discrete_weights(prob)
        a, b = np.triu(np.ones((len(u), len(u)))), np.eye(len(u))
    else:
        f, g = ((prob.w, prob.nu) if prob.kind == REVERSE
                else (prob.u_w, prob.v_w))
        knots = sorted({k for s in (f, g) for k in s.breakpoints
                        if k > 0}) or [1.0]
        edges = np.geomspace(knots[0] / 100.0, knots[-1] * 100.0,
                             n_cells + 1)
        cells = np.ones((n_cells + 1, n_cells))
        if prob.kind == REVERSE:
            edges[0] = 0.0
            u, a = _masses(f, edges), np.triu(cells[1:])
            j = np.arange(n_cells)
            left = edges[np.maximum(j, 1)]
            b = ((g.at(left) / left)[:, None]
                 * edges[1:][np.minimum.outer(j, j)])
            v, p = np.zeros(n_cells), math.inf
        else:
            b, v = np.eye(n_cells), _masses(g, edges)
            if prob.kind == HEAD_INTEGRAL:
                u = _masses(f, [*edges, math.inf])
                a = np.tril(cells, -1) * np.diff(edges)
            else:
                u = _masses(f, [0.0, *edges])
                a = np.triu(cells) * np.diff(edges)
    held = np.isinf(v)
    a[:, held], b[:, held], v[held] = 0.0, 0.0, 0.0
    reached = a.any(axis=1)
    finite = reached & np.isfinite(u)
    return _CellForm(a[finite], u[finite], a[reached & ~finite], b, v, q, p)


def _masses(f: StepFunction, edges) -> np.ndarray:
    """The integral of f between each two consecutive edges; inf where it
    diverges or overflows the floats."""
    out = np.full(len(edges) - 1, math.inf)
    for i, (x0, x1) in enumerate(zip(edges[:-1], edges[1:])):
        with contextlib.suppress(OverflowError):
            out[i] = f.integrate(float(x0), float(x1)).value
    return out


def _cell_ratio(form: _CellForm, x: np.ndarray) -> np.ndarray:
    """The form's ratio of each row of a (rows, dim) array of inputs, 0
    where the right-hand side vanishes.  By einsum, not @ (see
    ``pieces._weighted``)."""
    ax = np.einsum("ij,rj->ri", form.a, x)
    lhs = np.einsum("i,ri->r", form.u, ax ** form.q) ** (1.0 / form.q)
    if len(form.a_inf):
        lhs[np.einsum("ij,rj->ri", form.a_inf, x).any(axis=1)] = np.inf
    bx = np.einsum("ij,rj->ri", form.b, x)
    if form.p == math.inf:
        rhs = bx.max(axis=1)
    else:
        rhs = np.einsum("j,rj->r", form.v, bx ** form.p) ** (1.0 / form.p)
    return np.divide(lhs, rhs, out=np.zeros(len(lhs)), where=rhs > 0)
