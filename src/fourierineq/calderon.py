"""Calderon-type domination between rearrangements.

F is dominated by G (written F < G here) when

    Psi_F(x) = integral_0^x F*(t)**2 dt
             <= integral_0^x ( integral_0^{1/t} G* )**2 dt = Phi_G(x)

for every x > 0.  An operator T is of joint strong type (1, inf; 2, 2)
exactly when T(f) < K f for a uniform K; bestK below is the smallest scale
factor sup_x (Psi_F(x) / Phi_G(x))**(1/2) that makes the domination hold
(scaling G by K scales Phi by K**2, G* being 1-homogeneous).

Constant-cell data (every live piece a finite constant cell, or a ``Cells``
array pair such as the samples of a signal) is held as arrays: F* is a
descending sort of the levels, Psi is piecewise linear (a cumulative sum of
squared levels times widths) and Phi is cellwise a**2 t + 2ab log t - b**2/t
in closed form, both evaluated on a whole array of points by
``searchsorted``.  Other input keeps the piecewise path (``star``,
``StepFunction.cumulative`` and the ``SymFunc`` layer), point by point.
``dominates`` evaluates Psi and Phi on every scan point in one pass, so the
supremum scan is exact up to the grid refinement of the monotone ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Union

import numpy as np

from .pieces import StepFunction
from .rearrange import star


class Cells(NamedTuple):
    """Constant-cell data on (0, inf): level values[i] on the cell
    (edges[i], edges[i + 1]] and zero beyond edges[-1]; edges[0] is 0."""

    edges: np.ndarray
    values: np.ndarray

    @staticmethod
    def sampled(mags: np.ndarray, dx: float) -> "Cells":
        """Samples as cells of width dx, laid out like ``step_profile``."""
        return Cells(np.arange(len(mags) + 1) * dx, np.asarray(mags, float))


Profile = Union[StepFunction, Cells]


def _as_cells(f: Profile) -> Profile:
    """f as Cells when every live piece is a finite constant cell, else f."""
    if isinstance(f, Cells):
        return f
    ps = f.pieces
    if all(p.is_constant for p in ps) and ps[-1].const_value == 0.0:
        vals = np.array([p.const_value for p in ps[:-1]], dtype=float)
        if np.all(np.isfinite(vals)):
            return Cells(np.array(f.breakpoints), vals)
    return f


def _star_cells(c: Cells) -> tuple[np.ndarray, np.ndarray]:
    """(edges, levels) of the non-increasing rearrangement: the positive
    levels sorted descending, each keeping its cell's width."""
    live = c.values > 0.0
    order = np.argsort(-c.values[live], kind="stable")
    edges = np.concatenate(([0.0], np.cumsum(np.diff(c.edges)[live][order])))
    return edges, c.values[live][order]


def _pointwise(fn: Callable[[float], float]) -> Callable:
    """fn, extended to arrays point by point."""
    return lambda x: (np.array([fn(float(t)) for t in x], dtype=float)
                      if np.ndim(x) else fn(x))


def psi(F: Profile, x: float) -> float:
    """Psi_F(x) = integral_0^x (F*)**2, exact for step data."""
    return float(_psi_fn(F)(x))


def _psi_fn(F: Profile) -> Callable:
    """x -> Psi_F(x) for a float or an array x."""
    F = _as_cells(F)
    if not isinstance(F, Cells):
        return _pointwise(star(F).pow_compose(2.0).cumulative())
    edges, levels = _star_cells(F)
    sq = np.append(levels * levels, 0.0)
    acc = np.concatenate(([0.0], np.cumsum(sq[:-1] * np.diff(edges))))

    def fn(x):
        i = np.searchsorted(edges, x, side="right") - 1
        return acc[i] + sq[i] * (x - edges[i])
    return fn


def phi(G: Profile, x: float) -> float:
    """Phi_G(x) = integral_0^x (integral_0^{1/t} G*)**2 dt, exact for
    compact step data."""
    return float(_phi_fn(G)(x))


def _phi_fn(G: Profile) -> Callable:
    """x -> Phi_G(x) for a float or an array x."""
    G = _as_cells(G)
    if not isinstance(G, Cells):
        return _pointwise(_phi_fn_numeric(star(G)))
    ys, g = _star_cells(G)
    # A(y) = integral_0^y G* is piecewise linear with knots ys; on the t-cell
    # (1/y_{i+1}, 1/y_i) A(1/t) = a + b/t with a = A(y_i) - g_i y_i, b = g_i.
    # t-cells ascending: cell 0 is (0, 1/y_m] with A = A(y_m), b = 0.
    A = np.concatenate(([0.0], np.cumsum(g * np.diff(ys))))
    a = np.concatenate(([A[-1]], (A[:-1] - g * ys[:-1])[::-1]))
    b = np.concatenate(([0.0], g[::-1]))
    t_edges = np.concatenate(([0.0], 1.0 / ys[:0:-1], [math.inf]))

    def prim(k, t):
        # integral of (a + b/t)**2 = a**2 t + 2ab log t - b**2 / t
        ak, bk = a[k], b[k]
        return ak * ak * t + (2 * ak * bk * np.log(t) - bk * bk / t)

    # cell k adds prim(k, t) - prim(k, t_k) beyond its left edge t_k;
    # cell 0 starts at t = 0, where its b = 0 leaves a**2 t alone
    k = np.arange(len(a))
    left = np.concatenate(([0.0], prim(k[1:], t_edges[1:-1])))
    cum = np.concatenate(([0.0], np.cumsum(prim(k[:-1], t_edges[1:-1])
                                           - left[:-1])))

    def fn(x):
        i = np.searchsorted(t_edges, x, side="right") - 1
        return cum[i] + (prim(i, x) - left[i])
    return fn


def _phi_fn_numeric(gs: StepFunction) -> Callable[[float], float]:
    from .symfunc import SymFunc
    inner = SymFunc.from_step(gs).antiderivative().recip_arg()
    return inner.pow(2).antiderivative().fn


@dataclass
class DominationCert:
    dominated: bool
    bestK: float
    argmax_x: float
    psi_at: float
    phi_at: float

    def to_json(self) -> dict:
        return {"dominated": self.dominated, "bestK": self.bestK,
                "argmax_x": self.argmax_x, "psi": self.psi_at,
                "phi": self.phi_at}


def _breakpoints(f: Profile) -> np.ndarray:
    return f.edges if isinstance(f, Cells) else np.array(f.breakpoints)


def dominates(F: Profile, G: Profile, tol: float = 1e-9,
              refine: int = 33) -> DominationCert:
    """Check F < G and report bestK = sup_x (Psi_F/Phi_G)**(1/2).

    F and G are StepFunctions or Cells.  Psi and Phi are evaluated on all
    scan points at once; a point with Phi <= 0 < Psi (the first one, in
    increasing x) refutes the domination outright."""
    bf, bg = _breakpoints(F), _breakpoints(G)
    bf, bg = bf[bf > 0], bg[bg > 0]
    knots = np.unique(np.concatenate((bf, bg, 1.0 / bg)))
    lo = knots[0] * 1e-6 if len(knots) else 1e-6
    hi = knots[-1] * 1e6 if len(knots) else 1e6
    # refine between knots; for dense profiles (sampled signals) refine only
    # a subsample of the intervals, keeping every knot as a scan point
    seams = knots if len(knots) <= 300 else knots[::len(knots) // 300]
    starts = np.maximum(np.concatenate(([lo], seams)), lo)
    stops = np.concatenate((seams, [hi]))
    xs = np.unique(np.concatenate(
        (np.geomspace(lo, hi, 400), knots,
         np.geomspace(starts, stops, refine, axis=1).ravel())))
    pv, fv = _psi_fn(F)(xs), _phi_fn(G)(xs)
    refuted = (fv <= 0.0) & (pv > 0.0)
    if refuted.any():
        k = int(np.argmax(refuted))
        return DominationCert(False, math.inf, float(xs[k]), float(pv[k]),
                              float(fv[k]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(fv > 0.0, pv / fv, 0.0)
    r[~(r > 0.0)] = 0.0
    k = int(np.argmax(r))
    if r[k] == 0.0:
        return DominationCert(True, 0.0, float(lo), 0.0, 0.0)
    bestK = math.sqrt(float(r[k]))
    return DominationCert(bestK <= 1.0 + tol, bestK, float(xs[k]),
                          float(pv[k]), float(fv[k]))


def verify_joint_type(signals: Iterable, tol: float = 1e-9) -> DominationCert:
    """Empirical joint strong type (1, inf; 2, 2) for the transform.

    For each sampled signal f, checks star(|Tf|) against star(|f|) and
    returns the worst-case certificate; the uniform bestK is the smallest K
    with Tf < K f over the sample.  The sample magnitudes enter as Cells
    (the layout of ``step_profile``) without building a StepFunction.
    """
    from .extremal import dft
    worst: DominationCert | None = None
    for sig in signals:
        T = dft(sig)
        cert = dominates(Cells.sampled(np.abs(T.values), T.dx),
                         Cells.sampled(np.abs(sig.values), sig.dx), tol=tol)
        if worst is None or cert.bestK > worst.bestK:
            worst = cert
    if worst is None:
        raise ValueError("no signals supplied")
    return worst
