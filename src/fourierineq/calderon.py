"""Calderon-type domination between rearrangements.

F is dominated by G (written F < G here) when

    Psi_F(x) = integral_0^x F*(t)**2 dt
             <= integral_0^x ( integral_0^{1/t} G* )**2 dt = Phi_G(x)

for every x > 0.  An operator T is of joint strong type (1, inf; 2, 2)
exactly when T(f) < K f for a uniform K; bestK below is the smallest scale
factor sup_x (Psi_F(x) / Phi_G(x))**(1/2) that makes the domination hold
(scaling G by K scales Phi by K**2, G* being 1-homogeneous).

Psi and Phi are computed in closed form for compact step data: Psi is
piecewise linear in x and Phi is cellwise a + b*log + c/x, so the supremum
scan is exact up to the grid refinement of the monotone ratio.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .extreal import ExtReal
from .pieces import StepFunction
from .rearrange import star


def psi(F: StepFunction, x: float) -> float:
    """Psi_F(x) = integral_0^x (F*)**2, exact for step data."""
    return _psi_fn(F)(x)


def _psi_fn(F: StepFunction) -> Callable[[float], float]:
    return star(F).pow_compose(2.0).cumulative()


def phi(G: StepFunction, x: float) -> float:
    """Phi_G(x) = integral_0^x (integral_0^{1/t} G*)**2 dt, exact for
    compact step data."""
    return _phi_fn(G)(x)


def _phi_fn(G: StepFunction) -> Callable[[float], float]:
    gs = star(G)
    cells = [p for p in gs.pieces if p.is_constant and p.const_value > 0
             and math.isfinite(p.hi)]
    if len(cells) != sum(1 for p in gs.pieces
                         if p.offset != 0.0 or p.coef != 0.0):
        return _phi_fn_numeric(gs)
    # A(y) = integral_0^y G* is piecewise linear with knots y_i
    ys = [0.0] + [p.hi for p in cells]
    gvals = [p.const_value for p in cells]
    A = [0.0]
    for p, g in zip(cells, gvals):
        A.append(A[-1] + g * (p.hi - p.lo))
    Atot = A[-1]
    # on t in (1/y_{i+1}, 1/y_i): A(1/t) = a_i + b_i / t
    # cells in t ascending: first (0, 1/y_m]: constant Atot
    t_edges = [0.0] + [1.0 / y for y in reversed(ys[1:])]  # ascending
    coeffs = []  # (a, b) per t-cell
    coeffs.append((Atot, 0.0))
    for i in reversed(range(len(cells))):
        a = A[i] - gvals[i] * ys[i]
        coeffs.append((a, gvals[i]))
    t_edges.append(math.inf)

    def cell_int(a: float, b: float, t0: float, t1: float) -> float:
        # integral of (a + b/t)**2 = a**2 t + 2ab log t - b**2 / t
        def prim(t: float) -> float:
            out = a * a * t
            if b != 0.0:
                out += 2 * a * b * math.log(t) - b * b / t
            return out
        if t0 == 0.0:
            if b != 0.0:
                raise AssertionError("1/t term cannot reach t=0")
            return a * a * t1
        return prim(t1) - prim(t0)

    cum = [0.0]
    for i, (a, b) in enumerate(coeffs):
        t0, t1 = t_edges[i], t_edges[i + 1]
        if math.isinf(t1):
            break
        cum.append(cum[-1] + cell_int(a, b, t0, t1))

    def fn(x: float) -> float:
        i = bisect.bisect_right(t_edges, x) - 1
        i = min(i, len(coeffs) - 1)
        base = cum[i] if i < len(cum) else cum[-1]
        a, b = coeffs[i]
        return base + cell_int(a, b, t_edges[i], x)

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


def dominates(F: StepFunction, G: StepFunction, tol: float = 1e-9,
              refine: int = 33) -> DominationCert:
    """Check F < G and report bestK = sup_x (Psi_F/Phi_G)**(1/2)."""
    psi_fn = _psi_fn(F)
    phi_fn = _phi_fn(G)
    knots = sorted({k for k in F.breakpoints + G.breakpoints if k > 0}
                   | {1.0 / k for k in G.breakpoints if k > 0})
    lo = min(knots) * 1e-6 if knots else 1e-6
    hi = max(knots) * 1e6 if knots else 1e6
    # refine between knots; for dense profiles (sampled signals) refine only
    # a subsample of the intervals, keeping every knot as a scan point
    seams = knots if len(knots) <= 300 else \
        [knots[i] for i in range(0, len(knots), len(knots) // 300)]
    xs = np.unique(np.concatenate(
        [np.geomspace(lo, hi, 400), np.asarray(knots, dtype=float)]
        + [np.geomspace(max(a, lo), b, refine)
           for a, b in zip([lo] + seams, seams + [hi])]))
    best, bx, bpsi, bphi = 0.0, lo, 0.0, 0.0
    for x in xs:
        pv = psi_fn(float(x))
        fv = phi_fn(float(x))
        if fv <= 0.0:
            if pv > 0.0:
                return DominationCert(False, math.inf, float(x), pv, fv)
            continue
        r = pv / fv
        if r > best:
            best, bx, bpsi, bphi = r, float(x), pv, fv
    bestK = math.sqrt(best)
    return DominationCert(bestK <= 1.0 + tol, bestK, bx, bpsi, bphi)


def verify_joint_type(signals: Iterable, tol: float = 1e-9) -> DominationCert:
    """Empirical joint strong type (1, inf; 2, 2) for the transform.

    For each sampled signal f, checks star(|Tf|) against star(|f|) and
    returns the worst-case certificate; the uniform bestK is the smallest K
    with Tf < K f over the sample.
    """
    from .extremal import dft, step_profile
    worst: DominationCert | None = None
    for sig in signals:
        F = step_profile(dft(sig))
        G = step_profile(sig)
        cert = dominates(F, G, tol=tol)
        if worst is None or cert.bestK > worst.bestK:
            worst = cert
    if worst is None:
        raise ValueError("no signals supplied")
    return worst
