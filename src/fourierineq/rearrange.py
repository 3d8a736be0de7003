"""Rearrangements on the half line (0, inf).

star(f) is the non-increasing rearrangement with respect to the measure of
(0, inf); radial functions on R^d enter through ball-measure coordinates
(unit ball has measure 1), so the rearrangement of a monotone radial weight
is the profile map t -> w0(t**(1/d)).

All rearrangements of step data are exact: level sets of monotone power
pieces are inverted in closed form (the piece family offset + c*(t-shift)**a
is closed under that inversion), never sampled.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from .extreal import ExtReal
from .pieces import Piece, StepFunction
from .symfunc import SymFunc
from .weights import WeightSpec, recip


# ---------------------------------------------------------------------------
# constant-cell data
# ---------------------------------------------------------------------------


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


def as_cells(f: Profile) -> Profile:
    """f as Cells when every piece is a finite constant cell and the tail
    is zero, else f."""
    if isinstance(f, Cells):
        return f
    ps = f.pieces
    if all(p.is_constant for p in ps) and ps[-1].const_value == 0.0:
        vals = np.array([p.const_value for p in ps[:-1]], dtype=float)
        if np.all(np.isfinite(vals)):
            return Cells(np.array(f.breakpoints), vals)
    return f


def star_cells(c: Cells) -> tuple[np.ndarray, np.ndarray]:
    """(edges, levels) of the non-increasing rearrangement of cell data:
    the positive levels sorted descending (stably), each keeping its
    cell's width."""
    live = c.values > 0.0
    order = np.argsort(-c.values[live], kind="stable")
    edges = np.concatenate(([0.0], np.cumsum(np.diff(c.edges)[live][order])))
    return edges, c.values[live][order]


# ---------------------------------------------------------------------------
# non-increasing rearrangement
# ---------------------------------------------------------------------------


def star(f: StepFunction) -> StepFunction:
    """Non-increasing rearrangement of f, exact.

    Supported pieces: constants and monotone non-increasing power pieces
    whose value ranges do not overlap other non-constant pieces (increasing
    power pieces and log factors would need reflected/transcendental
    inversions and are rejected).
    """
    live = [p for p in f.pieces if p.offset != 0.0 or p.coef != 0.0]
    if not live:
        return StepFunction.constant(0.0)
    for p in live:
        if math.isinf(p.offset):
            return StepFunction.constant(math.inf)
        if p.b != 0:
            raise NotImplementedError("rearrangement of log-factor pieces")
        if not p.is_constant and p.a > 0:
            if math.isinf(p.hi):
                # grows without bound: every super-level set has infinite
                # measure, so the rearrangement is identically +inf
                return StepFunction.constant(math.inf)
            raise NotImplementedError(
                "rearrangement of increasing power pieces")

    cells = as_cells(f)
    if isinstance(cells, Cells):
        edges, levels = star_cells(cells)
        # one piece per run of equal levels
        keep = np.append(levels[1:] != levels[:-1], True)
        his = edges[1:][keep]
        los = np.concatenate(([0.0], his[:-1]))
        return StepFunction([Piece(float(a), float(b), float(v))
                             for a, b, v in zip(los, his, levels[keep])])
    return _star_general(live)


def _star_general(live: list[Piece]) -> StepFunction:
    """Layer-cake merge of constant cells and decreasing power pieces."""
    # floor level below which the super-level measure is infinite
    floor = 0.0
    for p in live:
        if math.isinf(p.hi):
            floor = max(floor, p.limit_at(math.inf))
    # critical levels: endpoint values of every piece
    crits: set[float] = set()
    unbounded_top = False
    for p in live:
        for v in (p.limit_at(p.lo), p.limit_at(p.hi)):
            if math.isinf(v):
                unbounded_top = True
            elif v > floor:
                crits.add(v)
    levels = sorted(crits, reverse=True)
    if unbounded_top:
        levels = [math.inf] + levels
    if floor >= 0.0:
        levels.append(floor)

    def measure_above(lam: float) -> float:
        m = 0.0
        for p in live:
            m += _piece_measure_above(p, lam)
        return m

    pieces: list[Piece] = []
    t_cursor = 0.0
    for lam_hi, lam_lo in zip(levels, levels[1:]):
        mid = lam_lo + 0.5 * (min(lam_hi, 2 * lam_lo + 1.0) - lam_lo) \
            if math.isinf(lam_hi) else 0.5 * (lam_hi + lam_lo)
        straddlers = [p for p in live if not p.is_constant
                      and _straddles(p, lam_lo, lam_hi)]
        if len(straddlers) > 1:
            raise NotImplementedError(
                "rearrangement with overlapping non-constant level ranges")
        const_len = sum((p.hi - p.lo) for p in live
                        if _piece_measure_above(p, mid) == (p.hi - p.lo)
                        and math.isfinite(p.hi))
        if not straddlers:
            # measure is flat on this band: the rearrangement jumps here
            t_next = const_len
            if t_next > t_cursor + 1e-15:
                pieces.append(Piece(t_cursor, t_next, lam_hi
                                    if math.isfinite(lam_hi) else lam_lo))
                t_cursor = t_next
            continue
        p = straddlers[0]
        # decreasing piece: {p > lam} = (lo, g_inv(lam)); measure adds
        # g_inv(lam) - lo, so  t = K + ((lam-off)/c)**(1/a)  with
        # K = const_len + shift - lo, inverted exactly to
        # lam = off + c*(t-K)**a.
        K = const_len + p.shift - p.lo
        t_hi_level = K + _ginv_term(p, lam_hi)   # t at the top level
        t_lo_level = K + _ginv_term(p, lam_lo)   # t at the bottom level
        t0 = max(t_cursor, t_hi_level)
        if t0 > t_cursor + 1e-15:
            pieces.append(Piece(t_cursor, t0, lam_hi
                                if math.isfinite(lam_hi) else lam_lo))
        if t_lo_level > t0 + 1e-15 or math.isinf(t_lo_level):
            pieces.append(Piece(t0, t_lo_level, p.offset, p.coef, K, p.a, 0))
        t_cursor = t_lo_level
    if math.isfinite(t_cursor):
        if floor > 0.0:
            pieces.append(Piece(t_cursor, math.inf, floor))
        else:
            pieces.append(Piece(t_cursor, math.inf))
    if not pieces:
        return StepFunction.constant(floor)
    return StepFunction(pieces)


def _straddles(p: Piece, lam_lo: float, lam_hi: float) -> bool:
    v0, v1 = p.endpoint_range()
    return v0 <= lam_lo + 1e-15 and (v1 >= lam_hi - 1e-15
                                     or (math.isinf(lam_hi) and math.isinf(v1)))


def _ginv_term(p: Piece, lam: float) -> float:
    """((lam - offset)/coef)**(1/a) for a decreasing monomial piece."""
    a = float(p.a)
    if math.isinf(lam):
        return 0.0
    s = lam - p.offset
    if s <= 0.0:
        return math.inf  # level at or below the piece offset: full tail
    return (s / p.coef) ** (1.0 / a)


def _piece_measure_above(p: Piece, lam: float) -> float:
    v_min, v_max = p.endpoint_range()
    if lam >= v_max:
        return 0.0
    if lam < v_min:
        return p.hi - p.lo
    # straddling a decreasing piece: (lo, shift + ginv)
    return max(0.0, min(p.hi, p.shift + _ginv_term(p, lam)) - p.lo)


# ---------------------------------------------------------------------------
# distribution function
# ---------------------------------------------------------------------------


def distribution(f: StepFunction) -> StepFunction:
    """lam -> |{f > lam}| as a StepFunction of lam, exact.

    Computed by analytic inversion of the (already computed) rearrangement;
    tails are never sampled.
    """
    fs = star(f)
    out: list[Piece] = []
    # walk star pieces from the right (small values) to the left
    lam_cursor = 0.0
    for p in reversed(fs.pieces):
        if p.offset == 0.0 and p.coef == 0.0:
            continue
        if p.is_constant:
            v = p.const_value
            if math.isinf(v):
                break
            if v > lam_cursor + 1e-15:
                out.append(Piece(lam_cursor, v, p.hi if math.isfinite(p.hi)
                                 else math.inf))
                lam_cursor = v
        else:
            # lam = off + c*(t-K)**a on [lo, hi)  =>
            # m(lam) = K + ((lam-off)/c)**(1/a) on (value(hi), value(lo))
            v_at_hi = p.limit_at(p.hi)
            v_at_lo = p.limit_at(p.lo)
            a = float(p.a)
            lam_lo = max(lam_cursor, v_at_hi)
            lam_hi = v_at_lo
            if lam_hi <= lam_lo + 1e-15 and not math.isinf(lam_hi):
                continue
            coef = p.coef ** (-1.0 / a)
            out.append(Piece(lam_lo, lam_hi, p.shift, coef, p.offset,
                             1 / p.a, 0))
            lam_cursor = lam_hi
    if math.isfinite(lam_cursor):
        out.append(Piece(lam_cursor, math.inf))
    if not out:
        return StepFunction.constant(0.0)
    return StepFunction(out)


# ---------------------------------------------------------------------------
# weight rearrangements
# ---------------------------------------------------------------------------


def circ_profile(w: WeightSpec) -> StepFunction:
    """Non-increasing rearrangement of a radial non-increasing weight.

    For a valid monotone weight this is the ball-measure profile map
    t -> w0(t**(1/d)).  A weight declared non-increasing whose profile
    actually grows rearranges to the constant +inf (its super-level sets all
    have infinite measure).
    """
    prof = w.halfline_profile()
    return prof if prof.is_nonincreasing() else _star_of(w, prof)


def lower_star(w: WeightSpec) -> StepFunction:
    """Non-decreasing rearrangement v_* defined by 1/v_* = (1/v)*.

    For a valid non-decreasing radial weight this is the profile map; a
    decreasing profile in the non-decreasing slot yields v_* = 0 (so
    integrals of negative powers of v_* diverge, as they must).
    """
    prof = w.halfline_profile()
    inv = recip(prof)
    return prof if inv.is_nonincreasing() else recip(_star_of(w, inv))


def _star_of(w: WeightSpec, prof: StepFunction) -> StepFunction:
    """star(prof) for the profile of w (or of 1/w); where star has no exact
    rearrangement of it, the NotImplementedError names w."""
    try:
        return star(prof)
    except NotImplementedError as exc:
        raise NotImplementedError(
            f"weight {w.format()} in the {w.direction} slot has no exact "
            f"rearrangement ({exc})") from exc


# ---------------------------------------------------------------------------
# maximal average and the Hardy-Littlewood pairing
# ---------------------------------------------------------------------------


def double_star(f: StepFunction) -> SymFunc:
    """f** = t -> (1/t) integral_0^t f*, exact: the closed-form cumulative
    of f* over t, with certified ends; raises Divergence where the
    integral of f* diverges."""
    return (SymFunc.from_step(star(f)).antiderivative()
            .mul(SymFunc.power(1.0, -1)))


def hl_pairing(f: StepFunction, g: StepFunction) -> ExtReal:
    """integral_0^inf f*(t) g*(t) dt (the Hardy-Littlewood upper pairing)."""
    fs, gs = star(f), star(g)
    try:
        return (fs * gs).integrate()
    except NotImplementedError:
        return SymFunc.from_step(fs).mul(SymFunc.from_step(gs)).integral()
