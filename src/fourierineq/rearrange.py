"""Rearrangements on the half line (0, inf).

star(f) is the non-increasing rearrangement with respect to the measure of
(0, inf); radial functions on R^d enter through ball-measure coordinates
(unit ball has measure 1), so the rearrangement of a monotone radial weight
is the profile map t -> w0(t**(1/d)).

All rearrangements of step data are exact, never sampled.  star sorts the
levels of finite constant cells (``star_cells``).  With decreasing power
pieces offset + c*(t-shift)**a, or a cell of infinite level, it splits,
sorts and lays out: each power piece is cut where it crosses a cell level
(in closed form), each part is keyed by the levels it spans, (top,
bottom), and the parts, sorted by (-top, -bottom, width), are laid out
from t = 0, a power part keeping its shape under a new shift.  A cell of
infinite level is a part of its own width and goes first, so star is
infinite on (0, w), w the total width of such cells, and not
identically.  ``distribution`` inverts star(f) piece by piece in closed
form.  Two cases raise NotImplementedError: star where two power parts'
level ranges overlap, and distribution of a power piece that star moved
left of its origin (shift < 0: the inverse needs a negative offset).
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from .extreal import ExtReal
from .pieces import Piece, StepFunction
from .symfunc import SymFunc
from .weights import WeightSpec, radial_map


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

    Supported pieces: constants and decreasing power pieces whose value
    ranges do not overlap other non-constant pieces (increasing power
    pieces and log factors would need reflected/transcendental inversions
    and are rejected).  Cell data takes ``star_cells``, the rest the split,
    sort and layout of ``_star_general``.
    """
    live = [p for p in f.pieces if p.offset != 0.0 or p.coef != 0.0]
    if not live:
        return StepFunction.constant(0.0)
    for p in live:
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
                             for a, b, v in zip(los, his, levels[keep])
                             if b > a])  # not a cell too thin to show
    return _star_general(live)


def _star_general(live: list[Piece]) -> StepFunction:
    """Split, sort and lay out (see the module docstring); a part starts at
    the exact sum of the widths before it, rounded once, so a piece that
    stays in place keeps its shift."""
    levels = sorted({p.const_value for p in live if p.is_constant},
                    reverse=True)
    parts = []  # (top, bottom, lo, hi, piece); a cell is one part
    for p in live:
        top, bottom = p.limit_at(p.lo), p.limit_at(p.hi)
        keys = [top] + [v for v in levels if bottom < v < top] + [bottom]
        edges = [p.lo]
        for v in keys[1:-1]:
            edges.append(min(max(p.shift + _ginv_term(p, v), edges[-1]), p.hi))
        edges.append(p.hi)
        parts += zip(keys, keys[1:], edges, edges[1:], [p] * len(edges))
    # a cell at a level goes before a power part that starts there
    parts.sort(key=lambda q: (-q[0], -q[1], q[3] - q[2]))
    pieces: list[Piece] = []
    t, laid, floor = 0.0, Fraction(0), math.inf  # floor: last power bottom
    for top, bottom, lo, hi, p in parts:
        if not p.is_constant:
            if top > floor:
                raise NotImplementedError(
                    "rearrangement with overlapping non-constant level ranges")
            floor = bottom
        laid += Fraction(hi) - Fraction(lo) if hi < math.inf else math.inf
        end = float(laid)
        if end > t:  # not past an infinite part, nor too thin to show at t
            pieces.append(Piece(t, end, top) if p.is_constant else
                          replace(p, lo=t, hi=end, shift=t - (lo - p.shift)))
            t = end
    return StepFunction(pieces)


def _ginv_term(p: Piece, lam: float) -> float:
    """t - shift where a decreasing power piece equals lam > offset."""
    return ((lam - p.offset) / p.coef) ** (1.0 / float(p.a))


# ---------------------------------------------------------------------------
# distribution function
# ---------------------------------------------------------------------------


def distribution(f: StepFunction) -> StepFunction:
    """lam -> |{f > lam}| as a StepFunction of lam, exact: star(f)'s pieces
    inverted from the right.  Below a piece the measure is its right end;
    over a power piece's range, shift + ((lam - offset)/coef)**(1/a), up to
    the level its left neighbour ends at (its own value at lo can round
    past that level)."""
    live = [p for p in star(f).pieces if p.offset != 0.0 or p.coef != 0.0]
    ends = [p.limit_at(p.hi) for p in live]  # a cell's level, at inf too
    caps = [math.inf] + ends[:-1]
    out: list[Piece] = []
    lam = 0.0
    for p, bottom, cap in zip(live[::-1], ends[::-1], caps[::-1]):
        if bottom > lam:
            out.append(Piece(lam, bottom, p.hi))
            lam = bottom
        top = min(p.limit_at(p.lo), cap)
        if top > lam:
            if p.shift < 0.0:
                raise NotImplementedError(
                    "distribution of a power piece moved left of its origin")
            out.append(Piece(lam, top, p.shift, p.coef ** (-1.0 / float(p.a)),
                             p.offset, 1 / p.a))
            lam = top
    if lam < math.inf:
        out.append(Piece(lam, math.inf))
    return StepFunction(out)


# ---------------------------------------------------------------------------
# weight rearrangements
# ---------------------------------------------------------------------------


def circ_profile(w: WeightSpec) -> StepFunction:
    """Non-increasing rearrangement of a radial non-increasing weight.

    For a valid monotone weight this is the ball-measure profile map
    t -> w0(t**(1/d)); monotone is decided on the exact r-profile w0, not on
    the ball-measure profile, whose log factor is asymptotic in d > 1.  A
    weight declared non-increasing whose profile actually grows rearranges
    to the constant +inf (its super-level sets all have infinite measure).
    """
    prof = w.profile()
    half = radial_map(prof, w.d)
    return half if prof.is_nonincreasing() else _star_of(w, half)


def lower_star(w: WeightSpec) -> StepFunction:
    """Non-decreasing rearrangement v_* defined by 1/v_* = (1/v)*.

    For a valid non-decreasing radial weight (decided on the exact
    r-profile, as in ``circ_profile``) this is the profile map; a
    decreasing profile in the non-decreasing slot yields v_* = 0 (so
    integrals of negative powers of v_* diverge, as they must).
    """
    prof = w.profile()
    half = radial_map(prof, w.d)
    if prof.pow_compose(-1).is_nonincreasing():
        return half
    return _star_of(w, half.pow_compose(-1)).pow_compose(-1)


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
