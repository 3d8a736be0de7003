"""One-variable non-negative functions on (0, inf) built from power-log pieces.

A StepFunction is a finite list of pieces covering (0, inf).  Each piece is

    f(t) = offset + coef * (t - shift)**a * log(e + t - shift)**b

on an interval [lo, hi) (the first piece on (0, hi)): a StepFunction is
right-continuous, and at a breakpoint it takes the piece on the right
(``StepFunction.indicator(1.0)(1.0)`` is 0); the limit from the left is
the value one ulp below, which ``SymFunc.sup`` reads at every knot.
Constant cells are pieces with coef = 0; power leads/tails are pieces with
offset = 0.  ``StepFunction.from_cells`` builds cells on a sequence of grid
points from 0, checked by ``Piece`` and ``StepFunction``, with a lead and a
tail given as ``TailSpec``.  The shift parameter lets a rearrangement move a power piece
along the half line with its shape kept.  The family
{offset + c*(t-shift)**a} is closed under inversion only up to sign: the
inverse of a piece shifted left of 0 needs a negative offset, which a
Piece does not hold (``rearrange.distribution`` rejects it).

The exponent rule (every exponent slot holds a Fraction, or math.inf), its
parser and the exponent helpers live in ``exponents``; ``as_exp`` and
``parse_exp`` are imported here and keep their names ``pieces.as_exp`` and
``pieces.parse_exp``.

The end rule decides, by one formula at both ends of (0, inf), whether a
term c * t**a * L**b (L = log(1/t) at 0, log(t) at inf) is integrable there,
its limit there and the leading term of its integral (``end_integrable``,
``end_limit``, ``end_integral``), comparing the exact exponents.  Pieces and
the asymptotic terms of ``symfunc`` take every end decision from it.

Coefficients are floats.  A piece without a log factor has one closed-form
integral, ``_closed_integral``, on floats or arrays: ``Piece.integral`` and
``StepCumulative.at`` both read it.  Quadrature is used only where a closed
form does not exist (log factors over finite ranges, infinite tails with
log factors), and only after convergence has been decided symbolically.
The reciprocal 1/f of a StepFunction is ``pow_compose(-1)``.

Array evaluators (``Piece.at``, ``StepFunction.at``, ``StepCumulative.at``)
compute a whole array of points with numpy's logs and powers, which on an
AVX-512 x86 host differ from the C library's in the last bit for about 5%
of exp and pow values; so an array value may differ from the scalar
``Piece.__call__`` and ``StepFunction.__call__`` by a few ulp.  The
package's one quadrature rule is the graded rule ``quad_cells``: it
integrates cells at once, each in a variable x in (0, 1) whose map
u = a + (b - a) x**2 (3 - 2 x) flattens an algebraic singularity at either
end, halving in x, as arrays, the pieces that QUADPACK's first
Gauss-Kronrod stage (dqk21, here ``first_stage`` on arrays) leaves open.
Every integral of the package runs through it: those of a ``SymFunc``,
the log-factor pieces of ``Piece.integral`` and the series tails of
``norms``.  It needs numpy alone.
"""

from __future__ import annotations

import bisect
import collections
import csv
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exponents import Exponent, as_exp, parse_exp
from .extreal import ExtReal

_E = math.e
# h(s) = s / ((e+s) log(e+s)) peaks at s* = e log(e+s*), where it is
# e / (e+s*); the peak value is rounded up (``Piece.values_monotone``)
_S_PEAK = 5.833958031974924
_H_PEAK = 0.3178444328993728


# ---------------------------------------------------------------------------
# Quadrature backbone: QUADPACK's first stage on arrays, and the graded rule
# ---------------------------------------------------------------------------

QUAD_TOL = 1.49e-8  # QUADPACK's customary epsabs and epsrel (scipy's quad's)
_LIMIT = 300    # pieces per cell
# cells of quad_cells that stopped before their bound was met, by reason:
# "limit" (a cell reached _LIMIT pieces) or "roundoff" (a piece whose error
# estimate is at the level of roundoff, or that halving cannot split)
QUAD_FLAGS: collections.Counter = collections.Counter()


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21): the Kronrod abscissae
# (those at odd indices are the 10-point Gauss nodes), the Kronrod weights
# with the centre's last, and the Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208422440823, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _weighted(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i w[i] rows[i].  By einsum, not @: BLAS allocates its work
    buffers on its first call, which raised the peak resident memory of
    the bench's constants workload, where nothing else calls BLAS, by
    0.3 MB."""
    return np.einsum("i,ij->j", w, rows)


def first_stage(at, a: np.ndarray, b: np.ndarray):
    """QUADPACK's 21-point Kronrod rule dqk21 on every segment (a[i], b[i])
    at once, the first stage of qagse: arrays (result, abserr, resabs,
    resasc, finite), finite false where a node value is not; such a value
    reads 0 in the sums.  at is called once, on the 21 nodes of every
    segment, and may overwrite the array it is given (``log_integrand``'s
    does).  The nodes, weights and error formula are dqk21's; its sums are
    products with the weight vectors, so a result agrees with dqk21's to
    rounding, not to the bit.  The one Gauss-Kronrod stage of the graded
    rule ``quad_cells``."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = np.multiply.outer(_XGK, hlgth)
    nodes = np.concatenate([centr[None], centr - absc, centr + absc])
    del absc  # the arrays of a pass are large: keep few alive
    fv = np.asarray(at(nodes.reshape(-1)), dtype=float).reshape(21, -1)
    del nodes
    ok = np.isfinite(fv)
    finite = ok.all(axis=0)
    if not finite.all():  # in a new array: at may return one it holds
        fv = np.where(ok, fv, 0.0)
    fc, fv1, fv2 = fv[0], fv[1:11], fv[11:]
    wgk, wc = _WGK[:10], _WGK[10]
    with np.errstate(all="ignore"):  # segments with non-finite nodes
        fsum = fv1 + fv2
        resk = wc * fc + _weighted(wgk, fsum)
        resg = _weighted(_WG, fsum[1::2])  # the Gauss nodes
        resabs = wc * np.abs(fc) + _weighted(wgk, np.abs(fv1) + np.abs(fv2))
        reskh = resk * 0.5
        resasc = wc * np.abs(fc - reskh) + _weighted(
            wgk, np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
        result = resk * hlgth
        dhlgth = np.abs(hlgth)
        resabs *= dhlgth
        resasc *= dhlgth
        abserr = np.abs((resk - resg) * hlgth)
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    abserr = np.where(finite & (resasc != 0.0) & (abserr != 0.0), scaled,
                      abserr)
    big = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[big] = np.maximum((_EPMACH * 50.0) * resabs[big], abserr[big])
    return result, abserr, resabs, resasc, finite


def _passes(abserr, resasc, finite, errbnd) -> np.ndarray:
    """qagse's test to stop after its first stage with ier = 0: every node
    value finite, and abserr <= errbnd and abserr != resasc, or abserr =
    0."""
    return finite & (((abserr <= errbnd) & (abserr != resasc))
                     | (abserr == 0.0))


def _grade(x, a, width):
    """u = a + width s(x), s(x) = x**2 (3 - 2 x): the graded map of
    ``quad_cells`` for the cell (a, a + width), at a point or an array x."""
    return a + width * (x * x * (3.0 - 2.0 * x))


def _grade_slope(x, width):
    """du/dx of the graded map."""
    return width * 6.0 * x * (1.0 - x)


def _graded(at, a: np.ndarray, width: np.ndarray, cell: np.ndarray):
    """at(u) du/dx in the graded variable x, on ``first_stage``'s nodes of
    pieces of the cells cell (node-major, one column per piece)."""
    a, width = a[cell], width[cell]

    def mapped(xs: np.ndarray) -> np.ndarray:
        x = xs.reshape(-1, len(cell))
        fv = at(_grade(x, a, width).reshape(-1))
        du = _grade_slope(x, width)  # after at: one array less at its peak
        du *= fv.reshape(du.shape)
        return du.reshape(-1)
    return mapped


def quad_cells(at, a: np.ndarray, b: np.ndarray, epsabs=0.0) -> np.ndarray:
    """integral over every cell (a[i], b[i]) (finite, a <= b) of the
    function that at(ts) gives at every point of an array ts.

    The graded rule: every cell is integrated in a variable x in (0, 1),
    u = a + (b - a) x**2 (3 - 2 x), whose Jacobian (b - a) 6 x (1 - x)
    vanishes at both ends, so that an algebraic singularity at an end of
    the cell, (b - u)**alpha, becomes (1 - x)**(2 alpha + 1): flattened
    enough that the first stage accepts the cell.  Every cell goes through
    ``first_stage`` in x, and so does every piece that halving in x makes,
    all pieces of one level in one call.  A cell is done when the error
    estimates of its pieces sum to at most max(epsabs, QUAD_TOL |I|), I the
    sum of their results: qagse's test on the whole cell, where epsabs (one
    per cell, or one for all) is 0 for a relative bound, so that a cell
    with a small integral (the last before a zero of a cumulative) keeps
    its relative accuracy, and ``QUAD_TOL`` for a cell that stands for one
    of QUADPACK's integrals, at its tolerances.  Until then a piece whose
    error is within its width's share of that bound is kept, and the
    others are halved; a node value that is not finite reads 0, and its
    piece is halved like any other.  A cell stops open when it would pass
    300 pieces (QUADPACK's subdivision limit here) or a piece cannot
    improve: halving cannot split it, or its error estimate is at the
    level of roundoff (where qagse flags ier 2).  Such a cell keeps its
    best estimate, the results of its open pieces included, and counts
    once in ``QUAD_FLAGS``, under "limit" or "roundoff".  A cell of width
    0 is 0.

    The package's one quadrature rule: ``Cumulative.at``, ``end_quad``
    and the integrals of ``log_cells`` all go through it."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    width = b - a
    floor = np.broadcast_to(np.asarray(epsabs, dtype=float), (n,))
    total = np.zeros(n)  # the kept pieces' results and errors, per cell
    kept_err = np.zeros(n)
    count = np.ones(n, dtype=int)  # pieces per cell
    why = np.zeros(n, dtype=np.int8)  # 1 stopped at roundoff, 2 at the limit
    cell = np.flatnonzero(width != 0.0)
    lo, hi = np.zeros(len(cell)), np.ones(len(cell))  # pieces, in x
    while len(cell):
        result, abserr, resabs, resasc, finite = first_stage(
            _graded(at, a, width, cell), lo, hi)
        errbnd = np.maximum(floor, QUAD_TOL * np.abs(
            total + np.bincount(cell, result, minlength=n)))
        done = ((kept_err + np.bincount(cell, abserr, minlength=n) <= errbnd)
                & (np.bincount(cell, ~finite, minlength=n) == 0))
        keep = done[cell] | _passes(abserr, resasc, finite,
                                    errbnd[cell] * (hi - lo))
        total += np.bincount(cell[keep], result[keep], minlength=n)
        kept_err += np.bincount(cell[keep], abserr[keep], minlength=n)
        rest = ~keep
        cell, lo, hi = cell[rest], lo[rest], hi[rest]
        mid = 0.5 * (lo + hi)
        split = ((lo < mid) & (mid < hi)
                 & (abserr[rest] > (100.0 * _EPMACH) * resabs[rest]))
        count += np.bincount(cell[split], minlength=n)
        over = (count > _LIMIT)[cell]
        split &= ~over
        if not split.all():  # open pieces: their results are the estimate
            stop = ~split
            total += np.bincount(cell[stop], result[rest][stop], minlength=n)
            why[cell[stop]] = np.where(over[stop], 2, 1)
        cell, lo, mid, hi = cell[split], lo[split], mid[split], hi[split]
        cell = np.concatenate([cell, cell])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    for code, reason in ((1, "roundoff"), (2, "limit")):
        stopped = int(np.count_nonzero(why == code))
        if stopped:
            QUAD_FLAGS[reason] += stopped
    return total


def log_integrand(at):
    """The integrand of an integral in u = log t, at(e**u) e**u on an array
    of u (at is the function on an array of t); it computes in the array
    of u it is given, which it overwrites.  Where e**u under- or
    overflows, or at is not finite there, the integrand reads 0: a
    quadrature samples u far beyond the range where the (convergent)
    integrand matters."""
    def g_at(us: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            ts = np.exp(us, out=us)
            ok = (ts > 0.0) & (ts < math.inf)
            if ok.all():
                out = np.multiply(at(ts), ts, out=ts)
            else:
                out = np.zeros(len(us))
                out[ok] = at(ts[ok]) * ts[ok]
        out[~np.isfinite(out)] = 0.0
        return out

    return g_at


def log_cells(at, edges: Sequence[float], epsabs: float = 0.0) -> float:
    """integral over (edges[0], edges[-1]), for increasing finite edges > 0
    at the function's kinks, of the function that at gives on an array, in
    u = log t (``log_integrand``): the whole range as one cell where its
    first stage, in u, meets the bound of ``quad_cells`` (the graded map
    would crowd the nodes of a wide smooth range at its ends), else every
    cell (edges[i], edges[i+1]) by the graded rule of ``quad_cells`` with
    the floor epsabs."""
    g_at = log_integrand(at)
    us = np.log(np.asarray(edges, dtype=float))
    if len(us) > 2:  # one cell is quad_cells' first stage
        result, abserr, _, resasc, finite = first_stage(g_at, us[:1],
                                                        us[-1:])
        bound = max(epsabs, QUAD_TOL * abs(float(result[0])))
        if _passes(abserr, resasc, finite, bound)[0]:
            return float(result[0])
    return math.fsum(quad_cells(g_at, us[:-1], us[1:], epsabs).tolist())


_LOG_CUT = 700.0  # |log t| beyond which e**u may under- or overflow


def end_quad(at, end, t0: float, t1: float) -> float:
    """integral from the end t0 = 0 or to the end t1 = inf of the function
    that at gives on an array; end (an Asym, or a Piece for its own tail)
    holds its term c t**a L**b there, L = |log t|.  Up to the cut
    |log t| = 700 (or t0, t1 beyond it) by ``quad_cells`` at the
    tolerances ``QUAD_TOL``, mapped onto y in (0, 1] by y = (t/t_e)**(a+1)
    for a power term (a != -1, b = 0), on which the term is constant, else
    by qagie's u = u_e -+ (1 - y)/y in u = log t; beyond the cut, the end
    rule's integrated term there, the rest of an end ~ t**-1 L**b that
    floats cannot reach, and the leading term of the rest of any other."""
    at_zero = t0 == 0.0
    u = math.log(t1 if at_zero else t0)
    cut = min(u, -_LOG_CUT) if at_zero else max(u, _LOG_CUT)
    c, a1, b1 = end_integral(end.coef, end.a, end.b)
    with np.errstate(all="ignore"):
        scale = float(np.exp(float(a1) * cut
                             + float(b1) * math.log(abs(cut))))
    beyond = c * scale if c and scale > 0.0 else 0.0
    g_at = log_integrand(at)
    alpha = float(end.a) + 1.0
    if end.coef != 0.0 and alpha != 0.0 and end.b == 0:
        def mapped(y: np.ndarray) -> np.ndarray:
            return g_at(u + np.log(y) / alpha) / (abs(alpha) * y)
        y_cut = math.exp(alpha * (cut - u))
    else:
        sign = -1.0 if at_zero else 1.0

        def mapped(y: np.ndarray) -> np.ndarray:
            return g_at(u + sign * (1.0 - y) / y) / (y * y)
        y_cut = 1.0 / (1.0 + abs(cut - u))
    inner = quad_cells(mapped, np.array([y_cut]), np.array([1.0]), QUAD_TOL)
    return beyond + float(inner[0])


class Divergence(Exception):
    """Raised when a quantity is certified infinite; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def end_integrable(c: float, a: Exponent, b: Exponent, at_zero: bool) -> bool:
    """Is the term integrable at 0 (at_zero) or at inf?  Not where its
    coefficient is not finite (the negative power of a function that
    vanishes near the end)."""
    if c == 0.0:
        return True
    if not math.isfinite(c):
        return False
    if a == -1:
        return b < -1
    return (a > -1) == at_zero


def end_limit(c: float, a: Exponent, b: Exponent, at_zero: bool) -> float:
    """The term's limit at 0 (at_zero) or at inf: 0, c or inf; inf where
    c is not finite, as ``end_integrable`` reads such a term."""
    if c == 0.0:
        return 0.0
    if not math.isfinite(c):
        return math.inf
    if a != 0:
        grows = (a < 0) == at_zero
    elif b != 0:
        grows = b > 0
    else:
        return c
    return math.inf if grows else 0.0


def end_integral(c: float, a: Exponent, b: Exponent
                 ) -> tuple[float, Exponent, Exponent]:
    """(c', a', b') of the leading term of the term's integral from the end
    (or toward it, where it is not integrable): c t**(a+1) L**b / |a+1|,
    or c L**(b+1) / |b+1| for a = -1; Divergence for log-log growth."""
    if c == 0.0:
        return 0.0, Fraction(0), Fraction(0)
    if a != -1:
        return c / abs(float(a) + 1.0), a + 1, b
    if b == -1:
        raise Divergence("log-log growth is not supported")
    return c / abs(float(b) + 1.0), Fraction(0), b + 1


_SQRT_EPS = math.sqrt(2.2e-16)
_REFINE = 20  # array calls of the refinement of scan_max, at most
_BATCH = 15  # points per call of the refinement
_FLAT = 8.0 * sys.float_info.epsilon  # a bracket flat to rounding


def scan_max(h_at, ts: np.ndarray) -> float:
    """Numeric max of h over the increasing grid ts and
    between its points, where h_at is h on an array: the best sample, taken
    in one call, refined between its neighbours unless they are within a
    few ulp of it.  Each step is one call of h_at at 15 points evenly
    spaced across the bracket and at the vertex of the parabola through
    the three even points nearest the best point so far, which bracket the
    next step, an eighth as wide (so noise in h cannot close it early).
    Steps stop when the bracket is within 4 sqrt(eps) of the best point,
    relative, or two vertices in a row agree to sqrt(eps) and the last is
    the best point.  nan reads as no value, and an inf sample is the
    max."""
    vals = h_at(ts)
    k = int(np.nanargmax(vals))
    best = float(vals[k])
    if best == math.inf:
        return best
    x = ts[max(k - 1, 0):k + 2]
    f = np.where(np.isnan(vals), -np.inf, vals)[max(k - 1, 0):k + 2]
    near = np.delete(f, min(k, 1))
    if not len(near) or best - np.max(near) <= _FLAT * abs(best):
        return best
    xb, last = float(ts[k]), math.nan
    for _ in range(_REFINE):
        x0, x2 = float(x[0]), float(x[-1])
        tol = _SQRT_EPS * abs(xb)
        if x2 - x0 <= 4.0 * tol:
            break
        vertex = []
        if len(x) == 3:  # the vertex of the parabola through x, f
            x1, (y0, y1, y2) = float(x[1]), f.tolist()
            p = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
            q = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            v = x1 - 0.5 * p / q if q != 0.0 and math.isfinite(q) else x0
            vertex = [v] if x0 < v < x2 else []
        xs = np.linspace(x0, x2, _BATCH + 2)
        fs = h_at(np.concatenate([xs[1:-1], vertex]))
        fs = np.where(np.isnan(fs), -np.inf, fs)
        if vertex and fs[-1] > best:
            best, xb = float(fs[-1]), vertex[0]
        fs = np.concatenate([f[:1], fs[:_BATCH], f[-1:]])
        j = int(np.argmax(fs))
        if fs[j] > best:
            best, xb = float(fs[j]), float(xs[j])
        if vertex and xb == vertex[0] and abs(xb - last) <= tol:
            break
        last = vertex[0] if vertex else math.nan
        # the inner even point nearest to the best point so far, and its
        # neighbours
        j = int(np.argmin(np.abs(xs[1:-1] - xb))) + 1
        x, f = xs[j - 1:j + 2], fs[j - 1:j + 2]
    return best


# ---------------------------------------------------------------------------
# Tail / lead specifications (public constructors for asymptotic pieces)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailSpec:
    """Behavior beyond the last grid point: 0 or c * t**(-a) * log(e+t)**(-b).

    The decay-exponent convention is used: kind "power" with a > 0 decays,
    a < 0 grows.  Finiteness of integrals against the tail is always decided
    from (a, b) symbolically, never by sampling.
    """

    kind: str  # "zero" | "power" | "powerlog"
    a: Exponent = 0
    b: Exponent = 0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "power", "powerlog"):
            raise ValueError(f"bad tail kind {self.kind!r}")
        object.__setattr__(self, "a", as_exp(self.a))
        object.__setattr__(self, "b", as_exp(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("tail exponents must be finite")
        if self.kind == "power" and self.b != 0:
            raise ValueError("power tail takes no log exponent")

    @staticmethod
    def zero() -> "TailSpec":
        return TailSpec("zero")

    @staticmethod
    def power(a: Exponent) -> "TailSpec":
        return TailSpec("power", a)

    @staticmethod
    def powerlog(a: Exponent, b: Exponent) -> "TailSpec":
        return TailSpec("powerlog", a, b)


# ---------------------------------------------------------------------------
# Piece
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float  # may be math.inf
    offset: float = 0.0
    coef: float = 0.0
    shift: float = 0.0
    a: Exponent = 0
    b: Exponent = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_exp(self.a))
        object.__setattr__(self, "b", as_exp(self.b))
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"bad piece interval ({self.lo}, {self.hi})")
        if self.shift > self.lo + 1e-15 and (self.coef != 0.0):
            raise ValueError("piece shift must not exceed its left endpoint")
        if self.offset < 0 or self.coef < 0:
            raise ValueError("pieces must be non-negative")

    # -- structure predicates -----------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.coef == 0.0 or (self.a == 0 and self.b == 0)

    @property
    def const_value(self) -> float:
        assert self.is_constant
        return self.offset + self.coef

    @property
    def is_monomial(self) -> bool:
        """Pure c*(t-shift)**a*log(...)**b with no additive offset."""
        return self.offset == 0.0

    def __call__(self, t: float) -> float:
        if self.is_constant:
            return self.const_value
        s = t - self.shift
        if s <= 0.0:
            s = 0.0
            if self.a < 0:
                return math.inf
        val = self.offset + self.coef * s ** float(self.a)
        if self.b != 0:
            val = self.offset + (val - self.offset) * math.log(_E + s) ** float(self.b)
        return val

    def at(self, ts: np.ndarray) -> np.ndarray:
        """The piece's formula at every point of the array ts, with
        t - shift clamped to 0 as in ``__call__``; powers and logs are
        numpy's, so values can differ from ``__call__`` in the last bits."""
        if self.is_constant:
            return np.full(np.shape(ts), self.const_value)
        s = np.maximum(ts - self.shift, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            val = self.offset + self.coef * s ** float(self.a)
            if self.b != 0:
                val = self.offset + ((val - self.offset)
                                     * np.log(_E + s) ** float(self.b))
        return val

    def limit_at(self, t: float) -> float:
        """One-sided limit; t may be 0.0 (from the right) or inf."""
        if self.is_constant:
            return self.const_value
        if math.isinf(t):
            return self.offset + end_limit(self.coef, self.a, self.b, False)
        if t - self.shift <= 0.0:  # the log factor tends to 1 at s = 0
            return self.offset + end_limit(self.coef, self.a, 0, True)
        return self(t)

    def values_monotone(self) -> bool:
        """True when the piece is monotone on its interval.  With
        s = t - shift, the log of s**a log(e+s)**b has the derivative
        (a + b h(s)) / s, where h(s) = s / ((e+s) log(e+s)) rises from 0 at
        s = 0 to its peak 0.31784 at s* = 5.834 and falls back to 0 as
        s -> inf.  So a piece with a b < 0 is monotone iff |b| h - |a| keeps
        one sign over the range of h on its interval, from the smaller h at
        its ends to the larger (or the peak, where s* lies inside).  h is
        computed to a few ulp: the test can err only where |b| h and |a|
        agree to about 1e-15 relative, and such a piece departs from
        monotone by a relative 1e-22 or so (the 3/2 power of that gap at
        the peak, its square at an end), far below its float resolution."""
        if self.is_constant or self.a * self.b >= 0:
            return True
        s0, s1 = max(self.lo - self.shift, 0.0), self.hi - self.shift
        ends = [s / ((_E + s) * math.log(_E + s)) if math.isfinite(s)
                else 0.0 for s in (s0, s1)]
        top = _H_PEAK if s0 < _S_PEAK < s1 else max(ends)
        a, b = abs(float(self.a)), abs(float(self.b))
        return b * top <= a or b * min(ends) >= a

    # -- calculus -------------------------------------------------------
    def integral(self, x0: float, x1: float) -> ExtReal:
        """Integral over (x0, x1) subset of (lo, hi); endpoints may be 0/inf.
        Divergence is decided first, by the end rule; then the closed form
        ``_closed_integral`` gives the value of a piece without a log factor
        and quadrature that of one with a log factor.  OverflowError where
        the value passes the floats' range."""
        x0 = max(x0, self.lo)
        x1 = min(x1, self.hi)
        if x1 <= x0:
            return ExtReal.finite(0.0)
        # constant part
        if self.offset > 0.0 or self.coef == 0.0:
            if math.isinf(x1) and self.offset > 0.0:
                return ExtReal.infinite("constant level over infinite measure")
            if math.isinf(self.offset):
                return ExtReal.infinite("infinite level on a cell")
        # symbolic convergence checks; the log factor ~ 1 at a head s = 0
        a, b = self.a, self.b
        if self.coef != 0.0:
            if (x0 - self.shift <= 0.0
                    and not end_integrable(self.coef, a, 0, True)):
                return ExtReal.infinite(
                    f"non-integrable head exponent {self.a} at t={self.shift}"
                )
            if math.isinf(x1) and not end_integrable(self.coef, a, b, False):
                return ExtReal.infinite(
                    f"non-integrable tail exponents (a={self.a}, b={self.b})")
        if b == 0 or self.coef == 0.0:
            val = float(_closed_integral(self, x0, x1))
        else:
            # certified-convergent quadrature for log factors, of the piece
            # in s = t - shift: a head at s = 0 by the end rule of its power
            # (the log factor tends to 1 there), the cells up to s = 1 or
            # s1, and an infinite tail by its own
            s0 = max(x0 - self.shift, 0.0)
            s1 = x1 - self.shift
            g_at = replace(self, offset=0.0, shift=0.0).at
            lo = min(s1, 1.0) if s0 == 0.0 else s0
            hi = max(lo, 1.0) if math.isinf(s1) else s1
            val = 0.0
            with np.errstate(over="ignore"):  # an overflow is inf, read below
                if s0 == 0.0:
                    val += end_quad(g_at, replace(self, b=0), 0.0, lo)
                if hi > lo:
                    val += log_cells(g_at, [lo, hi])
                if math.isinf(s1):
                    val += end_quad(g_at, self, hi, math.inf)
            val += self.offset * (x1 - x0) if not math.isinf(x1) else 0.0
        if not math.isfinite(val):  # past the floats' range
            raise OverflowError(f"integral of a piece over ({x0}, {x1})")
        return ExtReal.finite(val)

    # -- algebra ---------------------------------------------------------
    def pow(self, e: Exponent) -> "Piece":
        e = as_exp(e)
        if self.is_constant:
            v = self.const_value ** e if self.const_value > 0 else (
                0.0 if e > 0 else math.inf)
            if self.const_value == 0.0 and e == 0:
                v = 1.0
            return Piece(self.lo, self.hi, v, 0.0, self.shift)
        if not self.is_monomial:
            raise NotImplementedError(
                "power of an offset-plus-power piece has no closed form")
        return Piece(self.lo, self.hi, 0.0, self.coef ** float(e), self.shift,
                     self.a * e, self.b * e)

    def scaled(self, k: float) -> "Piece":
        """k times the piece, by the rule 0 x = 0 (also for x = inf): a
        zero piece or a zero scale gives a zero piece, and an infinite
        scale of any other piece an infinite level."""
        if k < 0:
            raise ValueError("negative scale")
        if not (k and (self.offset or self.coef)):
            return replace(self, offset=0.0, coef=0.0)
        if math.isinf(k):
            return replace(self, offset=math.inf, coef=0.0, a=0, b=0)
        return replace(self, offset=self.offset * k, coef=self.coef * k)

    def restricted(self, lo: float, hi: float) -> "Piece":
        if lo <= self.lo and self.hi <= hi:
            return self
        return replace(self, lo=max(lo, self.lo), hi=min(hi, self.hi))

    def try_mul(self, other: "Piece") -> "Piece | None":
        """Exact product on the overlap, or None when not representable."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi <= lo:
            return None
        if self.is_constant:
            return other.restricted(lo, hi).scaled(self.const_value)
        if other.is_constant:
            return self.restricted(lo, hi).scaled(other.const_value)
        if self.is_monomial and other.is_monomial and self.shift == other.shift:
            return Piece(lo, hi, 0.0, self.coef * other.coef, self.shift,
                         self.a + other.a, self.b + other.b)
        return None


# ---------------------------------------------------------------------------
# StepFunction
# ---------------------------------------------------------------------------


_RISE_TOL = 1e-12  # the rise is_nonincreasing forgives


class StepFunction:
    """Piecewise power-log function on (0, inf).

    Pieces tile (0, inf) with no gaps; trailing zero is an explicit piece.
    Each piece holds [lo, hi), so a value at a breakpoint is the right
    piece's (``__call__`` and ``at`` agree there).
    """

    __slots__ = ("pieces", "_los")

    def __init__(self, pieces: Iterable[Piece]):
        ps = sorted(pieces, key=lambda p: p.lo)
        if not ps or ps[0].lo != 0.0:
            raise ValueError("pieces must start at 0")
        for p, q in zip(ps, ps[1:]):
            if not math.isclose(p.hi, q.lo, rel_tol=0, abs_tol=1e-12):
                raise ValueError(f"gap or overlap between pieces at {p.hi} / {q.lo}")
        if not math.isinf(ps[-1].hi):
            ps.append(Piece(ps[-1].hi, math.inf))
        self.pieces: tuple[Piece, ...] = tuple(ps)
        self._los = [p.lo for p in self.pieces]

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_cells(grid: Sequence[float], values: Sequence[float],
                   tail: TailSpec = TailSpec.zero(),
                   lead: TailSpec | None = None) -> "StepFunction":
        """Constant values on the cells of grid (strictly increasing
        points from 0, as ``Piece`` and ``StepFunction`` check), plus a
        tail after the last point.

        The last entry of values is the tail coefficient: the tail is
        values[-1] * t**(-a) * log(e+t)**(-b) beyond the last grid point (and
        is ignored for a zero tail).  With a lead, a TailSpec that describes
        the first cell, that cell becomes values[0] * t**(-a_lead) instead
        of a constant; near 0 the log factor log(e+t) tends to 1, so only
        the lead's power exponent matters for integrability there.
        """
        pts = [float(x) for x in grid]
        if not pts:
            raise ValueError("grid must start at 0")
        ncells = len(pts) - 1
        nvals = ncells + (0 if tail.kind == "zero" else 1)
        if len(values) != nvals:
            raise ValueError(f"need {nvals} values for {ncells} cells and tail")
        pieces: list[Piece] = []
        for i in range(ncells):
            v = float(values[i])
            if v < 0:
                raise ValueError("values must be non-negative")
            if i == 0 and lead is not None and lead.kind != "zero":
                pieces.append(Piece(pts[0], pts[1], 0.0, v, 0.0,
                                    -lead.a, -lead.b))
            else:
                pieces.append(Piece(pts[i], pts[i + 1], v))
        last = pts[-1]
        if tail.kind == "zero":
            pieces.append(Piece(last, math.inf))
        else:
            pieces.append(Piece(last, math.inf, 0.0, float(values[ncells]), 0.0,
                                -tail.a, -tail.b))
        return StepFunction(pieces)

    @staticmethod
    def power(coef: float, a: Exponent, b: Exponent = 0) -> "StepFunction":
        """coef * t**(-a) * log(e+t)**(-b) on all of (0, inf)."""
        return StepFunction([Piece(0.0, math.inf, 0.0, coef, 0.0,
                                   -as_exp(a), -as_exp(b))])

    @staticmethod
    def indicator(R: float) -> "StepFunction":
        return StepFunction.from_cells([0.0, float(R)], [1.0])

    @staticmethod
    def constant(c: float) -> "StepFunction":
        return StepFunction([Piece(0.0, math.inf, float(c))])

    # -- basic queries -----------------------------------------------------
    def __call__(self, t: float) -> float:
        if t <= 0.0:
            raise ValueError("StepFunction is defined on (0, inf)")
        i = bisect.bisect_right(self._los, t) - 1
        return self.pieces[i](t)

    def at(self, ts) -> np.ndarray:
        """f at every point of the array ts; where t <= 0 it reads the
        right limit at 0 (``pieces[0].limit_at(0.0)``), as the first piece's
        formula at t - shift clamped to 0 gives.  Each piece's formula runs
        once on the group of points it holds (``Piece.at``)."""
        shape = np.shape(ts)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        idx = np.maximum(np.searchsorted(self._los, ts, side="right") - 1, 0)
        levels = np.array([p.const_value if p.is_constant else math.nan
                           for p in self.pieces])
        out = levels[idx]
        held = np.bincount(idx[np.isnan(out)], minlength=len(self.pieces))
        for i in np.flatnonzero(held):
            sel = idx == i
            out[sel] = self.pieces[i].at(ts[sel])
        return out.reshape(shape)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._los)

    @property
    def tail(self) -> TailSpec:
        p = self.pieces[-1]
        if p.coef == 0.0 and p.offset == 0.0:
            return TailSpec.zero()
        if p.b == 0:
            return TailSpec.power(-p.a)
        return TailSpec.powerlog(-p.a, -p.b)

    @property
    def values(self) -> tuple[float, ...]:
        """Per-cell levels for constant cells (nan for power pieces)."""
        return tuple(p.const_value if p.is_constant else math.nan
                     for p in self.pieces)

    def support_bound(self) -> float:
        """Smallest T with f = 0 on (T, inf); inf when the tail is nonzero."""
        for p in reversed(self.pieces):
            if p.offset != 0.0 or p.coef != 0.0:
                return p.hi
        return 0.0

    def is_compact(self) -> bool:
        return math.isfinite(self.support_bound())

    def is_nonincreasing(self) -> bool:
        """Non-increasing up to a rise of _RISE_TOL (absolute)."""
        prev = math.inf
        for p in self.pieces:
            v0 = p.limit_at(p.lo)
            v1 = p.limit_at(p.hi)
            if not p.values_monotone():
                return False
            if max(v0, v1) > prev + _RISE_TOL or v1 > v0 + _RISE_TOL:
                return False
            prev = min(v0, v1)
        return True

    # -- calculus ------------------------------------------------------------
    def integrate(self, x0: float = 0.0, x1: float = math.inf) -> ExtReal:
        if x1 <= x0:
            return ExtReal.finite(0.0)
        total = ExtReal.finite(0.0)
        for p in self.pieces:
            if p.hi <= x0 or p.lo >= x1:
                continue
            total = total + p.integral(x0, x1)
            if total.is_infinite:
                return total
        return total

    def cumulative(self, from_left: bool = True) -> "StepCumulative":
        """t -> integral_0^t f (from_left) or t -> integral_t^inf f."""
        return StepCumulative(self, from_left)

    # -- algebra ---------------------------------------------------------------
    def pow_compose(self, e: float) -> "StepFunction":
        """Pointwise power f**e (exact; requires representable pieces)."""
        return StepFunction([p.pow(e) for p in self.pieces])

    def scaled(self, k: float) -> "StepFunction":
        return StepFunction([p.scaled(k) for p in self.pieces])

    def __mul__(self, other: "StepFunction") -> "StepFunction":
        pieces = []
        for lo, hi, p, q in _overlaps(self, other):
            prod = p.restricted(lo, hi).try_mul(q.restricted(lo, hi))
            if prod is None:
                raise NotImplementedError(
                    "product not exactly representable; use the symfunc layer")
            pieces.append(prod)
        return StepFunction(pieces)

    def refine(self, extra: Sequence[float]) -> "StepFunction":
        """Same function with additional breakpoints inserted."""
        cuts = sorted({c for c in extra if 0.0 < c < math.inf})
        pieces: list[Piece] = []
        for p in self.pieces:
            inner = [c for c in cuts if p.lo < c < p.hi]
            edges = [p.lo] + inner + [p.hi]
            for a, b in zip(edges, edges[1:]):
                pieces.append(p.restricted(a, b))
        return StepFunction(pieces)

    # -- serialization -----------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write `t,value` rows plus a final `tail,...` row.

        Only functions whose non-tail pieces are constant cells can be
        written; the last data row carries the tail coefficient.
        """
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            body, tail_piece = self.pieces[:-1], self.pieces[-1]
            for p in body:
                if not p.is_constant:
                    raise ValueError("CSV export requires constant cells")
                w.writerow([repr(p.lo), repr(p.const_value)])
            ts = self.tail
            if ts.kind == "zero":
                w.writerow([repr(tail_piece.lo), "0"])
                w.writerow(["tail", "zero"])
            else:
                w.writerow([repr(tail_piece.lo), repr(tail_piece.coef)])
                row = ["tail", ts.kind, str(ts.a)]
                if ts.kind == "powerlog":
                    row.append(str(ts.b))
                w.writerow(row)

    @staticmethod
    def from_csv(path: str) -> "StepFunction":
        pts: list[float] = []
        vals: list[float] = []
        tail = TailSpec.zero()
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#"):
                    continue
                if row[0].strip() == "tail":
                    kind = row[1].strip()
                    if kind == "zero":
                        tail = TailSpec.zero()
                    elif kind == "power":
                        tail = TailSpec.power(parse_exp(row[2]))
                    elif kind == "powerlog":
                        tail = TailSpec.powerlog(parse_exp(row[2]),
                                                 parse_exp(row[3]))
                    else:
                        raise ValueError(f"unknown tail kind {kind!r}")
                else:
                    pts.append(float(row[0]))
                    vals.append(float(row[1]))
        if not pts or pts[0] != 0.0:
            raise ValueError("CSV grid must start at t=0")
        if tail.kind == "zero":
            vals = vals[:-1] if len(vals) == len(pts) else vals
            return StepFunction.from_cells(pts, vals[:len(pts) - 1], tail)
        return StepFunction.from_cells(pts, vals, tail)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StepFunction({len(self.pieces)} pieces on (0, inf))"


class StepCumulative:
    """t -> integral_0^t f (from_left) or t -> integral_t^inf f of a
    StepFunction f, as prefix sums of the piece integrals plus the partial
    integral of the piece holding t; inf beyond a divergent piece.  Exact
    for pieces without log factors: ``at`` evaluates each piece's partial
    integrals on the group of points of an array that the piece holds, by
    the piece's one closed form (``_closed_integral``), and only those of
    a piece with a log factor by ``Piece.integral`` point by point."""

    __slots__ = ("pieces", "los", "from_left", "base")

    def __init__(self, f: StepFunction, from_left: bool):
        self.pieces, self.los, self.from_left = f.pieces, f._los, from_left
        acc = [0.0]
        for p in (f.pieces[:-1] if from_left else f.pieces[:0:-1]):
            seg = p.integral(p.lo, p.hi)
            acc.append(acc[-1] + (seg.value if seg.is_finite else math.inf))
        self.base = acc if from_left else acc[::-1]

    def _partial(self, i: int, t: float) -> float:
        """The partial integral of piece i at t by ``Piece.integral``; inf
        where it diverges, or overflows the floats."""
        p = self.pieces[i]
        try:
            part = (p.integral(p.lo, t) if self.from_left
                    else p.integral(t, p.hi))
        except OverflowError:
            return math.inf
        return part.value if part.is_finite else math.inf

    def at(self, ts: np.ndarray) -> np.ndarray:
        """The integral at every point of the array ts."""
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.los, ts, side="right") - 1
        out = np.zeros(ts.shape)
        if not self.from_left:  # left of 0: the integral from 0
            ts = np.where(idx < 0, 0.0, ts)
            idx = np.maximum(idx, 0)
        held = np.bincount(idx[idx >= 0], minlength=len(self.pieces))
        for i in np.flatnonzero(held):
            sel = np.flatnonzero(idx == i)
            p, t = self.pieces[i], ts[sel]
            if p.b != 0 and p.coef != 0.0:  # a log factor
                vals = np.array([self._partial(i, x) for x in t.tolist()])
            elif self.from_left:
                vals = _closed_integral(p, p.lo, np.minimum(t, p.hi))
            else:
                vals = _closed_integral(p, t, p.hi)
            out[sel] = self.base[i] + vals
        return out


def _closed_integral(p: Piece, x0, x1):
    """The integral over (x0, x1) of the piece p without a log factor, for
    ends x0 and x1 in its interval, floats or arrays: offset (x1 - x0) +
    c ((x1 - shift)**(a+1) - (x0 - shift)**(a+1)) / (a+1), or
    c log((x1 - shift) / (x0 - shift)) at a = -1, with t - shift clamped
    at 0.  It reads 0 on an empty range, and inf where the integral
    diverges (an infinite level, a level over an infinite range, a
    divergent tail, a head that is not integrable) or passes the floats'
    range.  The power of a float end is the C library's (a numpy
    scalar's), of an array numpy's; the log at a = -1 is numpy's."""
    with np.errstate(all="ignore"):
        total = p.offset * (x1 - x0) if p.offset else 0.0
        if p.coef != 0.0:
            s0 = np.maximum(x0 - p.shift, 0.0)
            s1 = np.maximum(x1 - p.shift, 0.0)
            if p.a == -1:
                total = total + p.coef * np.log(s1 / s0)
            else:
                a1 = float(p.a) + 1.0
                total = total + p.coef * (s1 ** a1 - s0 ** a1) / a1
        total = np.where(x1 > x0, total, 0.0)
    return np.fmin(total, math.inf)  # nan, of inf - inf or inf * 0, is inf


def _overlaps(f: StepFunction, g: StepFunction):
    """(lo, hi, p, q) for each cell between consecutive breakpoints of f
    and g, with p and q the pieces of f and g over that cell; the two piece
    lists are walked in step, so cells of any width get the right pieces."""
    fe, ge = f._los[1:] + [math.inf], g._los[1:] + [math.inf]
    i = j = 0
    lo = 0.0
    while lo < math.inf:
        hi = min(fe[i], ge[j])
        yield lo, hi, f.pieces[i], g.pieces[j]
        i += fe[i] == hi
        j += ge[j] == hi
        lo = hi
