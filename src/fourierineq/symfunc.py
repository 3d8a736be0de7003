"""Non-negative functions on (0, inf) with certified power-log asymptotics.

The criteria constants are nested integrals whose integrands are products of
powers of antiderivatives; such functions have exact power-log leading
behavior at 0 and at infinity even though no closed form exists in between.
A SymFunc couples an array evaluator with those two asymptotic exponents:

    f(t) ~ coef * t**a * log(1/t)**b   as t -> 0+
    f(t) ~ coef * t**a * log(t)**b     as t -> inf

All finiteness decisions (integrability at the endpoints, boundedness of
sups) are made from the exponents symbolically, by the end rule of
``pieces``; quadrature is used only for the finite numeric values and is
performed in exp-substituted coordinates so endpoint singularities are
integrated accurately.  Every end term is made here: other modules build
their SymFuncs from the constructors and the algebra below.

A SymFunc has one evaluator, ``at`` (a required argument): at(ts) is f at
every point of a 1-d float array ts, computed with numpy over the whole
array; calling the SymFunc reads at at one point.  Every integral, point
value and sup scan runs through it: ``anchored`` re-anchors a quadrature
cumulative at a grid, at its values there; ``tabulated`` is ``anchored``
plus log-log interpolation between the grid values; ``sup`` (where there
is no ``step``) and ``running_sup_from`` scan with it; and the integrals
go through the package's one quadrature rule ``pieces.quad_cells``.  A
quadrature cumulative's values all come from ``Cumulative.at``, which
integrates the pieces between sorted points at once, in log coordinates,
so it agrees with the exact integral to the quadrature's tolerance; at its
anchors it reads their values.

Where a SymFunc holds a StepFunction of closed-form pieces (``step``, no
log factors), its integral, cumulatives and sup are that StepFunction's,
exact: the sup is the largest limit at the ends of its pieces, each
monotone, with no scan.  ``from_step`` sets it, and ``pow``, ``mul`` and
``pow_arg`` carry it where the result is again such a StepFunction (for
``pow_arg``, one term c t**a on all of (0, inf)); the cumulative of one
such term is its integrated term, and carries it too.  Other cumulatives
(their values exact where the integrand has a step), ``tabulated`` copies,
sums and running sups have none.

A product follows the rule 0 x = 0, as ``Asym.mul`` does at the ends: it
reads 0 wherever either factor reads 0, even where the other is inf or
nan, the measure-theoretic convention for integrands.  ``mul`` evaluates
its first factor at every point and its second only where the first is
not 0, so the nested quadratures of a factor are skipped where the
product is known to vanish (the weight w of the criteria, which vanishes
beyond u's support, comes first).

Every SymFunc also carries its kinks: the sorted points where it is not
smooth between its knots, the grid of a ``tabulated`` factor and the
sample grid of a ``running_sup_from`` one.  ``mul``, ``add`` and ``pow``
take the union, ``pow_arg(k)`` takes x**(1/k), and a cumulative has
none.  An integral over a head, segment or tail of the knots is taken cell
by cell between its outermost kinks, in log coordinates
(``pieces.log_cells``, whose graded cells take a singular end such as u*'s
support end at their first stage), and beyond them by ``pieces.end_quad``;
a segment without kinks is one cell.

Exponents follow the exponent rule of ``pieces`` (always Fractions), so
boundary cases (exponent exactly -1 or 0) are decided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pieces
from .exponents import Exponent, as_exp
from .extreal import ExtReal
from .pieces import (QUAD_TOL, Divergence, StepFunction, end_integrable,
                     end_integral, end_limit, scan_max)


_NO_KINKS = np.empty(0)
_SCAN = 600  # samples of the scan of sup


def _kinks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The union of two sorted sets of kinks."""
    if not len(b):
        return a
    return np.union1d(a, b) if len(a) else b


def _times(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f * g in a new array, 0 wherever g is 0 (even where f is inf or
    nan)."""
    out = f * g
    out[g == 0.0] = 0.0
    return out


def _quiet():
    """numpy's floating-point warnings off: an array evaluator reads inf, 0
    and nan where its float arithmetic puts them."""
    return np.errstate(all="ignore")


def guarded(compute: Callable[[], ExtReal]) -> ExtReal:
    """compute(), or an infinite ExtReal carrying the reason when it
    raises Divergence."""
    try:
        return compute()
    except Divergence as exc:
        return ExtReal.infinite(exc.reason)


# ---------------------------------------------------------------------------
# asymptotic terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Asym:
    coef: float
    a: Exponent = 0
    b: Exponent = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_exp(self.a))
        object.__setattr__(self, "b", as_exp(self.b))

    def mul(self, other: "Asym") -> "Asym":
        # a zero coefficient means the function vanishes near that end
        zero = self.coef == 0.0 or other.coef == 0.0
        return Asym(0.0 if zero else self.coef * other.coef,
                    self.a + other.a, self.b + other.b)

    def pow(self, e: Exponent) -> "Asym":
        e = as_exp(e)
        try:
            coef = self.coef ** float(e)
        except (OverflowError, ZeroDivisionError):  # 0**e is inf for e < 0
            coef = math.inf
        return Asym(coef, self.a * e, self.b * e)

    # the end rule of ``pieces``, at 0 (at_zero) or at inf
    def integrable(self, at_zero: bool) -> bool:
        return end_integrable(self.coef, self.a, self.b, at_zero)

    def limit(self, at_zero: bool) -> float:
        return end_limit(self.coef, self.a, self.b, at_zero)

    def integrated(self) -> "Asym":
        """The leading term of the integral from (or toward) the end."""
        return Asym(*end_integral(self.coef, self.a, self.b))


def _piece_end(p: pieces.Piece, at_zero: bool) -> Asym:
    """The leading term at 0 (at_zero) or at inf of the first or last
    piece p: offset + coef t**a L**b, where the log factor log(e+t) of a
    piece tends to 1 at 0 (L**0 there).  A piece shifted left of 0 is a
    finite level there, its limit at 0."""
    if at_zero and p.shift < 0.0:
        return Asym(p.limit_at(0.0))
    terms = [Asym(p.offset)] if p.offset else []
    if p.coef:
        terms.append(Asym(p.coef, p.a, 0 if at_zero else p.b))
    return _dominant(terms, at_zero)


def _one_term(sf: StepFunction | None) -> Asym | None:
    """The term c t**a (b = 0) of a StepFunction that is one such term on
    all of (0, inf), a constant being c t**0; None for any other (or
    none)."""
    if sf is None or len(sf.pieces) > 1:
        return None
    p = sf.pieces[0]
    if p.is_constant:
        return Asym(p.const_value)
    if p.offset or p.shift:
        return None
    return Asym(p.coef, p.a)


def _step_sup(sf: StepFunction) -> ExtReal:
    """The sup of a StepFunction of closed-form pieces: each piece is
    monotone, so its sup is the larger of its limits at its two ends (inf
    where a power passes the floats' range, as the scan reads it)."""
    best = 0.0
    for p in sf.pieces:
        try:
            top = max(p.limit_at(p.lo), p.limit_at(p.hi))
        except OverflowError:
            top = math.inf
        if math.isinf(top):
            return ExtReal.infinite(f"reads inf on the piece ({p.lo:.3g}, "
                                    f"{p.hi:.3g})")
        best = max(best, top)
    return ExtReal.finite(best)


def _dominant(terms: Sequence[Asym], at_zero: bool) -> Asym:
    terms = [t for t in terms if t.coef != 0.0]
    if not terms:
        return Asym(0.0)
    best = max(terms, key=lambda t: (-t.a if at_zero else t.a, t.b))
    coef = sum(t.coef for t in terms if (t.a, t.b) == (best.a, best.b))
    return Asym(coef, best.a, best.b)


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------


class SymFunc:
    __slots__ = ("at", "head", "tail", "knots", "step", "kinks")

    def __init__(self, head: Asym, tail: Asym, knots: Sequence[float] = (),
                 step=None, *, at: Callable[[np.ndarray], np.ndarray],
                 kinks: np.ndarray = _NO_KINKS):
        self.at = at  # f on a 1-d array (see the module docstring)
        self.head = head
        self.tail = tail
        self.knots = tuple(sorted({float(k) for k in knots
                                   if 0.0 < k < math.inf}))
        # a StepFunction of closed-form pieces (no log factors) equal to f,
        # kept so that its integrals can be computed exactly
        self.step = step
        # the sorted points where f is not smooth between its knots (the
        # grids of tabulated and running-sup factors), where its integral
        # is split into cells
        self.kinks = kinks

    def __call__(self, t: float) -> float:
        return float(self.at(np.array([float(t)]))[0])

    # -- constructors -----------------------------------------------------
    @staticmethod
    def power(coef: float, a: Exponent, b: Exponent = 0) -> "SymFunc":
        """coef * t**a * log(e+t)**b (head is a pure power, tail carries b)."""
        a = as_exp(a)
        b = as_exp(b)
        fa, fb, c = float(a), float(b), float(coef)

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return c * ts ** fa * (np.log(math.e + ts) ** fb if fb
                                       else 1.0)

        return SymFunc(Asym(c, a, 0), Asym(c, a, b), (1.0,), at=at)

    @staticmethod
    def constant(c: float) -> "SymFunc":
        return SymFunc(Asym(c), Asym(c),
                       at=lambda ts: np.full(len(ts), c, dtype=float))

    @staticmethod
    def one_plus_log_plus() -> "SymFunc":
        """t -> 1 + max(log t, 0): 1 at 0, L at inf, with the knot 1."""
        return SymFunc(Asym(1.0), Asym(1.0, 0, 1), (1.0,),
                       at=lambda ts: 1.0 + np.maximum(np.log(ts), 0.0))

    @staticmethod
    def from_step(sf: StepFunction) -> "SymFunc":
        closed_form = all(p.b == 0 for p in sf.pieces)
        return SymFunc(_piece_end(sf.pieces[0], True),
                       _piece_end(sf.pieces[-1], False),
                       [b for b in sf.breakpoints if b > 0.0],
                       step=sf if closed_form else None, at=sf.at)

    # -- algebra ------------------------------------------------------------
    def mul(self, other: "SymFunc") -> "SymFunc":
        """The product f g, read by the rule 0 x = 0: it is 0 wherever
        either factor is 0, even where the other is inf or nan.  Its ``at``
        evaluates f (self) at every point and g (other) only where f is
        not 0, so a factor that vanishes belongs first.  Its ``step`` is
        the product of the factors' steps, where both have one and
        ``StepFunction.__mul__`` represents it."""
        f_at, g_at = self.at, other.at

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                f = f_at(ts)
                if f.all():  # nan is not 0
                    return _times(f, g_at(ts))
                out = np.zeros(len(ts))
                live = f != 0.0
                if live.any():
                    out[live] = _times(f[live], g_at(ts[live]))
                return out

        step = None
        if self.step is not None and other.step is not None:
            try:
                step = self.step * other.step
            except NotImplementedError:
                pass
        return SymFunc(self.head.mul(other.head), self.tail.mul(other.tail),
                       self.knots + other.knots, step=step, at=at,
                       kinks=_kinks(self.kinks, other.kinks))

    def pow(self, e: Exponent) -> "SymFunc":
        f_at = self.at
        fe = float(e)
        if fe == 0.0:
            return SymFunc.constant(1.0)

        def at(ts: np.ndarray) -> np.ndarray:
            # 0**fe is 0 (fe > 0) or inf, inf**fe is inf (fe > 0) or 0
            with _quiet():
                return np.power(f_at(ts), fe)

        step = None
        if self.step is not None:
            try:
                step = self.step.pow_compose(e)
            except (NotImplementedError, ValueError):
                step = None
        return SymFunc(self.head.pow(e), self.tail.pow(e), self.knots,
                       step=step, at=at, kinks=self.kinks)

    def add(self, other: "SymFunc") -> "SymFunc":
        f_at, g_at = self.at, other.at

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return f_at(ts) + g_at(ts)

        return SymFunc(_dominant([self.head, other.head], True),
                       _dominant([self.tail, other.tail], False),
                       self.knots + other.knots, at=at,
                       kinks=_kinks(self.kinks, other.kinks))

    def pow_arg(self, k: Exponent) -> "SymFunc":
        """t -> f(t**k) for an exact k != 0, an int or a Fraction.  An end
        term c t**a L**b becomes c |k|**b t**(a k) L**b, as
        L(t**k) = |k| L(t), and for k < 0 the head and the tail swap; a
        knot or kink x moves to x**(1/k), for k < 0 as 1 / x**(1/|k|), so
        that k = -1 gives 1/x exactly (as numpy's ts**-1.0 is 1/ts)."""
        fk = float(k)
        scale = abs(fk)

        def end(term: Asym) -> Asym:
            return Asym(term.coef * scale ** float(term.b), term.a * k,
                        term.b)

        head, tail = end(self.head), end(self.tail)
        knots, kinks = self.knots, self.kinks
        if scale != 1.0:
            root = 1.0 / scale
            knots, kinks = [x ** root for x in knots], kinks ** root
        if fk < 0.0:
            head, tail = tail, head
            knots, kinks = [1.0 / x for x in knots], 1.0 / kinks[::-1]
        f_at = self.at

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return f_at(ts ** fk)

        # c t**a on all of (0, inf) is c t**(a k); any other step is dropped
        term = _one_term(self.step)
        step = (None if term is None
                else StepFunction.power(term.coef, -(term.a * k)))
        return SymFunc(head, tail, knots, step=step, at=at, kinks=kinks)

    # -- numeric helpers -----------------------------------------------------
    def _span(self) -> tuple[float, float]:
        lo = min(self.knots) if self.knots else 1.0
        hi = max(self.knots) if self.knots else 1.0
        return lo, hi

    def anchored(self, ts: np.ndarray) -> "SymFunc":
        """The same function, with a quadrature cumulative re-anchored at
        the increasing grid ts and its anchors inside it, at the values
        that its ``Cumulative.at`` gives there in one pass, so that its
        values at the grid points are the anchors' and a value between
        them integrates from the nearest grid point; any other function is
        itself."""
        cum = getattr(self.at, "__self__", None)
        if not isinstance(cum, Cumulative):
            return self
        x0, x1 = float(ts[0]), float(ts[-1])
        edges = np.array(sorted(set(ts.tolist()).union(
            k for k in cum.anchors if x0 < k < x1)))
        anchored = Cumulative(cum.f_at, edges, cum.at(edges), cum.from_left,
                              cum.end)
        return SymFunc(self.head, self.tail, self.knots, at=anchored.at)

    def scan_grid(self) -> np.ndarray:
        """The geometric grid that ``sup`` scans: 600 points from the
        lowest knot / 1e8 to the highest * 1e8."""
        lo, hi = self._span()
        return np.geomspace(lo / 1e8, hi * 1e8, _SCAN)

    def tabulated(self, n: int = 2048, pad: float = 1e8) -> "SymFunc":
        """Fast log-log interpolated copy (used inside nested quadratures):
        ``anchored`` at the geometric grid, and interpolated between its
        values there.  Outside the grid, and where the interpolated log is
        not finite, the copy is the anchored function itself.  The grid
        points are kinks of the copy."""
        lo, hi = self._span()
        lo, hi = lo / pad, hi * pad
        ts = np.geomspace(lo, hi, n)
        f_at = self.anchored(ts).at
        vals = f_at(ts)
        finite = np.isfinite(vals)
        if not finite.all():
            vals = np.where(finite, vals, np.nan)
        logt = np.log(ts)
        with np.errstate(divide="ignore"):
            logv = np.log(vals)

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                lv = np.interp(np.log(ts), logt, logv)
                rest = (ts <= lo) | (ts >= hi) | ~np.isfinite(lv)
                out = np.exp(lv, out=lv)  # in place, once rest has read lv
            if rest.any():
                out[rest] = f_at(ts[rest])
            return out

        return SymFunc(self.head, self.tail, self.knots, at=at,
                       kinks=_kinks(self.kinks, ts))

    # -- calculus ---------------------------------------------------------
    def _ends(self):
        """(term, at_zero, name) for the head and the tail."""
        return ((self.head, True, "0"), (self.tail, False, "inf"))

    def _knot_integrals(self) -> tuple[float, list[float], float]:
        """Integrals of f over the head (0, k_0), the segments
        (k_i, k_{i+1}) and the tail (k_n, inf) of the knots (1 when there
        are none), each by ``_part``.  An end where f is certified not
        integrable is not integrated and reads inf."""
        ks = self.knots or (1.0,)
        h = (self._part(0.0, ks[0])
             if self.head.integrable(at_zero=True) else math.inf)
        segs = [self._part(a, b) for a, b in zip(ks, ks[1:])]
        t = (self._part(ks[-1], math.inf)
             if self.tail.integrable(at_zero=False) else math.inf)
        return h, segs, t

    def _part(self, t0: float, t1: float) -> float:
        """integral_{t0}^{t1} f for a head (t0 = 0), a segment or a tail
        (t1 = inf) of the knots, in log coordinates: between its outermost
        kinks cell by cell (``pieces.log_cells``), beyond them by
        ``end_quad``; a segment without kinks is one cell of ``log_cells``
        at the tolerances ``QUAD_TOL``."""
        kinks = self.kinks
        inner = kinks[(kinks > t0) & (kinks < t1)].tolist()
        if not inner:
            if t0 == 0.0:
                return pieces.end_quad(self.at, self.head, 0.0, t1)
            if t1 == math.inf:
                return pieces.end_quad(self.at, self.tail, t0, math.inf)
            return pieces.log_cells(self.at, [t0, t1], QUAD_TOL)
        edges = ([t0] if t0 > 0.0 else []) + inner + (
            [t1] if t1 < math.inf else [])
        total = pieces.log_cells(self.at, edges)
        if t0 == 0.0:
            total = pieces.end_quad(self.at, self.head, 0.0, inner[0]) + total
        if t1 == math.inf:
            total += pieces.end_quad(self.at, self.tail, inner[-1], math.inf)
        return total

    def integral(self) -> ExtReal:
        """integral over (0, inf) with symbolic endpoint certification; the
        closed form of ``step`` where it is set."""
        for end, at_zero, name in self._ends():
            if not end.integrable(at_zero):
                return ExtReal.infinite(
                    f"integrand ~ t**({end.a}) log**({end.b}) at {name}")
        if self.step is not None:
            return self.step.integrate()
        return ExtReal.finite(_total(*self._knot_integrals()))

    def antiderivative(self) -> "SymFunc":
        """U(t) = integral_0^t f; raises Divergence when U is identically inf."""
        return self._cumulative(from_left=True)

    def tail_integral(self) -> "SymFunc":
        """T(t) = integral_t^inf f; raises Divergence when identically inf."""
        return self._cumulative(from_left=False)

    def _cumulative(self, from_left: bool) -> "SymFunc":
        """integral_0^t f (from_left) or integral_t^inf f, with its ends
        from the end rule (a finite total where f is integrable)."""
        ends = self._ends()
        (start, _, name), (other, _, _) = ends if from_left else ends[::-1]
        if not start.integrable(from_left):
            raise Divergence(
                f"{'head' if from_left else 'tail'} ~ t**({start.a}) "
                f"log**({start.b}) not integrable at {name}")
        knots = self.knots or (1.0,)
        other_finite = other.integrable(not from_left)
        near = start.integrated()
        if not other_finite and _one_term(self.step) is not None:
            # one term c t**a: its cumulative is its integrated term, which
            # the end rule gives exactly (there is no log factor)
            step = StepFunction.power(near.coef, -near.a)
            return SymFunc(near, near, knots, step=step, at=step.at)
        if self.step is not None:
            at = self.step.cumulative(from_left).at
            total = self.step.integrate().value
        else:
            head_int, segs, tail_int = self._knot_integrals()
            parts = ([head_int, *segs] if from_left
                     else [tail_int, *reversed(segs)])
            cum = list(itertools.accumulate(parts))
            at = Cumulative(self.at, knots, cum if from_left else cum[::-1],
                            from_left, start).at
            total = _total(head_int, segs, tail_int)
        far = Asym(total) if other_finite else other.integrated()
        head, tail = (near, far) if from_left else (far, near)
        return SymFunc(head, tail, knots, at=at)

    def sup(self) -> ExtReal:
        """sup over (0, inf) with certified endpoint limits; exact where
        ``step`` is set (``_step_sup``), else the scan of ``at`` at the
        ``scan_grid``, refined by ``scan_max``, with the values at the
        knots and their left limits."""
        lims = [end.limit(at_zero) for end, at_zero, _ in self._ends()]
        for lim, (end, _, name) in zip(lims, self._ends()):
            if math.isinf(lim):
                return ExtReal.infinite(f"~ {end.coef:.3g} t**({end.a}) "
                                        f"log**({end.b}) unbounded at {name}")
        if self.step is not None:
            return _step_sup(self.step)
        # a maximum at a kink or a jump sits on a knot, between the scan's
        # samples: take the value there and the limit from the left
        near = [t for k in self.knots for t in (k, math.nextafter(k, 0.0))]
        at_knots = self.at(np.array(near)) if near else np.empty(0)
        grid = self.scan_grid()
        best = max(scan_max(self.at, grid), *lims,
                   *at_knots[np.isfinite(at_knots)].tolist())
        if math.isinf(best):
            return ExtReal.infinite(f"reads inf on the scan of "
                                    f"({grid[0]:.3g}, {grid[-1]:.3g})")
        return ExtReal.finite(float(best))

    def running_sup_from(self) -> "SymFunc":
        """S(x) = sup over [x, inf) of f; requires a bounded tail limit.
        S ~ f at inf, and at 0 where f is unbounded there; where f is
        bounded at 0, S tends to the sup of the samples.  Below the sample
        grid S reads max(f(x), S at the grid's first point), and beyond it
        the largest of 16 samples of f over [x, 10 x]."""
        atinf = self.tail.limit(at_zero=False)
        if math.isinf(atinf):
            raise Divergence("running sup of a function unbounded at inf")
        lo, hi = self._span()
        f_at = self.at
        ts = np.geomspace(lo / 1e8, hi * 1e8, 1200)
        vals = f_at(ts)
        suffix = np.maximum.accumulate(np.maximum(vals, atinf)[::-1])[::-1]
        first = float(suffix[0])  # S at the grid's first point

        def at(xs: np.ndarray) -> np.ndarray:
            out = suffix[np.minimum(np.searchsorted(ts, xs, side="left"),
                                    len(ts) - 1)]
            near = xs < ts[0]
            if near.any():  # max(f(x), first)
                f = f_at(xs[near])
                out[near] = np.where(f > first, f, first)
            far = xs >= ts[-1]
            if far.any():  # the largest of 16 samples over [x, 10 x]
                x = xs[far]
                top = np.max(f_at(np.geomspace(x, 10 * x, 16).reshape(-1))
                             .reshape(16, -1), axis=0)
                out[far] = np.where(top > atinf, top, atinf)  # max(atinf, top)
            return out

        head = (self.head if math.isinf(self.head.limit(at_zero=True))
                else Asym(first))
        return SymFunc(head, self.tail, self.knots, at=at, kinks=ts)


# ---------------------------------------------------------------------------
# cumulative integrals
# ---------------------------------------------------------------------------


def _total(head: float, segs: Sequence[float], tail: float) -> float:
    """Sum of the knot integrals, left to right."""
    total = 0.0
    for part in (head, *segs, tail):
        total += part
    return total


class Cumulative:
    """t -> integral_0^t f (from_left) or t -> integral_t^inf f, held as
    sorted anchors and the integral's values there; f_at is f on an array,
    and end is f's term at the fixed end.  ``at`` gives the values at an
    array of points."""

    __slots__ = ("f_at", "anchors", "values", "from_left", "end")

    def __init__(self, f_at, anchors: Sequence[float],
                 values: Sequence[float], from_left: bool, end: Asym):
        self.f_at = f_at
        self.anchors = list(anchors)
        self.values = list(values)
        self.from_left = from_left
        self.end = end

    def at(self, ts: np.ndarray) -> np.ndarray:
        """The values at every point of the array ts, in one
        ``pieces.quad_cells`` pass in u = log t.  The points are sorted by
        their anchor (the nearest on the side of the fixed end), and each
        is integrated from its neighbour toward the anchor, so that one
        piece per anchor at most reaches a singular end, which the graded
        rule takes at its first stage; running sums from the anchors give
        the values (a point at an anchor is a piece of width 0).  Beyond
        the anchors on the fixed side, the outermost point is the anchor,
        its value from the end by ``pieces.end_quad``; a piece beyond the
        anchors keeps the tolerances ``QUAD_TOL``, the others the bound of
        ``quad_cells``."""
        xs = np.asarray(ts, dtype=float)
        ks = np.asarray(self.anchors)
        outside = (xs < ks[0]) | (xs > ks[-1])
        # in w = u (from_left) or w = -u, the fixed end is at w = -inf
        sign = 1.0 if self.from_left else -1.0
        w, kw = sign * np.log(xs), sign * np.log(ks)
        vals = np.asarray(self.values)
        if not self.from_left:
            kw, vals = kw[::-1], vals[::-1]
        i = np.searchsorted(kw, w, side="right") - 1  # -1: the end
        if (i < 0).any():  # the outermost point as one more anchor
            j = int(np.argmin(np.where(i < 0, w, math.inf)))
            t = float(xs[j])
            ends = (0.0, t) if self.from_left else (t, math.inf)
            kw = np.append(w[j], kw)
            vals = np.append(pieces.end_quad(self.f_at, self.end, *ends),
                             vals)
            i += 1
        order = np.lexsort((w, i))
        x, i = w[order], i[order]
        first = np.ones(len(x), dtype=bool)
        first[1:] = i[1:] != i[:-1]
        near = np.where(first, kw[i], np.roll(x, 1))  # toward the anchor
        lo, hi = (near, x) if self.from_left else (-x, -near)
        parts = pieces.quad_cells(pieces.log_integrand(self.f_at), lo, hi,
                                  np.where(outside[order], QUAD_TOL, 0.0))
        # the running sum from each anchor; a point alone at its anchor
        # (every point of a grid the cumulative is anchored at) is one term
        start = vals[i]
        run = start + parts
        starts = np.flatnonzero(first)
        sizes = np.diff(starts, append=len(x))
        for s, m in zip(starts[sizes > 1].tolist(),
                        sizes[sizes > 1].tolist()):
            run[s:s + m] = start[s] + np.cumsum(parts[s:s + m])
        out = np.empty(len(x))
        out[order] = run
        return out
