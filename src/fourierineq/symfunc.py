"""Non-negative functions on (0, inf) with certified power-log asymptotics.

The criteria constants are nested integrals whose integrands are products of
powers of antiderivatives; such functions have exact power-log leading
behavior at 0 and at infinity even though no closed form exists in between.
A SymFunc couples a numeric callable with those two asymptotic exponents:

    f(t) ~ coef * t**a * log(1/t)**b   as t -> 0+
    f(t) ~ coef * t**a * log(t)**b     as t -> inf

All finiteness decisions (integrability at the endpoints, boundedness of
sups) are made from the exponents symbolically, by the end rule of
``pieces``; quadrature is used only for the finite numeric values and is
performed in exp-substituted coordinates so endpoint singularities are
integrated accurately.

Beside fn, every SymFunc holds an array evaluator ``at``: at(ts) is f at
every point of a 1-d float array ts, computed with numpy over the whole
array where the constructor allows it (a quadrature cumulative, and a
SymFunc built from a bare callable, sample point by point).  Sweeps and
scans use it: ``tabulated`` samples and integrates its grid segments by
``pieces.quad_segments``, and ``sup`` and ``running_sup_from`` scan with
it.  at may differ from fn by a few ulp, because numpy's exp and pow are
not the C library's (on an AVX-512 x86 host about 5% of exp and of pow
values of 200k random points differ in the last bit); inf, 0 and nan fall
where fn's float arithmetic puts them.  The segment rule itself gives
``quad``'s bits for the same node values.

Exponents follow the exponent rule of ``pieces`` (always Fractions), so
boundary cases (exponent exactly -1 or 0) are decided exactly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pieces
from .extreal import ExtReal
from .pieces import (Divergence, StepFunction, Exponent, as_exp,
                     end_integrable, end_integral, end_limit, end_quad,
                     log_quad, scan_max)


def _pointwise(fn: Callable[[float], float]):
    """fn extended to a 1-d array, point by point."""
    return lambda ts: np.array([fn(float(t)) for t in ts], dtype=float)


def _quiet():
    """numpy's floating-point warnings off: an array evaluator reads inf, 0
    and nan where fn's float arithmetic does."""
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
        except OverflowError:
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
    __slots__ = ("fn", "at", "head", "tail", "knots", "step")

    def __init__(self, fn: Callable[[float], float], head: Asym, tail: Asym,
                 knots: Sequence[float] = (), step=None, at=None):
        self.fn = fn
        # f on a 1-d array (see the module docstring); point by point
        # where the constructor gives none
        self.at = _pointwise(fn) if at is None else at
        self.head = head
        self.tail = tail
        self.knots = tuple(sorted({float(k) for k in knots
                                   if 0.0 < k < math.inf}))
        # a StepFunction of closed-form pieces (no log factors) that equals
        # fn, kept so cumulative integrals can be computed exactly
        self.step = step

    def __call__(self, t: float) -> float:
        return self.fn(t)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def power(coef: float, a: Exponent, b: Exponent = 0) -> "SymFunc":
        """coef * t**a * log(e+t)**b (head is a pure power, tail carries b)."""
        a = as_exp(a)
        b = as_exp(b)
        fa, fb, c = float(a), float(b), float(coef)

        def fn(t: float) -> float:
            return c * t ** fa * (math.log(math.e + t) ** fb if fb else 1.0)

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return c * ts ** fa * (np.log(math.e + ts) ** fb if fb
                                       else 1.0)

        return SymFunc(fn, Asym(c, a, 0), Asym(c, a, b), (1.0,), at=at)

    @staticmethod
    def constant(c: float) -> "SymFunc":
        return SymFunc(lambda t: c, Asym(c), Asym(c),
                       at=lambda ts: np.full(len(ts), c, dtype=float))

    @staticmethod
    def from_step(sf: StepFunction) -> "SymFunc":
        closed_form = all(p.b == 0 for p in sf.pieces)
        return SymFunc(lambda t: sf(t), _piece_end(sf.pieces[0], True),
                       _piece_end(sf.pieces[-1], False),
                       [b for b in sf.breakpoints if b > 0.0],
                       step=sf if closed_form else None, at=sf.at)

    # -- algebra ------------------------------------------------------------
    def mul(self, other: "SymFunc") -> "SymFunc":
        f, g = self.fn, other.fn
        f_at, g_at = self.at, other.at

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return f_at(ts) * g_at(ts)

        return SymFunc(lambda t: f(t) * g(t), self.head.mul(other.head),
                       self.tail.mul(other.tail), self.knots + other.knots,
                       at=at)

    def pow(self, e: Exponent) -> "SymFunc":
        f, f_at = self.fn, self.at
        fe = float(e)
        if fe == 0.0:
            return SymFunc.constant(1.0)

        def fn(t: float) -> float:
            v = f(t)
            if v == 0.0:
                return 0.0 if fe > 0 else math.inf
            if math.isinf(v):
                return math.inf if fe > 0 else 0.0
            return v ** fe

        def at(ts: np.ndarray) -> np.ndarray:
            # np.power's 0 and inf rules are fn's: 0**fe is 0 (fe > 0) or
            # inf, inf**fe is inf (fe > 0) or 0
            with _quiet():
                return np.power(f_at(ts), fe)

        step = None
        if self.step is not None:
            try:
                step = self.step.pow_compose(e)
            except (NotImplementedError, ValueError):
                step = None
        return SymFunc(fn, self.head.pow(e), self.tail.pow(e), self.knots,
                       step=step, at=at)

    def add(self, other: "SymFunc") -> "SymFunc":
        f, g = self.fn, other.fn
        f_at, g_at = self.at, other.at

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return f_at(ts) + g_at(ts)

        return SymFunc(lambda t: f(t) + g(t),
                       _dominant([self.head, other.head], True),
                       _dominant([self.tail, other.tail], False),
                       self.knots + other.knots, at=at)

    def recip_arg(self) -> "SymFunc":
        """t -> f(1/t); swaps the roles of 0 and infinity."""
        f, f_at = self.fn, self.at
        head = Asym(self.tail.coef, -self.tail.a, self.tail.b)
        tail = Asym(self.head.coef, -self.head.a, self.head.b)
        fn = (f.reciprocal() if isinstance(f, Cumulative)
              else lambda t: f(1.0 / t))

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                return f_at(1.0 / ts)

        return SymFunc(fn, head, tail, [1.0 / k for k in self.knots], at=at)

    # -- numeric helpers -----------------------------------------------------
    def _span(self) -> tuple[float, float]:
        lo = min(self.knots) if self.knots else 1.0
        hi = max(self.knots) if self.knots else 1.0
        return lo, hi

    def tabulated(self, n: int = 2048, pad: float = 1e8) -> "SymFunc":
        """Fast log-log interpolated copy (used inside nested quadratures).
        A cumulative integral is sampled in one sweep over the grid, and the
        copy falls back to it re-anchored at the grid points; other
        functions are sampled by ``at``.  Outside the grid, and where the
        interpolated log is not finite, the copy is the function itself."""
        lo, hi = self._span()
        lo, hi = lo / pad, hi * pad
        ts = np.geomspace(lo, hi, n)
        if isinstance(self.fn, Cumulative):
            vals, f = self.fn.sweep(ts)
            f_at = _pointwise(f)
        else:
            f, f_at = self.fn, self.at
            vals = f_at(ts)
        finite = np.isfinite(vals)
        if not finite.all():
            vals = np.where(finite, vals, np.nan)
        logt = np.log(ts)
        with np.errstate(divide="ignore"):
            logv = np.log(vals)

        def fn(t: float) -> float:
            if t <= lo or t >= hi:
                return f(t)
            # numpy's log, as in at: a last-bit difference in log t moves
            # the interpolated value by the log-log slope times |log t|
            lv = np.interp(np.log(t), logt, logv)
            if not math.isfinite(lv):
                return f(t)
            return math.exp(lv)

        def at(ts: np.ndarray) -> np.ndarray:
            with _quiet():
                lv = np.interp(np.log(ts), logt, logv)
                out = np.exp(lv)
            rest = (ts <= lo) | (ts >= hi) | ~np.isfinite(lv)
            if rest.any():
                out[rest] = f_at(ts[rest])
            return out

        return SymFunc(fn, self.head, self.tail, self.knots, at=at)

    # -- calculus ---------------------------------------------------------
    def _ends(self):
        """(term, at_zero, name) for the head and the tail."""
        return ((self.head, True, "0"), (self.tail, False, "inf"))

    def _knot_integrals(self) -> tuple[float, list[float], float]:
        """Integrals of f over the head (0, k_0), the segments
        (k_i, k_{i+1}) and the tail (k_n, inf) of the knots (1 when there
        are none); the head and tail are integrated in log coordinates.  An
        end where f is certified not integrable is not integrated and
        reads inf."""
        f, ks = self.fn, self.knots or (1.0,)
        h = (end_quad(f, self.head, 0.0, ks[0])
             if self.head.integrable(at_zero=True) else math.inf)
        segs = [pieces.quad(f, a, b)[0] for a, b in zip(ks, ks[1:])]
        t = (end_quad(f, self.tail, ks[-1], math.inf)
             if self.tail.integrable(at_zero=False) else math.inf)
        return h, segs, t

    def integral(self) -> ExtReal:
        """integral over (0, inf) with symbolic endpoint certification."""
        for end, at_zero, name in self._ends():
            if not end.integrable(at_zero):
                return ExtReal.infinite(
                    f"integrand ~ t**({end.a}) log**({end.b}) at {name}")
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
        if self.step is not None:
            fn = self.step.cumulative(from_left)
            at = fn.at
            total = self.step.integrate().value
        else:
            head_int, segs, tail_int = self._knot_integrals()
            parts = ([head_int, *segs] if from_left
                     else [tail_int, *reversed(segs)])
            cum = list(itertools.accumulate(parts))
            fn = Cumulative(self.fn, self.at, knots,
                            cum if from_left else cum[::-1], from_left, start)
            at = None  # point by point
            total = _total(head_int, segs, tail_int)
        near = start.integrated()
        far = Asym(total) if other_finite else other.integrated()
        head, tail = (near, far) if from_left else (far, near)
        return SymFunc(fn, head, tail, knots, at=at)

    def sup(self) -> ExtReal:
        """sup over (0, inf) with certified endpoint limits."""
        lims = [end.limit(at_zero) for end, at_zero, _ in self._ends()]
        for lim, (end, _, name) in zip(lims, self._ends()):
            if math.isinf(lim):
                return ExtReal.infinite(f"~ {end.coef:.3g} t**({end.a}) "
                                        f"log**({end.b}) unbounded at {name}")
        lo, hi = self._span()
        # a maximum at a kink or a jump sits on a knot, between the scan's
        # samples: take the value there and the limit from the left
        near = [t for k in self.knots for t in (k, math.nextafter(k, 0.0))]
        at_knots = [v for v in map(self.fn, near) if math.isfinite(v)]
        best = max(scan_max(self.fn, self.at, lo / 1e8, hi * 1e8, 600),
                   *lims, *at_knots)
        return ExtReal.finite(float(best))

    def running_sup_from(self) -> "SymFunc":
        """S(x) = sup over [x, inf) of f; requires a bounded tail limit."""
        atinf = self.tail.limit(at_zero=False)
        if math.isinf(atinf):
            raise Divergence("running sup of a function unbounded at inf")
        lo, hi = self._span()
        f_at = self.at
        ts = np.geomspace(lo / 1e8, hi * 1e8, 1200)
        vals = f_at(ts)
        suffix = np.maximum.accumulate(np.maximum(vals, atinf)[::-1])[::-1]

        def fn(x: float) -> float:
            if x >= ts[-1]:  # the largest of 16 samples over [x, 10 x]
                return max(atinf, float(np.max(
                    f_at(np.geomspace(x, 10 * x, 16)))))
            i = int(np.searchsorted(ts, x, side="left"))
            return float(suffix[min(i, len(ts) - 1)])

        def at(xs: np.ndarray) -> np.ndarray:
            out = suffix[np.minimum(np.searchsorted(ts, xs, side="left"),
                                    len(ts) - 1)]
            far = xs >= ts[-1]
            if far.any():
                x = xs[far]
                top = np.max(f_at(np.geomspace(x, 10 * x, 16).reshape(-1))
                             .reshape(16, -1), axis=0)
                out[far] = np.where(top > atinf, top, atinf)  # max(atinf, top)
            return out

        global_sup = float(max(np.max(vals), atinf))
        return SymFunc(fn, Asym(global_sup), Asym(max(atinf, float(vals[-1]))),
                       self.knots, at=at)


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
    """t -> integral_0^t fn (from_left) or t -> integral_t^inf fn, held as
    sorted anchors and the integral's values there; at is fn on an array,
    and end is fn's term at the fixed end.  With recip set it is t -> the
    same integral at 1/t.

    A point value integrates fn only from the nearest anchor on the side of
    the fixed end (from the end itself, by ``end_quad``, when there is none
    there).  ``sweep`` gives the values on a whole grid in one pass."""

    __slots__ = ("fn", "at", "anchors", "values", "from_left", "end", "recip")

    def __init__(self, fn, at, anchors: Sequence[float],
                 values: Sequence[float], from_left: bool, end: Asym,
                 recip: bool = False):
        self.fn = fn
        self.at = at
        self.anchors = list(anchors)
        self.values = list(values)
        self.from_left = from_left
        self.end = end
        self.recip = recip

    def reciprocal(self) -> "Cumulative":
        return Cumulative(self.fn, self.at, self.anchors, self.values,
                          self.from_left, self.end, not self.recip)

    def __call__(self, t: float) -> float:
        return self._value(1.0 / t if self.recip else t)

    def _value(self, x: float) -> float:
        ks, fn = self.anchors, self.fn
        if self.from_left:
            i = bisect.bisect_right(ks, x) - 1
            if i < 0:
                return 0.0 if x <= 0.0 else end_quad(fn, self.end, 0.0, x)
            return self.values[i] + _segment(fn, ks[i], x)
        i = bisect.bisect_left(ks, x)
        if i >= len(ks):
            return end_quad(fn, self.end, x, math.inf)
        return self.values[i] + _segment(fn, x, ks[i])

    def sweep(self, ts: np.ndarray) -> tuple[np.ndarray, "Cumulative"]:
        """The values at the increasing grid ts, and this cumulative
        anchored at the grid (and the anchors inside it) instead.  The grid
        is split at those anchors; the segments between consecutive points
        are integrated by the segment rule ``pieces.quad_segments`` (each
        one's ``quad`` where the rule does not accept it) and summed from
        the point value at the grid's end on the fixed side toward the
        other end."""
        if self.recip:
            vals, cum = self.reciprocal().sweep(1.0 / ts[::-1])
            return vals[::-1], cum.reciprocal()
        x0, x1 = float(ts[0]), float(ts[-1])
        edges = sorted(set(ts.tolist()).union(
            k for k in self.anchors if x0 < k < x1))
        parts = pieces.quad_segments(self.fn, self.at,
                                     np.array(edges)).tolist()
        if self.from_left:
            run = list(itertools.accumulate(parts, initial=self._value(x0)))
        else:
            run = list(itertools.accumulate(reversed(parts),
                                            initial=self._value(x1)))[::-1]
        cum = Cumulative(self.fn, self.at, edges, run, self.from_left,
                         self.end)
        return np.asarray(run)[np.searchsorted(edges, ts)], cum


def _segment(fn, a: float, b: float) -> float:
    """integral_a^b fn for 0 < a <= b < inf; log coordinates keep wide
    ranges well conditioned."""
    if b > 8.0 * a:
        return log_quad(fn, a, b)
    return pieces.quad(fn, a, b)[0]
