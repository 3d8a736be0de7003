"""Non-negative functions on (0, inf) with certified power-log asymptotics.

The criteria constants are nested integrals whose integrands are products of
powers of antiderivatives; such functions have exact power-log leading
behavior at 0 and at infinity even though no closed form exists in between.
A SymFunc couples a numeric callable with those two asymptotic exponents:

    f(t) ~ coef * t**a * log(1/t)**b   as t -> 0+
    f(t) ~ coef * t**a * log(t)**b     as t -> inf

All finiteness decisions (integrability at the endpoints, boundedness of
sups) are made from the exponents symbolically; quadrature is used only for
the finite numeric values and is performed in exp-substituted coordinates so
endpoint singularities are integrated accurately.

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
from .pieces import StepFunction, Exponent, as_exp, log_quad, scan_max


class Divergence(Exception):
    """Raised when a quantity is certified infinite; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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

    def integrable_at_zero(self) -> bool:
        return (self.coef == 0.0 or self.a > -1
                or (self.a == -1 and self.b < -1))

    def integrable_at_inf(self) -> bool:
        return (self.coef == 0.0 or self.a < -1
                or (self.a == -1 and self.b < -1))


def _limit_at_zero(asym: Asym) -> float:
    # t**a with a>0 vanishes at 0, a<0 blows up; log(1/t)**b grows for b>0
    if asym.coef == 0.0 or asym.a > 0 or (asym.a == 0 and asym.b < 0):
        return 0.0
    if asym.a < 0 or asym.b > 0:
        return math.inf
    return asym.coef


def _limit_at_inf(asym: Asym) -> float:
    if asym.coef == 0.0 or asym.a < 0 or (asym.a == 0 and asym.b < 0):
        return 0.0
    if asym.a > 0 or asym.b > 0:
        return math.inf
    return asym.coef


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
    __slots__ = ("fn", "head", "tail", "knots", "step")

    def __init__(self, fn: Callable[[float], float], head: Asym, tail: Asym,
                 knots: Sequence[float] = (), step=None):
        self.fn = fn
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

        return SymFunc(fn, Asym(c, a, 0), Asym(c, a, b), (1.0,))

    @staticmethod
    def constant(c: float) -> "SymFunc":
        return SymFunc(lambda t: c, Asym(c), Asym(c))

    @staticmethod
    def from_step(sf: StepFunction) -> "SymFunc":
        first, last = sf.pieces[0], sf.pieces[-1]
        head_terms = []
        if first.offset:
            head_terms.append(Asym(first.offset))
        if first.coef:
            if first.shift < 0.0:
                head_terms.append(Asym(first((first.lo + min(first.hi, first.lo + 1)) / 2
                                             if first.lo > 0 else min(first.hi, 1.0) / 2)))
            else:
                head_terms.append(Asym(first.coef, first.a, 0))
        tail_terms = []
        if last.offset:
            tail_terms.append(Asym(last.offset))
        if last.coef:
            tail_terms.append(Asym(last.coef, last.a, last.b))
        closed_form = all(p.b == 0 for p in sf.pieces)
        return SymFunc(lambda t: sf(t), _dominant(head_terms, True),
                       _dominant(tail_terms, False),
                       [b for b in sf.breakpoints if b > 0.0],
                       step=sf if closed_form else None)

    # -- algebra ------------------------------------------------------------
    def mul(self, other: "SymFunc") -> "SymFunc":
        f, g = self.fn, other.fn
        return SymFunc(lambda t: f(t) * g(t), self.head.mul(other.head),
                       self.tail.mul(other.tail), self.knots + other.knots)

    def pow(self, e: Exponent) -> "SymFunc":
        f = self.fn
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

        step = None
        if self.step is not None:
            try:
                step = self.step.pow_compose(e)
            except (NotImplementedError, ValueError):
                step = None
        return SymFunc(fn, self.head.pow(e), self.tail.pow(e), self.knots,
                       step=step)

    def add(self, other: "SymFunc") -> "SymFunc":
        f, g = self.fn, other.fn
        return SymFunc(lambda t: f(t) + g(t),
                       _dominant([self.head, other.head], True),
                       _dominant([self.tail, other.tail], False),
                       self.knots + other.knots)

    def scaled(self, k: float) -> "SymFunc":
        f = self.fn
        return SymFunc(lambda t: k * f(t),
                       Asym(k * self.head.coef, self.head.a, self.head.b),
                       Asym(k * self.tail.coef, self.tail.a, self.tail.b),
                       self.knots)

    def recip_arg(self) -> "SymFunc":
        """t -> f(1/t); swaps the roles of 0 and infinity."""
        f = self.fn
        head = Asym(self.tail.coef, -self.tail.a, self.tail.b)
        tail = Asym(self.head.coef, -self.head.a, self.head.b)
        fn = (f.reciprocal() if isinstance(f, Cumulative)
              else lambda t: f(1.0 / t))
        return SymFunc(fn, head, tail, [1.0 / k for k in self.knots])

    # -- numeric helpers -----------------------------------------------------
    def _span(self) -> tuple[float, float]:
        lo = min(self.knots) if self.knots else 1.0
        hi = max(self.knots) if self.knots else 1.0
        return lo, hi

    def tabulated(self, n: int = 2048, pad: float = 1e8) -> "SymFunc":
        """Fast log-log interpolated copy (used inside nested quadratures).
        A cumulative integral is sampled in one sweep over the grid, and the
        copy falls back to it re-anchored at the grid points."""
        lo, hi = self._span()
        lo, hi = lo / pad, hi * pad
        ts = np.geomspace(lo, hi, n)
        if isinstance(self.fn, Cumulative):
            vals, f = self.fn.sweep(ts)
        else:
            f = self.fn
            vals = np.array([f(float(t)) for t in ts])
        finite = np.isfinite(vals)
        if not finite.all():
            vals = np.where(finite, vals, np.nan)
        logt = np.log(ts)
        with np.errstate(divide="ignore"):
            logv = np.log(vals)

        def fn(t: float) -> float:
            if t <= lo or t >= hi:
                return f(t)
            lv = np.interp(math.log(t), logt, logv)
            if not math.isfinite(lv):
                return f(t)
            return math.exp(lv)

        return SymFunc(fn, self.head, self.tail, self.knots)

    # -- calculus ---------------------------------------------------------
    def _knot_integrals(self) -> tuple[float, list[float], float]:
        """Integrals of f over the head (0, k_0), the segments
        (k_i, k_{i+1}) and the tail (k_n, inf) of the knots (1 when there
        are none); the head and tail are integrated in log coordinates.  An
        end where f is certified not integrable is not integrated and
        reads inf."""
        f, ks = self.fn, self.knots or (1.0,)
        h = (log_quad(f, 0.0, ks[0]) if self.head.integrable_at_zero()
             else math.inf)
        segs = [pieces.quad(f, a, b)[0] for a, b in zip(ks, ks[1:])]
        t = (log_quad(f, ks[-1], math.inf) if self.tail.integrable_at_inf()
             else math.inf)
        return h, segs, t

    def integral(self) -> ExtReal:
        """integral over (0, inf) with symbolic endpoint certification."""
        if not self.head.integrable_at_zero():
            return ExtReal.infinite(
                f"integrand ~ t**({self.head.a}) log**({self.head.b}) at 0")
        if not self.tail.integrable_at_inf():
            return ExtReal.infinite(
                f"integrand ~ t**({self.tail.a}) log**({self.tail.b}) at inf")
        return ExtReal.finite(_total(*self._knot_integrals()))

    def antiderivative(self) -> "SymFunc":
        """U(t) = integral_0^t f; raises Divergence when U is identically inf."""
        if not self.head.integrable_at_zero():
            raise Divergence(
                f"head ~ t**({self.head.a}) log**({self.head.b}) "
                "not integrable at 0")
        knots = self.knots or (1.0,)
        tail_finite = self.tail.integrable_at_inf()
        fn = None if self.step is None else self.step.cumulative()
        if fn is None or tail_finite:
            head_int, segs, tail_int = self._knot_integrals()
        if fn is None:
            cum = list(itertools.accumulate([head_int, *segs]))
            fn = Cumulative(self.fn, knots, cum, from_left=True)
        # head asymptotics of U
        ha, hb, hc = self.head.a, self.head.b, self.head.coef
        if hc == 0.0:
            head = Asym(0.0)
        elif ha > -1:
            head = Asym(hc / (float(ha) + 1.0), ha + 1, hb)
        else:  # a == -1, b < -1
            head = Asym(hc / (-(float(hb) + 1.0)), 0, hb + 1)
        # tail asymptotics of U
        if tail_finite:
            tail = Asym(_total(head_int, segs, tail_int), 0, 0)
        elif self.tail.a > -1:
            tail = Asym(self.tail.coef / (float(self.tail.a) + 1.0),
                        self.tail.a + 1, self.tail.b)
        else:  # a == -1, b >= -1
            if self.tail.b == -1:
                raise Divergence("log-log growth tails are not supported")
            tail = Asym(self.tail.coef / (float(self.tail.b) + 1.0), 0,
                        self.tail.b + 1)
        return SymFunc(fn, head, tail, knots)

    def tail_integral(self) -> "SymFunc":
        """T(t) = integral_t^inf f; raises Divergence when identically inf."""
        if not self.tail.integrable_at_inf():
            raise Divergence(
                f"tail ~ t**({self.tail.a}) log**({self.tail.b}) "
                "not integrable at inf")
        knots = self.knots or (1.0,)
        head_finite = self.head.integrable_at_zero()
        fn = None if self.step is None else self.step.cumulative(
            from_left=False)
        if fn is None or head_finite:
            head_int, segs, tail_int = self._knot_integrals()
        if fn is None:
            cum = list(itertools.accumulate([tail_int, *reversed(segs)]))
            fn = Cumulative(self.fn, knots, cum[::-1], from_left=False)
        ta, tb, tc = self.tail.a, self.tail.b, self.tail.coef
        if tc == 0.0:
            tail = Asym(0.0)
        elif ta < -1:
            tail = Asym(tc / (-(float(ta) + 1.0)), ta + 1, tb)
        else:  # a == -1, b < -1
            tail = Asym(tc / (-(float(tb) + 1.0)), 0, tb + 1)
        if head_finite:
            head = Asym(_total(head_int, segs, tail_int), 0, 0)
        elif self.head.a < -1:
            head = Asym(self.head.coef / (-(float(self.head.a) + 1.0)),
                        self.head.a + 1, self.head.b)
        else:
            if self.head.b == -1:
                raise Divergence("log-log heads are not supported")
            head = Asym(self.head.coef / (-(float(self.head.b) + 1.0)), 0,
                        self.head.b + 1)
        return SymFunc(fn, head, tail, knots)

    def sup(self) -> ExtReal:
        """sup over (0, inf) with certified endpoint limits."""
        at0 = _limit_at_zero(self.head)
        atinf = _limit_at_inf(self.tail)
        if math.isinf(at0):
            return ExtReal.infinite(
                f"~ {self.head.coef:.3g} t**({self.head.a}) "
                f"log**({self.head.b}) unbounded at 0")
        if math.isinf(atinf):
            return ExtReal.infinite(
                f"~ {self.tail.coef:.3g} t**({self.tail.a}) "
                f"log**({self.tail.b}) unbounded at inf")
        lo, hi = self._span()
        # a maximum at a kink sits on a knot, between the scan's samples
        at_knots = [v for v in map(self.fn, self.knots) if math.isfinite(v)]
        best = max(scan_max(self.fn, lo / 1e8, hi * 1e8, 600), at0, atinf,
                   *at_knots)
        return ExtReal.finite(float(best))

    def running_sup_from(self) -> "SymFunc":
        """S(x) = sup over [x, inf) of f; requires a bounded tail limit."""
        atinf = _limit_at_inf(self.tail)
        if math.isinf(atinf):
            raise Divergence("running sup of a function unbounded at inf")
        lo, hi = self._span()
        ts = np.geomspace(lo / 1e8, hi * 1e8, 1200)
        vals = np.array([self.fn(float(t)) for t in ts])
        suffix = np.maximum.accumulate(np.maximum(vals, atinf)[::-1])[::-1]

        def fn(x: float) -> float:
            if x >= ts[-1]:
                return max(atinf, float(np.max(
                    [self.fn(float(u)) for u in np.geomspace(x, 10 * x, 16)])))
            i = int(np.searchsorted(ts, x, side="left"))
            return float(suffix[min(i, len(ts) - 1)])

        global_sup = float(max(np.max(vals), atinf))
        return SymFunc(fn, Asym(global_sup), Asym(max(atinf, float(vals[-1]))),
                       self.knots)


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
    sorted anchors and the integral's values there; with recip set it is
    t -> the same integral at 1/t.

    A point value integrates fn only from the nearest anchor on the side of
    the fixed end (in log coordinates from 0 or to inf when there is none
    there).  ``sweep`` gives the values on a whole grid in one pass."""

    __slots__ = ("fn", "anchors", "values", "from_left", "recip")

    def __init__(self, fn, anchors: Sequence[float], values: Sequence[float],
                 from_left: bool, recip: bool = False):
        self.fn = fn
        self.anchors = list(anchors)
        self.values = list(values)
        self.from_left = from_left
        self.recip = recip

    def reciprocal(self) -> "Cumulative":
        return Cumulative(self.fn, self.anchors, self.values, self.from_left,
                          not self.recip)

    def __call__(self, t: float) -> float:
        return self._value(1.0 / t if self.recip else t)

    def _value(self, x: float) -> float:
        ks, fn = self.anchors, self.fn
        if self.from_left:
            i = bisect.bisect_right(ks, x) - 1
            if i < 0:
                return 0.0 if x <= 0.0 else log_quad(fn, 0.0, x)
            return self.values[i] + _segment(fn, ks[i], x)
        i = bisect.bisect_left(ks, x)
        if i >= len(ks):
            return log_quad(fn, x, math.inf)
        return self.values[i] + _segment(fn, x, ks[i])

    def sweep(self, ts: np.ndarray) -> tuple[np.ndarray, "Cumulative"]:
        """The values at the increasing grid ts, and this cumulative
        anchored at the grid (and the anchors inside it) instead.  The grid
        is split at those anchors; each segment between consecutive points
        is one ``quad``, summed from the point value at the grid's end on
        the fixed side toward the other end."""
        if self.recip:
            vals, cum = self.reciprocal().sweep(1.0 / ts[::-1])
            return vals[::-1], cum.reciprocal()
        x0, x1 = float(ts[0]), float(ts[-1])
        edges = sorted(set(ts.tolist()).union(
            k for k in self.anchors if x0 < k < x1))
        parts = [pieces.quad(self.fn, a, b)[0]
                 for a, b in zip(edges, edges[1:])]
        if self.from_left:
            run = list(itertools.accumulate(parts, initial=self._value(x0)))
        else:
            run = list(itertools.accumulate(reversed(parts),
                                            initial=self._value(x1)))[::-1]
        cum = Cumulative(self.fn, edges, run, self.from_left)
        return np.asarray(run)[np.searchsorted(edges, ts)], cum


def _segment(fn, a: float, b: float) -> float:
    """integral_a^b fn for 0 < a <= b < inf; log coordinates keep wide
    ranges well conditioned."""
    if b > 8.0 * a:
        return log_quad(fn, a, b)
    return pieces.quad(fn, a, b)[0]
