"""One-variable non-negative functions on (0, inf) built from power-log pieces.

A StepFunction is a finite list of pieces covering (0, inf).  Each piece is

    f(t) = offset + coef * (t - shift)**a * log(e + t - shift)**b

on an interval (lo, hi].  Constant cells are pieces with coef = 0; power
leads/tails are pieces with offset = 0.  The shift parameter exists because
the family {offset + c*(t-shift)**a} is closed under the monotone inversion
used to compute rearrangements exactly.

The exponent rule: every exponent slot (Piece, TailSpec, WeightSpec, Asym,
ExponentConfig) is normalized at construction by ``as_exp`` and holds a
Fraction (ExponentConfig's p and q may also be math.inf).  An int becomes a
Fraction, a string goes through ``parse_exp``, and a finite float becomes
the simplest fraction with denominator at most 10**12 that converts back to
exactly that float, or else its exact binary value.  Exponent arithmetic and
every finiteness or limit decision (comparisons against -1 and 0) are
therefore exact; exponents become floats only to evaluate powers.

Coefficients are floats; quadrature is used only where a closed form does
not exist (log factors over finite ranges, infinite tails with log factors),
and only after convergence has been decided symbolically.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence, Union

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad as _scipy_quad
from scipy.optimize import minimize_scalar

from .extreal import ExtReal

Exponent = Union[Fraction, float]  # a float exponent is math.inf

_E = math.e


# ---------------------------------------------------------------------------
# Quadrature backbone: the package's only use of scipy.integrate
# ---------------------------------------------------------------------------


def quad(func, a: float, b: float) -> tuple[float, float]:
    """scipy.integrate.quad (300 subdivisions) with accuracy warnings
    silenced (integrands are piecewise smooth; achieved tolerances are
    validated against closed forms in the tests)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _scipy_quad(func, a, b, limit=300)


def log_quad(fn, t0: float, t1: float) -> float:
    """integral_{t0}^{t1} fn(t) dt for 0 <= t0 < t1 <= inf, computed in
    u = log t (integrand fn(e**u) e**u), which keeps power-law ends and wide
    ranges well conditioned.  Where e**u under- or overflows, or fn fails or
    is not finite there, the integrand reads 0: quad samples u far beyond
    the range where the (convergent) integrand matters."""
    def g(u: float) -> float:
        try:
            t = math.exp(u)
        except OverflowError:
            return 0.0
        if t == 0.0 or math.isinf(t):
            return 0.0
        try:
            v = fn(t) * t
        except (OverflowError, ZeroDivisionError):
            return 0.0
        return v if math.isfinite(v) else 0.0

    u0 = math.log(t0) if t0 > 0.0 else -math.inf
    return quad(g, u0, math.log(t1))[0]


def parse_exp(text: str) -> Exponent:
    """Parse an exponent: an integer, decimal, fraction like ``4/3`` or
    ``inf``.  Returns an exact Fraction, or math.inf; raises ValueError on
    NaN, a zero denominator or anything else."""
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad exponent {text!r}") from exc


def as_exp(x) -> Exponent:
    """The exponent rule (see the module docstring): a Fraction, or
    math.inf for an infinite float or string.  Raises ValueError on NaN and
    on a malformed string, TypeError on other types."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_exp(x)
    if isinstance(x, float):
        if math.isinf(x):
            return x
        short = Fraction(x).limit_denominator(10**12)
        return short if float(short) == x else Fraction(x)
    return Fraction(x)


def scan_max(h, lo: float, hi: float, n: int) -> float:
    """Numeric max of h over (lo, hi): the best of n geometrically spaced
    samples, refined by a bounded scalar search between that sample's
    neighbours.  An infinite hi is cut to max(10 (lo + 1), 1e6) and a zero
    lo to 1e-9 hi."""
    if math.isinf(hi):
        hi = max(10.0 * (lo + 1.0), 1e6)
    if lo <= 0.0:
        lo = hi * 1e-9
    ts = np.geomspace(lo, hi, n)
    vals = [h(float(t)) for t in ts]
    k = int(np.nanargmax(vals))
    a = float(ts[max(k - 1, 0)])
    b = float(ts[min(k + 1, n - 1)])
    res = minimize_scalar(lambda t: -h(t), bounds=(a, b), method="bounded")
    return max(vals[k], -res.fun)


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


# A lead mirrors a tail but describes the first cell (0, t1).  Near zero the
# log factor log(e+t) tends to 1, so only the power exponent matters for
# integrability there.
LeadSpec = TailSpec


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Strictly increasing breakpoints starting at 0."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if not pts or pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


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

    def limit_at(self, t: float) -> float:
        """One-sided limit; t may be 0.0 (from the right) or inf."""
        if self.is_constant:
            return self.const_value
        a, b = self.a, self.b
        if math.isinf(t):
            if a > 0 or (a == 0 and b > 0):
                return math.inf
            if a < 0 or (a == 0 and b < 0):
                return self.offset
            return self.offset + self.coef
        s = t - self.shift
        if s <= 0.0:
            if a < 0:
                return math.inf
            if a > 0:
                return self.offset
            return self.offset + self.coef  # log factor tends to 1 at s=0
        return self(t)

    def values_monotone(self) -> bool:
        """True when the piece is monotone on its interval."""
        return self.a * self.b >= 0  # same sign (or one vanishes)

    def endpoint_range(self) -> tuple[float, float]:
        v0 = self.limit_at(self.lo)
        v1 = self.limit_at(self.hi)
        return (min(v0, v1), max(v0, v1))

    # -- calculus -------------------------------------------------------
    def integral(self, x0: float, x1: float) -> ExtReal:
        """Integral over (x0, x1) subset of (lo, hi); endpoints may be 0/inf."""
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
        total = self.offset * (x1 - x0) if not math.isinf(x1) else 0.0
        if self.coef == 0.0:
            return ExtReal.finite(total)
        s0 = x0 - self.shift
        s1 = x1 - self.shift if not math.isinf(x1) else math.inf
        # symbolic convergence checks
        a, b = self.a, self.b
        if s0 <= 0.0:
            # head at s=0: log factor ~ 1 there, so integrability is a > -1
            if a <= -1:
                return ExtReal.infinite(
                    f"non-integrable head exponent {self.a} at t={self.shift}"
                )
            s0 = 0.0
        if math.isinf(s1):
            if a > -1 or (a == -1 and b >= -1):
                return ExtReal.infinite(
                    f"non-integrable tail exponents (a={self.a}, b={self.b})"
                )
        # exact closed forms when there is no log factor
        if b == 0:
            if a == -1:
                if s0 == 0.0:
                    return ExtReal.infinite("log divergence at piece head")
                val = self.coef * math.log(s1 / s0)
            else:
                a1 = float(a) + 1
                hi_part = 0.0 if math.isinf(s1) else s1 ** a1
                val = self.coef * (hi_part - s0 ** a1) / a1
            return ExtReal.finite(total + val)
        # certified-convergent quadrature for log factors
        fa, fb = float(a), float(b)
        g = lambda s: self.coef * s ** fa * math.log(_E + s) ** fb
        if math.isinf(s1):
            cut = max(s0, 1.0)
            head_val = quad(g, s0, cut)[0] if cut > s0 else 0.0
            tail_val = log_quad(g, cut, math.inf)
            return ExtReal.finite(total + head_val + tail_val)
        val, _err = quad(g, s0, s1)
        return ExtReal.finite(total + val)

    # -- algebra ---------------------------------------------------------
    def pow(self, e: Exponent) -> "Piece":
        e = as_exp(e)
        if self.is_constant:
            v = self.const_value ** e if self.const_value > 0 else (
                0.0 if e > 0 else math.inf)
            if self.const_value == 0.0 and e == 0:
                v = 1.0
            if math.isinf(v):
                return replace(self, offset=math.inf, coef=0.0, a=0, b=0)
            return replace(self, offset=v, coef=0.0, a=0, b=0)
        if not self.is_monomial:
            raise NotImplementedError(
                "power of an offset-plus-power piece has no closed form")
        return replace(self, coef=self.coef ** float(e), a=self.a * e,
                       b=self.b * e)

    def scaled(self, k: float) -> "Piece":
        if k < 0:
            raise ValueError("negative scale")
        # a zero part stays zero under an infinite scale (0 * inf = 0)
        return replace(self, offset=self.offset * k if self.offset else 0.0,
                       coef=self.coef * k if self.coef else 0.0)

    def restricted(self, lo: float, hi: float) -> "Piece":
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        return replace(self, lo=lo, hi=hi)

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


class StepFunction:
    """Piecewise power-log function on (0, inf).

    Pieces tile (0, inf) with no gaps; trailing zero is an explicit piece.
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
    def from_cells(grid: Sequence[float] | Grid,
                   values: Sequence[float],
                   tail: TailSpec = TailSpec.zero(),
                   lead: LeadSpec | None = None) -> "StepFunction":
        """Constant values on grid cells, plus a tail after the last point.

        The last entry of values is the tail coefficient: the tail is
        values[-1] * t**(-a) * log(e+t)**(-b) beyond the last grid point (and
        is ignored for a zero tail).  With a lead, the first cell becomes
        values[0] * t**(-a_lead) instead of a constant.
        """
        pts = grid.points if isinstance(grid, Grid) else Grid(tuple(grid)).points
        ncells = len(pts) - 1
        nvals = ncells + (0 if tail.kind == "zero" else 1)
        if len(values) != max(nvals, ncells) and len(values) != nvals:
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
            c = float(values[ncells]) if len(values) > ncells else float(values[-1])
            pieces.append(Piece(last, math.inf, 0.0, c, 0.0, -tail.a, -tail.b))
        return StepFunction(pieces)

    @staticmethod
    def power(coef: float, a: Exponent, b: Exponent = 0) -> "StepFunction":
        """coef * t**(-a) * log(e+t)**(-b) on all of (0, inf)."""
        return StepFunction([Piece(0.0, math.inf, 0.0, coef, 0.0,
                                   -as_exp(a), -as_exp(b))])

    @staticmethod
    def indicator(R: float, height: float = 1.0) -> "StepFunction":
        return StepFunction.from_cells([0.0, float(R)], [height])

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
        once on the group of points it holds; powers and logs are numpy's,
        so values can differ from ``__call__`` in the last bits."""
        shape = np.shape(ts)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        idx = np.maximum(np.searchsorted(self._los, ts, side="right") - 1, 0)
        levels = np.array([p.const_value if p.is_constant else math.nan
                           for p in self.pieces])
        out = levels[idx]
        for i in np.unique(idx[np.isnan(out)]):
            p, sel = self.pieces[i], idx == i
            s = np.maximum(ts[sel] - p.shift, 0.0)
            with np.errstate(divide="ignore"):
                val = p.offset + p.coef * s ** float(p.a)
            if p.b != 0:
                val = p.offset + (val - p.offset) * np.log(_E + s) ** float(p.b)
            out[sel] = val
        return out.reshape(shape)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self._los)

    @property
    def grid(self) -> Grid:
        return Grid(tuple(self._los))

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

    def is_nonincreasing(self, strict_tol: float = 1e-12) -> bool:
        prev = math.inf
        for p in self.pieces:
            v0 = p.limit_at(p.lo)
            v1 = p.limit_at(p.hi)
            if not p.values_monotone():
                return False
            if max(v0, v1) > prev + strict_tol or v1 > v0 + strict_tol:
                return False
            prev = min(v0, v1)
        return True

    def essential_sup(self) -> ExtReal:
        return sup_over(self, StepFunction.constant(1.0))

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

    def cumulative(self, from_left: bool = True):
        """t -> integral_0^t f (from_left) or t -> integral_t^inf f, as
        prefix sums of the piece integrals plus the partial integral of the
        piece holding t; inf beyond a divergent piece.  Exact for pieces
        without log factors."""
        pieces, los = self.pieces, self._los
        acc = [0.0]
        for p in (pieces[:-1] if from_left else pieces[:0:-1]):
            seg = p.integral(p.lo, p.hi)
            acc.append(acc[-1] + (seg.value if seg.is_finite else math.inf))
        if from_left:
            def fn(t: float) -> float:
                i = bisect.bisect_right(los, t) - 1
                if i < 0:
                    return 0.0
                part = pieces[i].integral(pieces[i].lo, t)
                return acc[i] + (part.value if part.is_finite else math.inf)
            return fn
        suffix = acc[::-1]  # suffix[i] = integral over the pieces after i

        def fn(t: float) -> float:
            i = bisect.bisect_right(los, t) - 1
            if i < 0:
                i, t = 0, 0.0
            part = pieces[i].integral(t, pieces[i].hi)
            return suffix[i] + (part.value if part.is_finite else math.inf)
        return fn

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


# ---------------------------------------------------------------------------
# sup of a product (funcspace-level op; exact monotone analysis per cell)
# ---------------------------------------------------------------------------


_CELL_SCAN = 129  # scan_max samples per cell of sup_over


def sup_over(f: StepFunction, g: StepFunction,
             lo: float = 0.0, hi: float = math.inf) -> ExtReal:
    """sup of f*g over (lo, hi) with certified endpoint behavior.

    On each refined cell both factors are single power-log terms, so the
    product is monotone or has at most one interior critical point; the sup
    is attained at cell endpoints, the critical point, or as a certified
    limit at 0+/inf.
    """
    best = 0.0
    for clo, chi, p, q in _overlaps(f, g):
        clo, chi = max(clo, lo), min(chi, hi)
        if chi <= clo:
            continue
        prod = p.try_mul(q)
        if prod is not None:
            prod = prod.restricted(clo, chi)
            v0 = prod.limit_at(clo if clo > 0 else 0.0)
            v1 = prod.limit_at(chi)
            if math.isinf(v0):
                return ExtReal.infinite(f"product unbounded near t={clo:g}")
            if math.isinf(v1):
                where = "infinity" if math.isinf(chi) else f"t={chi:g}"
                return ExtReal.infinite(f"product unbounded near {where}")
            best = max(best, v0, v1)
            if not prod.values_monotone():
                best = max(best, scan_max(prod, clo, chi, _CELL_SCAN))
            continue
        # inexact product (mixed offsets / shifts): numeric scan with
        # endpoint limits taken factor-wise
        v0 = p.limit_at(clo if clo > 0 else 0.0) * q.limit_at(clo if clo > 0 else 0.0)
        v1lim = p.limit_at(chi) * q.limit_at(chi)
        if math.isinf(v0) or math.isinf(v1lim):
            return ExtReal.infinite("product unbounded on a cell")
        best = max(best, v0, v1lim, scan_max(
            lambda t: p(t) * q(t), clo, chi, _CELL_SCAN))
    return ExtReal.finite(best)
