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

The end rule decides, by one formula at both ends of (0, inf), whether a
term c * t**a * L**b (L = log(1/t) at 0, log(t) at inf) is integrable there,
its limit there and the leading term of its integral (``end_integrable``,
``end_limit``, ``end_integral``), comparing the exact exponents.  Pieces and
the asymptotic terms of ``symfunc`` take every end decision from it.

Coefficients are floats; quadrature is used only where a closed form does
not exist (log factors over finite ranges, infinite tails with log factors),
and only after convergence has been decided symbolically.

Array evaluators (``Piece.at``, ``StepFunction.at``, ``StepCumulative.at``)
compute a whole array of points with numpy's logs and powers, which on an
AVX-512 x86 host differ from the C library's in the last bit for about 5%
of exp and pow values; so an array value may differ from the point value by
a few ulp.  The segment rule ``quad_segments`` integrates every segment of
a grid at once and gives ``quad``'s bits for the same node values.
"""

from __future__ import annotations

import bisect
import collections
import csv
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .extreal import ExtReal

Exponent = Union[Fraction, float]  # a float exponent is math.inf

_E = math.e


# ---------------------------------------------------------------------------
# Quadrature backbone: QUADPACK's compiled routines, called directly
# ---------------------------------------------------------------------------

# QUADPACK's qagse (finite range) and qagie (an infinite end), from scipy's
# compiled extension scipy/integrate/_quadpack, loaded by the first quad call.
# Loading the extension alone does not import the scipy.integrate package
# (about 0.5 s and 40 MB, most of it scipy.special and the ODE solvers).  The
# two routines are private to scipy: tests/test_pieces.py checks ``quad``
# against scipy.integrate.quad bit for bit, so a change of their signature
# fails there.
_qagse = None
_qagie = None
_QUADPACK = "scipy.integrate._quadpack"
_TOL = 1.49e-8  # scipy.integrate.quad's default epsabs and epsrel
_LIMIT = 300    # subdivisions
# nonzero QUADPACK flags returned by quad, by ier: 1 the subdivision limit
# was reached, 2 roundoff was detected, 3 bad integrand behaviour, 4 no
# convergence, 5 divergence or slow convergence
QUAD_FLAGS: collections.Counter = collections.Counter()


def _load_quadpack() -> None:
    global _qagse, _qagie
    scipy = importlib.util.find_spec("scipy")  # does not import scipy
    where = (os.path.join(scipy.submodule_search_locations[0], "integrate")
             if scipy else "scipy/integrate (scipy is not installed)")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_quadpack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no QUADPACK extension _quadpack in {where}")
    loader = importlib.machinery.ExtensionFileLoader(_QUADPACK, path)
    # the extension enters itself in sys.modules; put back what was there,
    # so that a later import of scipy.integrate loads it the usual way
    held = sys.modules.get(_QUADPACK)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(_QUADPACK, loader))
    loader.exec_module(module)
    if held is None:
        sys.modules.pop(_QUADPACK, None)
    else:
        sys.modules[_QUADPACK] = held
    _qagse, _qagie = module._qagse, module._qagie


def quad(func, a: float, b: float) -> tuple[float, float]:
    """(value, error estimate) of integral_a^b func, bit for bit that of
    scipy.integrate.quad(func, a, b, limit=300): QUADPACK's qagse, or qagie
    with an infinite end mapped as scipy does.  A nonzero accuracy flag is
    counted in ``QUAD_FLAGS`` (integrands are piecewise smooth; achieved
    tolerances are validated against closed forms in the tests); invalid
    input raises ValueError, and an exception in func propagates."""
    if _qagse is None:
        _load_quadpack()
    if a == b:
        return 0.0, 0.0
    flip, a, b = b < a, min(a, b), max(a, b)
    if b == math.inf:
        bound, ends = (0.0, 2) if a == -math.inf else (a, 1)
        value, err, ier = _qagie(func, bound, ends, (), 0, _TOL, _TOL, _LIMIT)
    elif a == -math.inf:
        value, err, ier = _qagie(func, b, -1, (), 0, _TOL, _TOL, _LIMIT)
    else:
        value, err, ier = _qagse(func, a, b, (), 0, _TOL, _TOL, _LIMIT)
    if ier == 6:
        raise ValueError(f"invalid QUADPACK input on ({a}, {b})")
    if ier:
        QUAD_FLAGS[ier] += 1
    return (-value if flip else value), err


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21): the Kronrod abscissae
# (those at odd indices are the 10-point Gauss nodes), the Kronrod weights
# with the centre's last, and the Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208422440823, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def quad_segments(func, at, edges: np.ndarray) -> np.ndarray:
    """integral of func over every segment (edges[i], edges[i+1]) of the
    increasing finite array edges, where at(ts) gives func at every point
    of an array ts.

    The segment rule: for all segments at once it computes the first stage
    of QUADPACK's qagse, the 21-point Kronrod estimate and its error, in
    dqk21's operation order, taking at one node row (one point per
    segment) at a time.  A segment passes qagse's first-stage test
    (abserr <= errbnd and abserr != resasc, or abserr = 0) where qagse
    would stop there with ier = 0; its value is then the one ``quad``
    returns, bit for bit, whenever at gives func's values (numpy's exp and
    pow may differ from the C library's by a few ulp, so an ``at`` built
    from them can move the value that much).  Every other segment, and
    every one with a node value that is not finite, is integrated by
    ``quad``, which flags it as it would any call."""
    a, b = edges[:-1], edges[1:]
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = at(centr)
    finite = np.isfinite(fc)
    fv1, fv2 = [None] * 10, [None] * 10
    with np.errstate(all="ignore"):  # segments with non-finite nodes
        resk = _WGK[10] * fc
        resabs = np.abs(resk)
        resg = np.zeros_like(centr)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
            absc = hlgth * _XGK[j]
            f1, f2 = at(centr - absc), at(centr + absc)
            fv1[j], fv2[j] = f1, f2
            finite &= np.isfinite(f1) & np.isfinite(f2)
            fsum = f1 + f2
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(f1) + np.abs(f2))
        reskh = resk * 0.5
        resasc = _WGK[10] * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(fv1[j] - reskh)
                                         + np.abs(fv2[j] - reskh))
        result = resk * hlgth
        dhlgth = np.abs(hlgth)
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = np.abs((resk - resg) * hlgth)
        rel = 200.0 * abserr / resasc
    scale = np.flatnonzero(finite & (resasc != 0.0) & (abserr != 0.0))
    # Python's ** is the C library's pow, as QUADPACK's; numpy's may differ
    # in the last bit
    abserr[scale] = resasc[scale] * np.minimum(
        1.0, [x ** 1.5 for x in rel[scale].tolist()])
    big = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr[big] = np.maximum((_EPMACH * 50.0) * resabs[big], abserr[big])
    errbnd = np.maximum(_TOL, _TOL * np.abs(result))
    accepted = finite & (((abserr <= errbnd) & (abserr != resasc))
                         | (abserr == 0.0))
    for i in np.flatnonzero(~accepted):
        result[i] = quad(func, float(a[i]), float(b[i]))[0]
    return result


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


_LOG_CUT = 700.0  # |log t| beyond which e**u may under- or overflow


def end_quad(fn, end, t0: float, t1: float) -> float:
    """``log_quad`` from the end t0 = 0 or to the end t1 = inf, where end
    (an Asym, or a Piece for its own tail) holds fn's term there as coef,
    a, b.  log_quad loses the slowly decaying rest of an end ~ t**-1 L**b,
    so for such an end the part beyond |log t| = 700 is the end rule's
    integrated term."""
    if end.a != -1 or end.coef == 0.0:
        return log_quad(fn, t0, t1)
    if t0 == 0.0:
        t0 = min(t1, math.exp(-_LOG_CUT))
        cut_L = -math.log(t0)
    else:
        t1 = max(t0, math.exp(_LOG_CUT))
        cut_L = math.log(t1)
    c, _, b = end_integral(end.coef, end.a, end.b)  # c L**b with a = 0
    return c * cut_L ** float(b) + log_quad(fn, t0, t1)


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


def is_inf(x: Exponent) -> bool:
    """True for the infinite exponent (the only float an exponent slot
    holds)."""
    return isinstance(x, float) and math.isinf(x)


def conjugate(p: Exponent) -> Exponent:
    """Hoelder conjugate: 1/p + 1/p' = 1 (1 <-> inf)."""
    if is_inf(p):
        return Fraction(1)
    if p == 1:
        return math.inf
    return p / (p - 1)


def sharp(x: Exponent) -> Exponent:
    """x# with 1/x# = |1/2 - 1/x|: 2 at x = inf, inf exactly at x = 2."""
    if is_inf(x):
        return Fraction(2)
    if x == 2:
        return math.inf
    return 2 * x / abs(2 - x)


class Divergence(Exception):
    """Raised when a quantity is certified infinite; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def end_integrable(c: float, a: Exponent, b: Exponent, at_zero: bool) -> bool:
    """Is the term integrable at 0 (at_zero) or at inf?"""
    if c == 0.0:
        return True
    if a == -1:
        return b < -1
    return (a > -1) == at_zero


def end_limit(c: float, a: Exponent, b: Exponent, at_zero: bool) -> float:
    """The term's limit at 0 (at_zero) or at inf: 0, c or inf."""
    if c == 0.0:
        return 0.0
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
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-5  # absolute tolerance on the minimizer
_MAXFUN = 500  # evaluations


def brent_min(f, a: float, b: float) -> float:
    """The least value of f found on [a, b] (finite, a <= b) by Brent's
    bounded search (Brent 1973, ch. 5): golden-section steps, and
    parabolic steps where the fit through the three best points x, w, v
    falls inside the bracket and shrinks the step.  It stops when the
    bracket is within 1e-5 (plus a relative sqrt-eps) of the best point,
    or after 500 evaluations.  Its iterates, and so its value, are those of
    scipy.optimize.minimize_scalar(f, bounds=(a, b), method="bounded")."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    num = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                rat = p / q
                u = x + rat
                if u - a < tol2 or b - u < tol2:
                    rat = tol1 if xm >= x else -tol1
        if golden:  # into the larger part of the bracket
            e = (a if x >= xm else b) - x
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        u = x + (step if rat >= 0.0 else -step)
        fu = f(u)
        num += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return fx


def scan_max(h, h_at, lo: float, hi: float, n: int) -> float:
    """Numeric max of h over (lo, hi): the best of n geometrically spaced
    samples, taken by h_at (h on an array) in one call, refined by a
    bounded Brent search (``brent_min``) on h between that sample's
    neighbours.  An infinite hi is cut to max(10 (lo + 1), 1e6) and a zero
    lo to 1e-9 hi."""
    if math.isinf(hi):
        hi = max(10.0 * (lo + 1.0), 1e6)
    if lo <= 0.0:
        lo = hi * 1e-9
    ts = np.geomspace(lo, hi, n)
    vals = h_at(ts)
    k = int(np.nanargmax(vals))
    a = float(ts[max(k - 1, 0)])
    b = float(ts[min(k + 1, n - 1)])
    return max(float(vals[k]), -brent_min(lambda t: -h(t), a, b))


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
            # head at s=0: log factor ~ 1 there
            if not end_integrable(self.coef, a, 0, True):
                return ExtReal.infinite(
                    f"non-integrable head exponent {self.a} at t={self.shift}"
                )
            s0 = 0.0
        if math.isinf(s1) and not end_integrable(self.coef, a, b, False):
            return ExtReal.infinite(
                f"non-integrable tail exponents (a={self.a}, b={self.b})")
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
            tail_val = end_quad(g, self, cut, math.inf)
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
        once on the group of points it holds (``Piece.at``)."""
        shape = np.shape(ts)
        ts = np.asarray(ts, dtype=float).reshape(-1)
        idx = np.maximum(np.searchsorted(self._los, ts, side="right") - 1, 0)
        levels = np.array([p.const_value if p.is_constant else math.nan
                           for p in self.pieces])
        out = levels[idx]
        for i in np.unique(idx[np.isnan(out)]):
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
    for pieces without log factors; where a piece's partial integrals are
    all finite and closed form they are evaluated by ``_closed_partial``,
    at one point or, by ``at``, on the group of points of an array that
    the piece holds."""

    __slots__ = ("pieces", "los", "from_left", "base", "closed")

    def __init__(self, f: StepFunction, from_left: bool):
        self.pieces, self.los, self.from_left = f.pieces, f._los, from_left
        acc = [0.0]
        for p in (f.pieces[:-1] if from_left else f.pieces[:0:-1]):
            seg = p.integral(p.lo, p.hi)
            acc.append(acc[-1] + (seg.value if seg.is_finite else math.inf))
        self.base = acc if from_left else acc[::-1]
        self.closed = [_closed_partial(p, from_left) for p in f.pieces]

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.los, t) - 1
        if i < 0:
            if self.from_left:
                return 0.0
            i, t = 0, 0.0
        part = self.closed[i]
        if part is not None:
            val = part[0](t)
            if math.isfinite(val):
                return self.base[i] + val
        return self.base[i] + self._integral(i, t)

    def _integral(self, i: int, t: float) -> float:
        p = self.pieces[i]
        part = (p.integral(p.lo, t) if self.from_left
                else p.integral(t, p.hi))
        return part.value if part.is_finite else math.inf

    def at(self, ts: np.ndarray) -> np.ndarray:
        """The integral at every point of the array ts; numpy's logs and
        powers can differ from ``__call__`` in the last bits."""
        ts = np.asarray(ts, dtype=float)
        idx = np.searchsorted(self.los, ts, side="right") - 1
        out = np.zeros(ts.shape)
        if not self.from_left:  # left of 0: the integral from 0
            ts = np.where(idx < 0, 0.0, ts)
            idx = np.maximum(idx, 0)
        for i in np.unique(idx[idx >= 0]):
            sel = np.flatnonzero(idx == i)
            part = self.closed[i]
            vals = (part[1](ts[sel]) if part is not None
                    else np.full(len(sel), math.nan))
            for k in np.flatnonzero(~np.isfinite(vals)):
                vals[k] = self._integral(i, float(ts[sel[k]]))
            out[sel] = self.base[i] + vals
        return out


def _closed_partial(p: Piece, from_left: bool):
    """(point, array) evaluators of t -> p.integral(p.lo, t).value
    (from_left) or p.integral(t, p.hi).value for finite t, as float
    formulas with the operations of ``Piece.integral`` in the same order
    (no ExtReal, no exponent comparisons per call); the array one takes
    points of the piece's interval, with numpy's logs and powers.  None
    unless every such partial integral is finite and closed form: a finite
    level, no log factor, no divergent end, a shift at most lo."""
    lo, hi, off, c, shift, a = p.lo, p.hi, p.offset, p.coef, p.shift, p.a
    finite_hi = not math.isinf(hi)
    if math.isinf(off) or (not from_left and not finite_hi and off > 0.0):
        return None  # an infinite level, or a level over infinite measure
    power = c != 0.0
    if power and (p.b != 0 or shift > lo):
        return None
    if power and lo - shift <= 0.0 and not end_integrable(c, a, 0, True):
        return None  # the head at t = shift diverges
    if power and not (from_left or finite_hi
                      or end_integrable(c, a, 0, False)):
        return None  # the tail diverges
    log_form = a == -1
    closed_power = power and not log_form
    try:
        a1 = float(a) + 1 if closed_power else 0.0
        s0 = lo - shift if lo - shift > 0.0 else 0.0
        head = s0 ** a1 if closed_power and from_left else 0.0
        s1 = hi - shift if finite_hi else math.inf
        tail = (s1 ** a1 if closed_power and finite_hi and not from_left
                else 0.0)
    except OverflowError:
        return None  # Piece.integral raises it when called

    def left(t: float) -> float:
        x1 = min(t, hi)
        if x1 <= lo:
            return 0.0
        total = off * (x1 - lo)
        if not power:
            return total
        if log_form:
            return total + c * math.log((x1 - shift) / s0)
        return total + c * ((x1 - shift) ** a1 - head) / a1

    def right(t: float) -> float:
        x0 = max(t, lo)
        if hi <= x0:
            return 0.0
        total = off * (hi - x0) if finite_hi else 0.0
        if not power:
            return total
        s0 = x0 - shift if x0 - shift > 0.0 else 0.0
        if log_form:
            return total + c * math.log(s1 / s0)
        return total + c * (tail - s0 ** a1) / a1

    def left_at(t: np.ndarray) -> np.ndarray:
        x1 = np.minimum(t, hi)
        total = off * (x1 - lo)
        if power:
            with np.errstate(all="ignore"):  # non-finite: the fallback
                total = total + (c * np.log((x1 - shift) / s0) if log_form
                                 else c * ((x1 - shift) ** a1 - head) / a1)
        return np.where(x1 <= lo, 0.0, total)

    def right_at(t: np.ndarray) -> np.ndarray:
        x0 = np.maximum(t, lo)
        total = off * (hi - x0) if finite_hi else np.zeros(t.shape)
        if power:
            s0 = np.maximum(x0 - shift, 0.0)
            with np.errstate(all="ignore"):  # non-finite: the fallback
                total = total + (c * np.log(s1 / s0) if log_form
                                 else c * (tail - s0 ** a1) / a1)
        return np.where(hi <= x0, 0.0, total)

    return (left, left_at) if from_left else (right, right_at)


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
                best = max(best, scan_max(prod, prod.at, clo, chi,
                                          _CELL_SCAN))
            continue
        # inexact product (mixed offsets / shifts): numeric scan with
        # endpoint limits taken factor-wise
        v0 = p.limit_at(clo if clo > 0 else 0.0) * q.limit_at(clo if clo > 0 else 0.0)
        v1lim = p.limit_at(chi) * q.limit_at(chi)
        if math.isinf(v0) or math.isinf(v1lim):
            return ExtReal.infinite("product unbounded on a cell")
        with np.errstate(invalid="ignore", over="ignore"):
            best = max(best, v0, v1lim, scan_max(
                lambda t: p(t) * q(t), lambda ts: p.at(ts) * q.at(ts),
                clo, chi, _CELL_SCAN))
    return ExtReal.finite(best)
