"""Radial monotone weights on R^d and a small textual format for them.

Weight families:
    pow(a)        power weight; for a non-increasing slot this is |x|**(-a),
                  for a non-decreasing slot |x|**a, so positive `a` is the
                  natural parameter in both roles.
    powlog(a,b)   power-log weight, same sign convention, log factor
                  log(e+|x|)**(-b) (resp. **b).  It is monotone iff a b >= 0
                  or |b| h* <= |a| (|a|/d in ball-measure coordinates),
                  h* = 0.31784 the peak of s / ((e+s) log(e+s))
                  (``Piece.values_monotone``): powlog(1,-1/10) is,
                  powlog(1/4,-1) is not and has no exact rearrangement.
    ind(R)        indicator of the ball of radius R (non-increasing only).
    table(path)   radial profile loaded from a step-function CSV.

A trailing `@d=<n>` selects the ambient dimension (default 1).  Lebesgue
measure is normalized so the unit ball has measure 1; the half-line profile
of a radial function is h(t) = h0(t**(1/d)).

Exponents follow the exponent rule of ``exponents`` (always Fractions), so
downstream finiteness decisions are exact.  A WeightSpec and the parser
need only the standard library: numpy and ``pieces`` load when a profile
is built or a table is read, so the command line checks its weights before
numpy loads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .exponents import Exponent, as_exp, parse_exp

if TYPE_CHECKING:
    from .pieces import StepFunction

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"


@dataclass(frozen=True)
class WeightSpec:
    family: str  # "power" | "powerlog" | "indicator" | "table" | "one"
    direction: str
    a: Exponent = 0
    b: Exponent = 0
    radius: float = 1.0
    table: Optional[StepFunction] = None
    d: int = 1

    def __post_init__(self) -> None:
        if self.family not in ("power", "powerlog", "indicator", "table", "one"):
            raise ValueError(f"unknown weight family {self.family!r}")
        if self.direction not in (NONINCREASING, NONDECREASING):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "a", as_exp(self.a))
        object.__setattr__(self, "b", as_exp(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("weight exponents must be finite")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("indicator radius must be positive and finite")
        if self.family == "indicator" and self.direction != NONINCREASING:
            raise ValueError("indicator weights must be non-increasing")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def one(direction: str = NONINCREASING, d: int = 1) -> "WeightSpec":
        return WeightSpec("one", direction, d=d)

    @staticmethod
    def power(a: Exponent, direction: str = NONINCREASING, d: int = 1) -> "WeightSpec":
        return WeightSpec("power", direction, a=a, d=d)

    @staticmethod
    def powerlog(a: Exponent, b: Exponent, direction: str = NONINCREASING,
                 d: int = 1) -> "WeightSpec":
        return WeightSpec("powerlog", direction, a=a, b=b, d=d)

    @staticmethod
    def indicator(R: float, d: int = 1) -> "WeightSpec":
        return WeightSpec("indicator", NONINCREASING, radius=float(R), d=d)

    @staticmethod
    def from_table(table: StepFunction, direction: str, d: int = 1) -> "WeightSpec":
        return WeightSpec("table", direction, table=table, d=d)

    # -- radial profile ---------------------------------------------------
    def signed_exponents(self) -> tuple[Exponent, Exponent]:
        """Literal (decay) exponents of the r-profile: w0(r) ~ r**(-a')."""
        sign = 1 if self.direction == NONINCREASING else -1
        return (self.a * sign, self.b * sign)

    def profile(self) -> StepFunction:
        """The radial profile r -> w0(r) as a function on (0, inf)."""
        from .pieces import StepFunction
        if self.family == "one":
            return StepFunction.constant(1.0)
        if self.family == "power":
            ad, _ = self.signed_exponents()
            return StepFunction.power(1.0, ad)
        if self.family == "powerlog":
            ad, bd = self.signed_exponents()
            return StepFunction.power(1.0, ad, bd)
        if self.family == "indicator":
            return StepFunction.indicator(self.radius)
        assert self.table is not None
        return self.table

    def halfline_profile(self) -> StepFunction:
        """t -> w0(t**(1/d)): the profile in ball-measure coordinates.

        Exact for power and table pieces; for power-log pieces in d > 1 the
        log factor is replaced by its asymptotic equivalent
        d**b * log(e+t)**(-b) (same head, same tail exponents).
        """
        return radial_map(self.profile(), self.d)

    def is_monotone_valid(self) -> bool:
        """Does the profile actually have the declared monotonicity?"""
        prof = self.profile()
        if self.direction == NONINCREASING:
            return prof.is_nonincreasing()
        return prof.pow_compose(-1).is_nonincreasing()

    def evaluate(self, r):
        """Value at radius r >= 0 (the profile's right limit at r = 0).
        r may be an array: the profile is built once for the whole grid."""
        import numpy as np
        vals = self.profile().at(r)
        return vals if np.ndim(r) else float(vals)

    # -- textual format ---------------------------------------------------
    def format(self) -> str:
        if self.family == "one":
            core = "pow(0)"
        elif self.family == "power":
            core = f"pow({self.a})"
        elif self.family == "powerlog":
            core = f"powlog({self.a},{self.b})"
        elif self.family == "indicator":
            core = f"ind({self.radius:g})"
        else:
            core = "table(...)"
        return core if self.d == 1 else f"{core}@d={self.d}"


def radial_map(profile: StepFunction, d: int) -> StepFunction:
    """Profile of a radial function in ball-measure coordinates t = r**d."""
    if d == 1:
        return profile
    from .pieces import Piece, StepFunction
    out = []
    for p in profile.pieces:
        lo, hi = p.lo ** d, (p.hi ** d if math.isfinite(p.hi) else math.inf)
        if p.coef == 0.0 or (p.a == 0 and p.b == 0):
            out.append(Piece(lo, hi, p.offset, p.coef, 0.0, 0, 0))
        elif p.shift == 0.0:
            # c * r**a -> c * t**(a/d); log(e+r)**b -> ~ d**(-b) log(e+t)**b
            coef = p.coef * (float(d) ** (-float(p.b)) if p.b != 0 else 1.0)
            out.append(Piece(lo, hi, p.offset, coef, 0.0, p.a / d, p.b))
        else:
            raise NotImplementedError("radial map of shifted pieces")
    return StepFunction(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_DSL_RE = re.compile(
    r"^\s*(?P<fam>pow|powlog|ind|table)\s*\(\s*(?P<args>[^)]*)\)\s*"
    r"(?:@d=(?P<d>\d+))?\s*$")


def parse_weight(text: str, direction: str = NONINCREASING,
                 d: Optional[int] = None) -> WeightSpec:
    """Parse a weight description like `pow(1/4)@d=2` or `table(w.csv)`;
    d (default 1) is the dimension of a description without `@d=`."""
    m = _DSL_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse weight {text!r}")
    fam = m.group("fam")
    d = int(m.group("d")) if m.group("d") else (1 if d is None else d)
    args = [a for a in m.group("args").split(",") if a.strip()]
    if fam == "pow":
        (a,) = args
        a = parse_exp(a)
        if a == 0:
            return WeightSpec.one(direction, d)
        return WeightSpec.power(a, direction, d)
    if fam == "powlog":
        a, b = args
        return WeightSpec.powerlog(parse_exp(a), parse_exp(b), direction, d)
    if fam == "ind":
        (r,) = args
        return WeightSpec.indicator(float(parse_exp(r)), d)
    (path,) = args
    from .pieces import StepFunction
    return WeightSpec.from_table(StepFunction.from_csv(path.strip()),
                                 direction, d)
