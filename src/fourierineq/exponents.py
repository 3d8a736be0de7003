"""Exponents: the exponent rule, its parser and helpers, and the exponent
pair (p, q) of a problem.

The exponent rule: every exponent slot (Piece, TailSpec, WeightSpec, Asym,
ExponentConfig) is normalized at construction by ``as_exp`` and holds a
Fraction (ExponentConfig's p and q may also be math.inf).  An int becomes a
Fraction, a string goes through ``parse_exp``, and a finite float becomes
the simplest fraction with denominator at most 10**12 that converts back to
exactly that float, or else its exact binary value.  Exponent arithmetic and
every finiteness or limit decision (comparisons against -1 and 0) are
therefore exact; exponents become floats only to evaluate powers.

This module needs only the standard library, so the command line checks
every exponent it is given before numpy loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union

Exponent = Union[Fraction, float]  # a float exponent is math.inf


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


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent pair (p, q) with ambient dimension d.

    Exponents are exact rationals (or inf); regime boundaries are decided
    exactly.  Requires p >= 1 and q > 0.
    """

    p: Exponent
    q: Exponent
    d: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", as_exp(self.p))
        object.__setattr__(self, "q", as_exp(self.q))
        if not is_inf(self.p) and self.p < 1:
            raise ValueError("p < 1 is not supported")
        if not is_inf(self.q) and self.q <= 0:
            raise ValueError("q must be positive")
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    # -- derived exponents ----------------------------------------------
    @property
    def p_prime(self) -> Exponent:
        return conjugate(self.p)

    @property
    def q_prime(self) -> Exponent:
        if not is_inf(self.q) and self.q < 1:
            raise ValueError("conjugate undefined for q < 1")
        return conjugate(self.q)

    @property
    def r(self) -> Exponent:
        """1/r = 1/q - 1/p, defined for q < p."""
        if is_inf(self.q) or (not is_inf(self.p) and self.q >= self.p):
            raise ValueError("r is defined only for q < p")
        if is_inf(self.p):
            return self.q
        return 1 / (1 / self.q - 1 / self.p)

    @property
    def q_sharp(self) -> Exponent:
        """1/q# = |1/2 - 1/q|; infinite exactly at q = 2."""
        return sharp(self.q)

    @property
    def p_sharp(self) -> Exponent:
        return sharp(self.p)

    def to_json(self) -> dict[str, Any]:
        fmt = lambda x: "inf" if is_inf(x) else str(x)
        return {"p": fmt(self.p), "q": fmt(self.q), "d": self.d}
