"""Extended non-negative reals with explicit finiteness certificates.

Every quantity that can diverge is reported as an ExtReal carrying one of
three states: a finite value, a certified divergence (with a human-readable
reason), or an indeterminate marker for cases the symbolic analysis cannot
decide.  Plain floats never encode infinity in public results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

FINITE = "finite"
INFINITE = "infinite"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ExtReal:
    state: str
    value: float = math.nan
    reason: str = ""

    def __post_init__(self) -> None:
        if self.state not in (FINITE, INFINITE, INDETERMINATE):
            raise ValueError(f"bad state {self.state!r}")
        if self.state == FINITE and not math.isfinite(self.value):
            raise ValueError(f"finite ExtReal with value {self.value}")

    # -- constructors -------------------------------------------------
    @staticmethod
    def finite(value: float) -> "ExtReal":
        return ExtReal(FINITE, float(value))

    @staticmethod
    def infinite(reason: str = "") -> "ExtReal":
        return ExtReal(INFINITE, math.inf, reason)

    @staticmethod
    def indeterminate(reason: str = "") -> "ExtReal":
        return ExtReal(INDETERMINATE, math.nan, reason)

    # -- predicates ---------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.state == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.state == INFINITE

    # -- arithmetic (non-negative semantics) --------------------------
    def __add__(self, other: "ExtReal") -> "ExtReal":
        if INDETERMINATE in (self.state, other.state):
            reason = self.reason or other.reason
            return ExtReal.indeterminate(reason)
        if self.is_infinite or other.is_infinite:
            return ExtReal.infinite(self.reason or other.reason)
        return ExtReal.finite(self.value + other.value)

    def __mul__(self, other: "ExtReal") -> "ExtReal":
        if INDETERMINATE in (self.state, other.state):
            return ExtReal.indeterminate(self.reason or other.reason)
        if self.is_infinite:
            if other.is_finite and other.value == 0.0:
                return ExtReal.indeterminate("0 * inf")
            return ExtReal.infinite(self.reason)
        if other.is_infinite:
            if self.value == 0.0:
                return ExtReal.indeterminate("0 * inf")
            return ExtReal.infinite(other.reason)
        return ExtReal.finite(self.value * other.value)

    def powf(self, e: float) -> "ExtReal":
        """self ** e for a finite real exponent e."""
        e = float(e)
        if self.state == INDETERMINATE:
            return self
        if e == 0.0:
            return ExtReal.finite(1.0)
        if self.is_infinite:
            if e > 0:
                return ExtReal.infinite(self.reason)
            return ExtReal.finite(0.0)
        if self.value == 0.0 and e < 0:
            return ExtReal.infinite("0 ** negative")
        return ExtReal.finite(self.value ** e)

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"state": self.state}
        if self.is_finite:
            out["value"] = self.value
        elif self.reason:
            out["reason"] = self.reason
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_finite:
            return f"ExtReal({self.value:.6g})"
        return f"ExtReal({self.state}{', ' + self.reason if self.reason else ''})"


def json_float(x: float) -> float | dict[str, Any]:
    """x for a JSON report, which has no Infinity or NaN: x when finite,
    else the JSON form of an infinite (for NaN, indeterminate) ExtReal."""
    if math.isfinite(x):
        return x
    return (ExtReal.indeterminate() if math.isnan(x)
            else ExtReal.infinite()).to_json()
