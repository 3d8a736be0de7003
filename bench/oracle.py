"""Reference values and checks for the benchmark's outputs.

Closed forms are used wherever one exists; every other finite constant is
pinned to the value the seed commit computed.  Tolerances come from the
test suite where it fixes one, and otherwise are 1e-8 relative for closed
forms and 1e-6 relative for pinned values (the agreement the ROADMAP asks
of any change to the quadrature layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

CLOSED_TOL = 1e-8
PINNED_TOL = 1e-6

# seed values of the deep-quadrature regimes (ind(1) against pow(gamma))
PINNED_III = 2.73676007331062        # pow(1/2), p=3, q=1
PINNED_IV = 3.3957851450627903       # pow(3/4), p=inf, q=1
PINNED_V = 1.3865871452054561        # pow(1/4), p=3/2, q=1/2

# seed values of hardy_K on the fixed problems of workloads.hardy_problems
PINNED_HARDY = {"head_sum": 2.421875, "head_integral": 0.7499999999998931,
                "tail_integral": 0.9999999999952515,
                "reverse": 0.6862915010152394}
HARDY_BAND = 8.0       # brute force / K within [1/8, 8], as in the suite

PINNED_OPTIMAL_Y_Q1 = 0.49999999999873956  # f = ind(1), u = ind(1), q = 1
EXPL_TOL = 1e-5        # suite tolerance for the exp-L box pair

JOINT_TYPE_PIN = 0.6186  # suite pin for bestK, +-10%
JOINT_TYPE_BAND = 0.10
BRACKET_BAND = 1.5       # lower <= BAND * upper, as in the suite


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""
    ok: bool
    detail: str = ""
    rel_err: float | None = None  # deviation of a finite constant


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def close(value: float, ref: float, tol: float, what: str = "value"
          ) -> Verdict:
    """A finite value within tol (relative) of its reference."""
    if not math.isfinite(value):
        return Verdict(False, f"{what} {value!r} is not finite (ref {ref!r})")
    err = rel_err(value, ref)
    if err > tol:
        return Verdict(False, f"{what} {value!r} vs reference {ref!r}", err)
    return Verdict(True, "", err)


def extreal_close(x, ref: float, tol: float, what: str = "constant"
                  ) -> Verdict:
    """An ExtReal that is certified finite and close to ref."""
    if not x.is_finite:
        return Verdict(False, f"{what} is {x.state}, expected {ref!r}")
    return close(x.value, ref, tol, what)


def infinite(x, what: str = "constant") -> Verdict:
    """An ExtReal certified infinite."""
    if not x.is_infinite:
        return Verdict(False, f"{what} is {x.state}, expected infinite")
    return Verdict(True)


def certificate(x, holds) -> Verdict:
    """No reference: the answer must be a consistent certificate, a
    positive finite value with holds true or infinite with holds false."""
    if x.is_finite:
        ok = holds is True and math.isfinite(x.value) and x.value > 0
    else:
        ok = x.is_infinite and holds is False
    return Verdict(ok, "" if ok else
                   f"inconsistent certificate {x.state} {x.value!r} "
                   f"with holds={holds!r}")


# -- closed forms -------------------------------------------------------------

def pitt_holds(p: Fraction, q: Fraction, alpha: Fraction, lam: Fraction
               ) -> bool:
    """u = |x|^-lam, v = |x|^alpha (lam = 1/p + 1/q + alpha - 1): the
    inequality holds iff p <= q, 0 <= alpha < 1/p' and 0 <= lam < 1/q."""
    return p <= q and 0 <= alpha < 1 - 1 / p and 0 <= lam < 1 / q


def pitt_constant(p, q, alpha, lam) -> float:
    """The governing constant C3 of a holding power-weight pair: the sup
    form is constant in s, (1 - lam q)^(-1/q) (1 - alpha p')^(-1/p')."""
    pp = p / (p - 1)
    return (float(1 - lam * q) ** (-1 / float(q))
            * float(1 - alpha * pp) ** (-1 / float(pp)))


def indicator_power_constant(R: float, gamma, p, q) -> float:
    """C4 for u = ind(R), v = pow(gamma) with 1 <= q < p < inf:

    C4(1)^r = (1 - gamma p')^(-r/p') / (1 + r/p - (r/p')(1 - gamma p')),
    and C4(R) = R^(gamma + 1/p + 1/q - 1) C4(1) by dilation.  At gamma = 1/4,
    p = 3, q = 2 this is 13.1072^(1/6)."""
    p, q, gamma = Fraction(p), Fraction(q), Fraction(gamma)
    r = 1 / (1 / q - 1 / p)
    pp = p / (p - 1)
    base = 1 - gamma * pp
    c1 = (float(base) ** float(-r / pp)
          / float(1 + r / p - (r / pp) * base)) ** float(1 / r)
    return float(R) ** float(gamma + 1 / p + 1 / q - 1) * c1


def table_product_constant(scale: float, p, q) -> float:
    """||u||_q ||1/v||_(p') for u = ind(1) and the table weight v = scale on
    (0, scale), scale * t beyond (p = 1 or q = inf, where it is sharp)."""
    unorm = 1.0  # ind(1) has sup 1 and L^q norm 1 on the half-line
    if p == 1:
        return unorm / scale
    pp = float(Fraction(p) / (Fraction(p) - 1))
    inner = scale ** (1 - pp) + scale ** (1 - 2 * pp) / (pp - 1)
    return unorm * inner ** (1 / pp)
