"""Rearrangement criteria for the weighted transform-norm inequality

    || u * Ff ||_q  <=  C * || f * v ||_p

with u radial non-increasing and v radial non-decreasing.  The governing
quantities are built from the half-line rearrangements u* (non-increasing)
and v_* (non-decreasing):

    U(t)   = integral_0^t u*(s)**q ds
    V(t)   = integral_0^t v_*(s)**p ds
    xi(t)  = U(t) + t**(q/2) * (integral_t^inf u*(s)**qs ds)**(q/qs)

where qs = 2q/(2-q) for q < 2 and ps = 2p/(p-2) for p > 2.  Five exponent
regimes carry different equivalent constants (C3 sup-form for p <= q, C4
integral form, and corrections C6/C7/C9 below two); q = infinity and p = 1
degenerate to the product constant ||u||_q * ||1/v||_{p'}, which is sharp
there.  Finiteness of every constant is certified symbolically; values are
computed by certified quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

# ExponentConfig and conjugate keep their import path criteria.<name>
from .exponents import Exponent, ExponentConfig, conjugate, is_inf
from .extreal import ExtReal
from .hardy import integral_form, sup_form
from .pieces import StepFunction
from .rearrange import circ_profile, lower_star
from .symfunc import Divergence, SymFunc, guarded
from .weights import WeightSpec, NONINCREASING, NONDECREASING

REGIME_DEG_QINF = "degenerate-q-infinity"
REGIME_DEG_P1 = "degenerate-p-one"
REGIME_I = "I"
REGIME_II = "II"
REGIME_III = "III"
REGIME_IV = "IV"
REGIME_V = "V"

# the key of each regime's governing constant (C5 = C4 + C6, C8 = C4 + C9)
_GOVERNING = {REGIME_DEG_QINF: "degenerate", REGIME_DEG_P1: "degenerate",
             REGIME_I: "C3", REGIME_II: "C4", REGIME_III: "C5",
             REGIME_IV: "C7", REGIME_V: "C8"}


def classify(cfg: ExponentConfig) -> str:
    """Exponent regime; boundary cases are decided exactly.

    The overlap q < 1 < 2 < p < inf is classified as III (the correction
    term there is the v-side one).
    """
    p, q = cfg.p, cfg.q
    if is_inf(q):
        return REGIME_DEG_QINF
    if p == 1:
        return REGIME_DEG_P1
    if is_inf(p):
        if q >= 2:
            return REGIME_II
        return REGIME_IV
    if p <= q:
        return REGIME_I
    # q < p from here on
    if q >= 1 and (q >= 2 or cfg.p_prime >= 2):
        return REGIME_II
    if q < 2 and p > 2:
        return REGIME_III
    # remaining: q < 1 and p <= 2
    return REGIME_V


def check_dimension(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> None:
    """The one ambient dimension of a problem: ValueError unless u, v and
    the config share their d."""
    if not u.d == v.d == cfg.d:
        raise ValueError(f"u, v and the exponents must share one dimension, "
                         f"got d = {u.d}, {v.d} and {cfg.d}")


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def ustar_profile(u: WeightSpec) -> StepFunction:
    """u* in ball-measure half-line coordinates (``circ_profile``); raises
    Divergence when u* is infinite, on (0, a) or everywhere, the one place
    that decides it.  Star lays an infinite level out first, as a leading
    run of pieces (one per infinite cell), so u* is infinite up to the
    first finite piece."""
    prof = circ_profile(u)
    hi = next((p.lo for p in prof.pieces if not math.isinf(p.offset)),
              math.inf)
    if hi == 0.0:
        return prof
    if math.isinf(hi):
        raise Divergence("u* is identically infinite (u is not dominated by "
                         "a non-increasing radial weight)")
    raise Divergence(f"u* is infinite on (0, {hi:.6g}) (u is infinite "
                     "on a set of that measure)")


def ustar_sym(u: WeightSpec, power: Exponent) -> SymFunc:
    """u*(t)**power as a SymFunc; raises Divergence when u* is identically inf."""
    return SymFunc.from_step(ustar_profile(u).pow_compose(power))


def _vstar_sym(v: WeightSpec, power: Exponent) -> SymFunc:
    """v_*(t)**power (power is typically negative); Divergence when v_* = 0,
    and for a negative power when v_* vanishes on an interval (0, a)."""
    prof = lower_star(v)
    if prof.support_bound() == 0.0:
        raise Divergence("v_* vanishes identically (v is not bounded below "
                         "by a positive non-decreasing radial weight)")
    first = prof.pieces[0]
    if power < 0 and first.is_constant and first.const_value == 0.0:
        raise Divergence(f"v_* vanishes on (0, {first.hi:.6g}), so "
                         f"v_***({power}) is infinite there")
    return SymFunc.from_step(prof.pow_compose(power))


def U_func(u: WeightSpec, cfg: ExponentConfig) -> SymFunc:
    """U(t) = integral_0^t u*(s)**q ds; raises Divergence when U = inf."""
    return ustar_sym(u, cfg.q).antiderivative()


def xi_func(u: WeightSpec, cfg: ExponentConfig) -> SymFunc:
    """xi(t) = U(t) + t**(q/2) (int_t^inf u*(s)**qs ds)**(q/qs), q < 2."""
    q = cfg.q
    if is_inf(q) or q >= 2:
        raise ValueError("xi is defined for q < 2")
    qs = cfg.q_sharp
    U = U_func(u, cfg)
    tail = ustar_sym(u, qs).tail_integral()  # Divergence if infinite
    bump = SymFunc.power(1.0, q / 2).mul(tail.pow(q / qs))
    return U.add(bump)


def w_inner_weight(u: WeightSpec, cfg: ExponentConfig) -> SymFunc:
    """w(t) = u*(t)**q (U(t) / xi(t))**(qs/2) t**(-q/2).  U <= xi, so the
    power of the ratio stays at most 1 however large qs is."""
    q, qs = cfg.q, cfg.q_sharp
    uq = ustar_sym(u, q)
    U = U_func(u, cfg)
    xi = xi_func(u, cfg)
    return (uq.mul(U.mul(xi.pow(-1)).pow(qs / 2))
            .mul(SymFunc.power(1.0, -q / 2)))


def _inv_vstar_sup(v: WeightSpec) -> float:
    """The sup-norm of 1/v_*, its limit at 0+ because v_* is
    non-decreasing: the p' = inf factor of the p = 1 constants; raises
    Divergence where it is infinite."""
    lim = lower_star(v).pieces[0].limit_at(0.0)
    if lim == 0.0:
        raise Divergence("1/v_* is unbounded near 0 (p' = inf sup-norm)")
    return 1.0 / lim


def W_func(v: WeightSpec, cfg: ExponentConfig) -> SymFunc:
    """W(s) = integral_0^{1/s} v_*(t)**(-p') dt.

    For p = 1 the inner quantity is read as the sup-norm of 1/v_* on
    (0, 1/s), the constant ``_inv_vstar_sup``; divergence of it raises.
    """
    if cfg.p == 1:
        return SymFunc.constant(_inv_vstar_sup(v))
    pp = cfg.p_prime
    return _vstar_sym(v, -pp).antiderivative().pow_arg(-1)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def C3(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """sup_s U(s)**(1/q) (int_0^{1/s} v_***(-p'))**(1/p'), for p <= q."""
    return guarded(lambda: sup_form(U_func(u, cfg), W_func(v, cfg),
                                    cfg.p, cfg.q))


def C4(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """Integral-form constant for q < p:

    ( int u*(s)**q U(s)**(r/p) (int_0^{1/s} v_***(-p'))**(r/p') ds )**(1/r).
    """
    def compute() -> ExtReal:
        uq = ustar_sym(u, cfg.q)
        return integral_form(uq, uq.antiderivative(), W_func(v, cfg),
                             cfg.p, cfg.r)
    return guarded(compute)


def C6(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """v-side correction for q < 2 < p < inf (regime III)."""
    def compute() -> ExtReal:
        r, ps, p = cfg.r, cfg.p_sharp, cfg.p
        w = w_inner_weight(u, cfg).tabulated()
        Tw = w.tail_integral()
        vsym_pow = _vstar_sym(v, ps * (p - 2) / 2)
        V = _vstar_sym(v, p).antiderivative()
        g = (SymFunc.power(1.0, ps / 2).mul(vsym_pow)
             .mul(V.tabulated().pow(-ps / 2)))
        inner2 = g.tail_integral().pow_arg(-1)
        integrand = w.mul(Tw.tabulated().pow(r / p)).mul(
            inner2.tabulated().pow(r / ps))
        return integrand.integral().powf(1.0 / float(r))
    return guarded(compute)


def C7(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """Constant for q < 2, p = inf (regime IV):

    ( int w(t) ( int_0^t ( int_0^{1/r} v_***(-1) )**2 dr )**(q/2) dt )**(1/q).
    """
    def compute() -> ExtReal:
        q = cfg.q
        w = w_inner_weight(u, cfg).tabulated()
        A1 = _vstar_sym(v, -1).antiderivative()
        inner = A1.pow_arg(-1).tabulated()
        G = inner.pow(2).antiderivative()
        integrand = w.mul(G.tabulated().pow(q / 2))
        return integrand.integral().powf(1.0 / float(q))
    return guarded(compute)


def C9(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """u-side correction for q < 1 <= p <= 2 (regime V):

    ( int w(t) (int_t^inf w)**(r/p) sup_{y >= 1/t} y**(r/2) V(y)**(-r/p) dt
    )**(1/r).
    """
    def compute() -> ExtReal:
        r, p = cfg.r, cfg.p
        w = w_inner_weight(u, cfg).tabulated()
        Tw = w.tail_integral()
        V = _vstar_sym(v, p).antiderivative()
        h = SymFunc.power(1.0, r / 2).mul(V.tabulated().pow(-r / p))
        S = h.running_sup_from().pow_arg(-1)
        integrand = w.mul(Tw.tabulated().pow(r / p)).mul(S)
        return integrand.integral().powf(1.0 / float(r))
    return guarded(compute)


def degenerate_constant(u: WeightSpec, v: WeightSpec,
                        cfg: ExponentConfig) -> ExtReal:
    """||u||_q * ||1/v||_{p'} (always an upper bound; sharp for q = inf or
    p = 1), computed in ball-measure half-line coordinates."""
    def compute() -> ExtReal:
        prof_u = ustar_profile(u)
        if is_inf(cfg.q):
            # ||u||_inf is u*(0+), as the profile u* is non-increasing
            top = prof_u.pieces[0].limit_at(0.0)
            unorm = (ExtReal.infinite("u* is unbounded near 0")
                     if math.isinf(top) else ExtReal.finite(top))
        else:
            unorm = SymFunc.from_step(
                prof_u.pow_compose(cfg.q)).integral().powf(
                    1.0 / float(cfg.q))
        if cfg.p == 1:
            vnorm = guarded(lambda: ExtReal.finite(_inv_vstar_sup(v)))
        else:
            vnorm = _vstar_sym(v, -cfg.p_prime).integral().powf(
                1.0 / float(cfg.p_prime))
        return unorm * vnorm
    return guarded(compute)


def qsharp_tail_finite(u: WeightSpec, cfg: ExponentConfig) -> ExtReal:
    """integral_1^inf u*(s)**qs ds (must be finite in regimes III/IV/V)."""
    def compute() -> ExtReal:
        prof = ustar_profile(u).pow_compose(cfg.q_sharp)
        tail = SymFunc.from_step(prof).tail
        if not tail.integrable(at_zero=False):
            return ExtReal.infinite(
                f"u*^qs ~ t**({tail.a}) log**({tail.b}) at inf")
        return prof.integrate(1.0, math.inf)
    return guarded(compute)


# ---------------------------------------------------------------------------
# report / evaluation
# ---------------------------------------------------------------------------


@dataclass
class CriterionReport:
    regime: str
    config: ExponentConfig
    u: WeightSpec
    v: WeightSpec
    constants: dict[str, ExtReal] = field(default_factory=dict)
    holds: Optional[bool] = None
    notes: list[str] = field(default_factory=list)

    @property
    def governing(self) -> ExtReal:
        """The constant equivalent to the optimal C in this regime."""
        return self.constants[_GOVERNING[self.regime]]

    def to_json(self) -> dict[str, Any]:
        return {
            "regime": self.regime,
            "config": self.config.to_json(),
            "u": self.u.format(),
            "v": self.v.format(),
            "constants": {k: c.to_json() for k, c in self.constants.items()},
            "holds": self.holds,
            "notes": self.notes,
        }


def evaluate(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig) -> CriterionReport:
    """Classify the exponent pair and evaluate the governing constants;
    ValueError unless u, v and cfg share one dimension."""
    check_dimension(u, v, cfg)
    regime = classify(cfg)
    rep = CriterionReport(regime, cfg, u, v)
    cs = rep.constants
    key = _GOVERNING[regime]
    if regime in (REGIME_DEG_QINF, REGIME_DEG_P1):
        cs[key] = degenerate_constant(u, v, cfg)
        rep.notes.append("product constant ||u||_q ||1/v||_{p'} is sharp here")
    elif regime == REGIME_I:
        cs[key] = C3(u, v, cfg)
    elif regime == REGIME_II:
        cs[key] = C4(u, v, cfg)
    else:
        # regimes III / IV / V require the q#-tail condition
        cs["qsharp_tail"] = qsharp_tail_finite(u, cfg)
        if cs["qsharp_tail"].is_infinite:
            rep.notes.append("necessary tail condition fails: "
                             "integral_1^inf u*^{q#} diverges")
            cs[key] = ExtReal.infinite("q#-tail condition fails")
        elif regime == REGIME_IV:
            cs[key] = C7(u, v, cfg)
        else:
            cs["C4"] = c4 = C4(u, v, cfg)
            corr, correction = (("C6", C6) if regime == REGIME_III
                                else ("C9", C9))
            if c4.is_infinite:
                rep.notes.append(f"{corr} not computed: C4 is infinite, so "
                                 f"{key} = C4 + {corr} is infinite")
                cs[key] = c4
            else:
                cs[corr] = correction(u, v, cfg)
                cs[key] = c4 + cs[corr]
    rep.holds = rep.governing.is_finite
    return rep


def dual_config(u: WeightSpec, v: WeightSpec, cfg: ExponentConfig
                ) -> tuple[WeightSpec, WeightSpec, ExponentConfig]:
    """The dual problem: (u, v, p, q) -> (1/v, 1/u, q', p').

    The inequality with data (u, v, p, q) holds iff the dual one does, with
    the same constant.  Requires 1 <= p, q <= inf and one dimension.
    """
    check_dimension(u, v, cfg)
    if not is_inf(cfg.q) and cfg.q < 1:
        raise ValueError("duality requires q >= 1")
    new_cfg = ExponentConfig(cfg.q_prime, cfg.p_prime, cfg.d)
    return (_reciprocal_weight(v, NONINCREASING),
            _reciprocal_weight(u, NONDECREASING), new_cfg)


def _reciprocal_weight(w: WeightSpec, new_direction: str) -> WeightSpec:
    if w.family == "one":
        return WeightSpec.one(new_direction, w.d)
    if w.family == "power":
        return WeightSpec.power(w.a, new_direction, w.d)
    if w.family == "powerlog":
        return WeightSpec.powerlog(w.a, w.b, new_direction, w.d)
    if w.family == "table":
        return WeightSpec.from_table(w.table.pow_compose(-1), new_direction,
                                     w.d)
    raise ValueError("indicator weights have no reciprocal weight "
                     "(they vanish on a set of positive measure)")
