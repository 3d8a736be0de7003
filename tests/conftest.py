import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from fourierineq.hardy import (HEAD_INTEGRAL, HEAD_SUM, REVERSE,
                               TAIL_INTEGRAL, HardyProblem)
from fourierineq.pieces import StepFunction, TailSpec


def random_cells(rng: np.random.Generator, max_cells: int = 12,
                 allow_ties: bool = True) -> StepFunction:
    """A random compact non-negative step function on (0, inf)."""
    n = int(rng.integers(1, max_cells + 1))
    edges = np.unique(rng.uniform(0.0, 10.0, size=n + 1))
    while len(edges) < 2:
        edges = np.unique(rng.uniform(0.0, 10.0, size=n + 1))
    edges[0] = 0.0
    vals = rng.uniform(0.0, 5.0, size=len(edges) - 1)
    if allow_ties and len(vals) > 2 and rng.random() < 0.5:
        vals[1] = vals[0]
    return StepFunction.from_cells(edges.tolist(), vals.tolist())


def random_power_step(rng: np.random.Generator, cells: int,
                      tail: Fraction | None,
                      lead: Fraction | None) -> StepFunction:
    """cells random constant cells on (0, 5), then, with a tail exponent
    a, c * t**-a beyond the last cell, and with a lead exponent b, the
    first cell as v * t**-b."""
    edges = np.unique(rng.uniform(0.0, 5.0, size=cells + 1))
    edges[0] = 0.0
    vals = rng.uniform(0.0, 3.0, size=len(edges) - 1)
    if len(vals) > 2 and rng.random() < 0.3:
        vals[2] = vals[1]
    if tail is not None:
        vals = np.append(vals, rng.uniform(0.1, 3.0))
    return StepFunction.from_cells(
        edges.tolist(), vals.tolist(),
        TailSpec.zero() if tail is None else TailSpec.power(tail),
        None if lead is None else TailSpec.power(lead))


def decimal_integral(f: StepFunction, x0: float, x1: float) -> float:
    """integral_{x0}^{x1} f for f of pieces without a log factor: each
    piece's part over its share (a, b) of (x0, x1), offset (b - a) +
    c ((b - shift)**(a+1) - (a - shift)**(a+1)) / (a+1), or
    c log((b - shift) / (a - shift)) at a = -1, summed in 30-digit decimal
    arithmetic from the float ends and parameters and the exact exponents;
    inf where a part diverges (decimal's inf, or its nan of inf - inf)."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        ctx.traps[decimal.DivisionByZero] = False
        ctx.traps[decimal.InvalidOperation] = False
        total = D(0)
        for p in f.pieces:
            a, b = max(x0, p.lo), min(x1, p.hi)
            if b <= a:
                continue
            assert p.b == 0 or p.coef == 0.0, "closed-form pieces only"
            if p.offset:
                total += D(p.offset) * (D(b) - D(a))
            if p.coef:
                s0, s1 = max(D(a) - D(p.shift), D(0)), D(b) - D(p.shift)
                a1 = p.a + 1
                if a1 == 0:
                    total += D(p.coef) * (s1 / s0).ln()
                else:
                    e = D(a1.numerator) / D(a1.denominator)
                    total += D(p.coef) * (s1 ** e - s0 ** e) / e
        return math.inf if total.is_nan() else float(total)


def measure_above(f: StepFunction, lam: float) -> float:
    """|{f > lam}| as the fsum of each piece's exact measure: a constant
    cell's width where its level exceeds lam, and for a decreasing power
    piece offset + c*(t-shift)**a the length of
    (lo, clamp(shift + ((lam-offset)/c)**(1/a), lo, hi)); inf where an
    infinite piece counts whole."""
    parts = []
    for p in f.pieces:
        if p.is_constant:
            parts.append(p.hi - p.lo if p.const_value > lam else 0.0)
        elif lam <= p.offset:
            parts.append(p.hi - p.lo)
        else:
            assert p.a < 0 and p.b == 0, "helper expects decreasing powers"
            cut = p.shift + ((lam - p.offset) / p.coef) ** (1.0 / float(p.a))
            parts.append(min(max(cut, p.lo), p.hi) - p.lo)
    return math.fsum(parts)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _random_hardy_step(rng, decay=None, cells=4):
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 5.0, cells))])
    vals = rng.uniform(0.2, 2.0, cells)
    if decay is not None:
        vals = np.append(vals, rng.uniform(0.2, 2.0))
        return StepFunction.from_cells(edges.tolist(), vals.tolist(),
                                       tail=TailSpec.power(decay))
    return StepFunction.from_cells(edges.tolist(), vals.tolist())


def random_hardy_problems(kind, rng, n=20):
    """n random Hardy problems of one kind: random weight sequences, or
    step weights of 4 cells with power tails where a form needs them."""
    out = []
    for _ in range(n):
        if kind == HEAD_SUM:
            m = int(rng.integers(3, 8))
            out.append(HardyProblem(HEAD_SUM, 1.0, 0.5,
                                    u_seq=rng.uniform(0.1, 1.0, m),
                                    v_seq=rng.uniform(0.5, 2.0, m)))
        elif kind == HEAD_INTEGRAL:
            out.append(HardyProblem(kind, 2.0, 2.0,
                                    u_w=_random_hardy_step(rng, decay=3.0),
                                    v_w=_random_hardy_step(rng, decay=-1.0)))
        elif kind == TAIL_INTEGRAL:
            out.append(HardyProblem(kind, 2.0, 2.0,
                                    u_w=_random_hardy_step(rng),
                                    v_w=_random_hardy_step(rng, decay=-2.0)))
        else:
            out.append(HardyProblem(REVERSE, 1.0, 0.5,
                                    w=_random_hardy_step(rng),
                                    nu=StepFunction.power(1.0, -1)))
    return out
