import math

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


def measure_above(f: StepFunction, lam: float) -> float:
    """|{f > lam}| for compact step data, exact up to fsum rounding."""
    widths = []
    for p in f.pieces:
        if not p.is_constant:
            raise AssertionError("helper expects constant cells")
        if math.isfinite(p.hi) and p.const_value > lam:
            widths.append(p.hi - p.lo)
        elif not math.isfinite(p.hi) and p.const_value > lam:
            return math.inf
    return math.fsum(widths)


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
