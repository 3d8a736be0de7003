"""Weighted Fourier-inequality toolkit.

Evaluates and classifies inequalities ||u * Tf||_q <= C ||f * v||_p for
monotone radial weights via rearrangement criteria, computes the associated
Hardy-type characterization constants and optimal-space norms, and brackets
optimal constants empirically with a discretized transform and constructive
test functions.

Public names and submodules are imported on first use (PEP 562), so
``import fourierineq`` loads no numpy; ``fourierineq.evaluate`` is always
the object ``fourierineq.criteria.evaluate`` holds.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "extreal": ("ExtReal",),
    "exponents": ("ExponentConfig", "conjugate"),
    "pieces": ("Piece", "StepFunction", "TailSpec"),
    "weights": ("WeightSpec", "parse_weight", "NONINCREASING",
                "NONDECREASING"),
    "rearrange": ("star", "lower_star", "circ_profile", "distribution",
                  "double_star", "hl_pairing"),
    "criteria": ("CriterionReport", "classify", "evaluate", "dual_config"),
    "hardy": ("HardyProblem", "hardy_K", "reverse_hardy_K", "brute_force_K",
              "HEAD_SUM", "HEAD_INTEGRAL", "TAIL_INTEGRAL", "REVERSE"),
    "calderon": ("DominationCert", "psi", "phi", "dominates",
                 "verify_joint_type"),
    "norms": ("SequenceData", "theta_norm", "gamma_norm", "bochkarev_norm",
              "dyadic_block_norms", "optimal_Y_norm", "morrey_optimal_norm",
              "expL_pair", "llogl_norm"),
    "extremal": ("SampledSignal", "dft", "ratio", "weighted_norm",
                 "step_profile", "random_band_limited", "best_random_ratio",
                 "lower_bound_translates", "lower_bound_annuli",
                 "cube_pair_condition", "block_l2_condition",
                 "symmetric_block_condition", "bracket_constant",
                 "ConstantBracket"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"symfunc", "cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                       name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
