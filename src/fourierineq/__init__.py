"""Weighted Fourier-inequality toolkit.

Evaluates and classifies inequalities ||u * Tf||_q <= C ||f * v||_p for
monotone radial weights via rearrangement criteria, computes the associated
Hardy-type characterization constants and optimal-space norms, and brackets
optimal constants empirically with a discretized transform and constructive
test functions.
"""

from .extreal import ExtReal
from .pieces import Grid, Piece, StepFunction, TailSpec
from .weights import (NONDECREASING, NONINCREASING, WeightSpec, parse_weight)
from .rearrange import circ_profile, distribution, double_star, hl_pairing, \
    lower_star, star
from .criteria import (CriterionReport, ExponentConfig, classify, conjugate,
                       dual_config, evaluate)
from .hardy import (HEAD_INTEGRAL, HEAD_SUM, REVERSE, TAIL_INTEGRAL,
                    HardyProblem, brute_force_K, hardy_K, reverse_hardy_K)
from .calderon import DominationCert, dominates, phi, psi, verify_joint_type
from .norms import (SequenceData, bochkarev_norm, dyadic_block_norms,
                    expL_pair, gamma_norm, llogl_norm, morrey_optimal_norm,
                    optimal_Y_norm, theta_norm)
from .extremal import (ConstantBracket, SampledSignal, best_random_ratio,
                       block_l2_condition, bracket_constant,
                       cube_pair_condition, dft, lower_bound_annuli,
                       lower_bound_translates, ratio, random_band_limited,
                       step_profile, symmetric_block_condition,
                       weighted_norm)

__version__ = "0.1.0"

__all__ = [
    "ExtReal", "Grid", "Piece", "StepFunction", "TailSpec",
    "WeightSpec", "parse_weight", "NONINCREASING", "NONDECREASING",
    "star", "lower_star", "circ_profile", "distribution", "double_star",
    "hl_pairing",
    "ExponentConfig", "CriterionReport", "classify", "conjugate",
    "evaluate", "dual_config",
    "HardyProblem", "hardy_K", "reverse_hardy_K", "brute_force_K",
    "HEAD_SUM", "HEAD_INTEGRAL", "TAIL_INTEGRAL", "REVERSE",
    "DominationCert", "psi", "phi", "dominates", "verify_joint_type",
    "SequenceData", "theta_norm", "gamma_norm", "bochkarev_norm",
    "dyadic_block_norms", "optimal_Y_norm", "morrey_optimal_norm",
    "expL_pair", "llogl_norm",
    "SampledSignal", "dft", "ratio", "weighted_norm", "step_profile",
    "random_band_limited", "best_random_ratio", "lower_bound_translates",
    "lower_bound_annuli",
    "cube_pair_condition", "block_l2_condition",
    "symmetric_block_condition", "bracket_constant", "ConstantBracket",
]
