"""Certified saddle points, variational inequalities and best-approximation
points on small balls.

The library solves regularized convex-concave saddle problems on
ball(r) x T in finite dimension, then certifies stronger conclusions that
hold when r is below an admissible radius computed from the problem
constants: the solution sits exactly on the sphere, variational
inequalities hold in a double strict form, and for approximation payoffs
the saddle collapses onto the unique best-approximation point.

Everything is deterministic for a fixed seed, and every solver answer is
cross-checkable: sampled margin checks travel with the solution, and
independent brute-force oracles (dense grids, fixed-point iteration) live
in ``ballsaddle.oracles``.
"""

from .ba import ba_small_radius, check_nearest_point, solve_best_approx, solve_prox_pair
from .catalog import (AnalyticConstants, Payoff, SmoothMap, ba_payoff,
                      make_affine, make_constant, make_quadratic, map_from_dict,
                      shift_map, validate_map, validate_payoff, vi_payoff)
from .constants import (CertFlag, CertValue, ConstantsReport, ba_report, combine_flags,
                        delta_const, estimate_lipschitz, estimate_theta, min_residual,
                        op_norm, vi_report)
from .errors import (BallSaddleError, CertificationError, ConfigError, DimensionMismatch,
                     HypothesisViolation, InvalidInput, NonConvergence)
from .geometry import (Ball, Box, ConvexSet, ProjectionOracle, dist_ball, norm,
                       project_ball, sample_ball, sample_sphere)
from .saddle import (Certificate, CheckReport, SaddleChecks, SaddleConfig, SaddlePoint,
                     check_saddle, phi_value_grad, run_saddle, solve_saddle)
from .vi import SmallRadiusResult, check_vi, small_radius, solve_vi, solve_vi_shifted

__version__ = "0.1.0"

__all__ = [
    "AnalyticConstants", "Ball", "BallSaddleError", "Box", "CertFlag", "CertValue",
    "Certificate", "CertificationError", "CheckReport", "ConfigError", "ConstantsReport",
    "ConvexSet", "DimensionMismatch", "HypothesisViolation", "InvalidInput", "NonConvergence",
    "Payoff", "ProjectionOracle", "SaddleChecks", "SaddleConfig", "SaddlePoint",
    "SmallRadiusResult", "SmoothMap", "ba_payoff", "ba_report", "ba_small_radius",
    "check_nearest_point", "check_saddle", "check_vi", "combine_flags", "delta_const",
    "dist_ball", "estimate_lipschitz", "estimate_theta", "make_affine", "make_constant",
    "make_quadratic", "map_from_dict", "min_residual", "norm", "op_norm", "phi_value_grad",
    "project_ball", "run_saddle", "sample_ball", "sample_sphere", "shift_map", "small_radius",
    "solve_best_approx", "solve_prox_pair", "solve_saddle", "solve_vi", "solve_vi_shifted",
    "validate_map", "validate_payoff", "vi_payoff", "vi_report",
]
