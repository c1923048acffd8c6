"""Solvers for Bayesian-persuasion-style signaling under posterior constraints.

The package computes additively near-optimal signaling schemes under ex ante
and ex post constraints via grid LPs, converts ex-ante-feasible schemes into
ex-post-feasible ones with a bounded utility loss, and ships the gap and
tightness constructions as executable fixtures.
"""

from .core import (ConstraintSpec, DimensionMismatch, InfeasibleError,
                   MaxLinearTerm, PersuasionError, Posterior, ProblemInstance,
                   ResourceLimitError, SignalingScheme, UnsupportedKindError,
                   UtilitySpec, ValidationError, VerifyReport,
                   check_bayes_plausible, eval_constraint, eval_utility,
                   full_revelation, no_revelation, scheme_expectation,
                   uniform_prior, verify_scheme)
from .auction import (AuctionSpec, BidderType, auction_utility,
                      example2_scheme, to_max_linear, verify_jensen_factor)
from .constraints import SmoothedConstraint, smooth_constraint
from .fixtures import FixtureId, build_fixture, parse_fixture_id, verify_fixture
from .geometry import SimplexGrid, build_grid, project_to_contraction
from .lp import LinearProgram, LpSolution, build_persuasion_lp, solve_lp
from .objectives import GriddedUtility, build_upper_approx
from .solver import (SolveReport, bi_criteria_solve, ex_ante_to_ex_post,
                     oracle_solve, single_criteria_solve)

__version__ = "0.1.0"

__all__ = [
    "AuctionSpec", "BidderType", "ConstraintSpec", "DimensionMismatch",
    "FixtureId", "GriddedUtility", "InfeasibleError", "LinearProgram",
    "LpSolution", "MaxLinearTerm", "PersuasionError", "Posterior",
    "ProblemInstance", "ResourceLimitError", "SignalingScheme", "SimplexGrid",
    "SmoothedConstraint", "SolveReport", "UnsupportedKindError", "UtilitySpec",
    "ValidationError", "VerifyReport", "auction_utility", "bi_criteria_solve",
    "build_fixture", "build_grid", "build_persuasion_lp", "build_upper_approx",
    "check_bayes_plausible", "eval_constraint", "eval_utility",
    "ex_ante_to_ex_post", "example2_scheme", "full_revelation",
    "no_revelation", "oracle_solve", "parse_fixture_id",
    "project_to_contraction", "scheme_expectation", "single_criteria_solve",
    "smooth_constraint", "solve_lp", "to_max_linear", "uniform_prior",
    "verify_fixture", "verify_jensen_factor", "verify_scheme",
]
