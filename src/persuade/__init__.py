"""Solvers for Bayesian-persuasion-style signaling under posterior constraints.

The package computes additively near-optimal signaling schemes under ex ante
and ex post constraints via grid LPs, converts ex-ante-feasible schemes into
ex-post-feasible ones with a bounded utility loss, and ships the gap and
tightness constructions as executable fixtures.

The package logs through the ``persuade`` logger, which has a NullHandler:
a lazy grid solve writes one DEBUG record of its column generation.
"""

import logging

from .core import (ConstraintSpec, DimensionMismatch, InfeasibleError,
                   MaxLinearTerm, PersuasionError, Posterior, ProblemInstance,
                   ResourceLimitError, SignalingScheme, UnsupportedKindError,
                   UtilitySpec, ValidationError, VerifyReport,
                   check_bayes_plausible, full_revelation, no_revelation,
                   uniform_prior, verify_scheme)
from .auction import (AuctionSpec, BidderType, example2_scheme, to_max_linear,
                      verify_jensen_factor)
from .constraints import SmoothedConstraint, smooth_constraint
from .fixtures import FixtureId, build_fixture, parse_fixture_id, verify_fixture
from .geometry import SimplexGrid, build_grid
from .lp import LinearProgram, LpSolution, build_persuasion_lp, solve_lp
from .objectives import GriddedUtility, build_upper_approx
from .solver import (SolveReport, bi_criteria_solve, ex_ante_to_ex_post,
                     oracle_solve, single_criteria_solve)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AuctionSpec", "BidderType", "ConstraintSpec", "DimensionMismatch",
    "FixtureId", "GriddedUtility", "InfeasibleError", "LinearProgram",
    "LpSolution", "MaxLinearTerm", "PersuasionError", "Posterior",
    "ProblemInstance", "ResourceLimitError", "SignalingScheme", "SimplexGrid",
    "SmoothedConstraint", "SolveReport", "UnsupportedKindError", "UtilitySpec",
    "ValidationError", "VerifyReport", "bi_criteria_solve", "build_fixture",
    "build_grid", "build_persuasion_lp", "build_upper_approx",
    "check_bayes_plausible", "ex_ante_to_ex_post", "example2_scheme",
    "full_revelation", "no_revelation", "oracle_solve", "parse_fixture_id",
    "single_criteria_solve", "smooth_constraint", "solve_lp", "to_max_linear",
    "uniform_prior", "verify_fixture", "verify_jensen_factor", "verify_scheme",
]
