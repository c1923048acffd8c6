import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_fan_utility
from persuade import lp
from persuade.core import (ConstraintSpec, DimensionMismatch, MaxLinearTerm,
                           Posterior, ProblemInstance, SignalingScheme,
                           UnsupportedKindError, UtilitySpec, ValidationError,
                           _rank_max, check_bayes_plausible, eval_constraint,
                           eval_constraint_batch, eval_utility,
                           eval_utility_batch, full_revelation, no_revelation,
                           scheme_expectation, uniform_prior, verify_scheme)
from persuade.objectives import build_upper_approx

UNIFORM2 = uniform_prior(2)


def posterior(*w):
    return Posterior(np.array(w, dtype=float))


# ---------------------------------------------------------------------------
# Posterior / scheme construction
# ---------------------------------------------------------------------------

def test_posterior_clamps_tiny_negatives():
    p = posterior(1.0 + 5e-13, -5e-13)
    assert p.weights[1] == 0.0
    assert p.weights.sum() == pytest.approx(1.0, abs=0)


def test_posterior_rejects_bad_mass():
    with pytest.raises(ValidationError):
        posterior(0.5, 0.4)
    with pytest.raises(ValidationError):
        posterior(1.1, -0.1)


def test_scheme_merges_near_duplicates():
    s = SignalingScheme.from_points(
        [[0.3, 0.7], [0.3 + 5e-13, 0.7 - 5e-13], [1.0, 0.0]],
        [0.25, 0.25, 0.5])
    assert s.size == 2
    assert s.probs[0] == pytest.approx(0.5, abs=1e-15)


def test_scheme_rejects_bad_probs():
    with pytest.raises(ValidationError):
        SignalingScheme.from_points([[1, 0], [0, 1]], [0.7, 0.7])


# ---------------------------------------------------------------------------
# check_bayes_plausible
# ---------------------------------------------------------------------------

def test_bayes_full_revelation_uniform():
    ok, dev = check_bayes_plausible(full_revelation(UNIFORM2), UNIFORM2)
    assert ok and dev == 0.0


def test_bayes_no_revelation():
    ok, _ = check_bayes_plausible(no_revelation(UNIFORM2), UNIFORM2)
    assert ok


def test_bayes_detects_shifted_barycenter():
    s = SignalingScheme.from_points([[0.9, 0.1], [0.3, 0.7]], [0.5, 0.5])
    ok, dev = check_bayes_plausible(s, UNIFORM2)
    assert not ok
    assert dev == pytest.approx(0.1, abs=1e-12)


def test_bayes_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_bayes_plausible(full_revelation(UNIFORM2), uniform_prior(3))


# ---------------------------------------------------------------------------
# eval_constraint
# ---------------------------------------------------------------------------

def test_grouped_kl_zero_at_prior():
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, 0.5], bound=0.0)
    assert eval_constraint(spec, UNIFORM2, UNIFORM2) == pytest.approx(0.0, abs=1e-15)


def test_grouped_kl_point_mass_is_ln2():
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, 0.5], bound=0.0)
    assert eval_constraint(spec, posterior(1, 0), UNIFORM2) == pytest.approx(math.log(2))


def test_entropy_uniform():
    spec = ConstraintSpec.entropy(bound=0.0)
    assert eval_constraint(spec, UNIFORM2, UNIFORM2) == pytest.approx(-math.log(2))


def test_neg_min_weighted():
    spec = ConstraintSpec.neg_min_weighted([1.0, 1.0], bound=0.0)
    assert eval_constraint(spec, posterior(0.3, 0.7), UNIFORM2) == pytest.approx(-0.3)


def test_norm_distance_orders():
    q = posterior(0.8, 0.2)
    for order, expected in [(1, 0.6), (2, math.sqrt(0.18)), (float("inf"), 0.3)]:
        spec = ConstraintSpec.norm_distance(order, bound=0.0)
        assert eval_constraint(spec, q, UNIFORM2) == pytest.approx(expected)


def test_bump_constraint():
    spec = ConstraintSpec.bump(center=[0.5, 0.5], radius=0.2, bound=0.0)
    assert eval_constraint(spec, UNIFORM2, UNIFORM2) == pytest.approx(1.0)
    assert eval_constraint(spec, posterior(1, 0), UNIFORM2) == 0.0


def test_grouped_kl_validation():
    with pytest.raises(ValidationError):
        ConstraintSpec.grouped_kl([(0,), (0, 1)], 1.0, [0.5, 0.5], bound=0.0)
    with pytest.raises(ValidationError):
        ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, -0.5], bound=0.0)
    with pytest.raises(ValidationError):
        ConstraintSpec.neg_min_weighted([1.0, 0.0], bound=0.0)


def test_grouped_kl_nonnegative_near_prior():
    spec = ConstraintSpec.grouped_kl([(0,), (1,), (2,)], 1.0,
                                     [0.2, 0.3, 0.5], bound=0.0)
    prior = posterior(0.2, 0.3, 0.5)
    rng = np.random.default_rng(7)
    Q = rng.dirichlet(np.ones(3), size=500)
    vals = eval_constraint_batch(spec, Q, prior)
    assert np.all(vals >= -1e-12)
    far = np.abs(Q - prior.weights).max(axis=1) > 1e-3
    assert np.all(vals[far] > 0)


# ---------------------------------------------------------------------------
# eval_utility
# ---------------------------------------------------------------------------

def test_max_linear_rank1_is_infnorm():
    u = UtilitySpec.max_linear(np.eye(2))
    assert eval_utility(u, posterior(0.7, 0.3)) == pytest.approx(0.7)


def test_max_linear_rank2():
    u = UtilitySpec.max_linear(np.eye(2), rank=2)
    assert eval_utility(u, posterior(0.7, 0.3)) == pytest.approx(0.3)


def test_piecewise_upper_envelope_at_boundary():
    u = UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0),
    ])
    assert eval_utility(u, posterior(0.5, 0.5)) == 1.0
    assert eval_utility(u, posterior(0.6, 0.4)) == 0.0


def test_piecewise_uncovered_point_raises():
    u = UtilitySpec.piecewise_constant([(np.array([[1.0, 0.0], [0.6, 0.4]]), 1.0)])
    with pytest.raises(ValidationError):
        eval_utility(u, posterior(0.1, 0.9))


def test_rank_max_matches_partition_reference():
    # Ties are frequent: entries are drawn from four values.  The reference
    # is the partition the kernel used for every rank before.
    rng = np.random.default_rng(17)
    for shape in [(200, 1), (500, 2), (500, 3), (300, 5), (4, 50, 3)]:
        values = rng.integers(-2, 2, size=shape) * 0.5
        values[..., 0] += rng.uniform(size=shape[:-1]) < 0.1  # some strict maxima
        for rank in range(1, shape[-1] + 1):
            ref = np.partition(values, -rank, axis=-1)[..., -rank]
            assert np.array_equal(_rank_max(values, rank), ref)


@pytest.mark.parametrize("build, get_input, get_stored", [
    (lambda a: UtilitySpec.max_linear(a), lambda: np.eye(2),
     lambda spec: spec.terms[0].coeffs),
    (lambda a: ConstraintSpec.linear(a, 1.0), lambda: np.array([0.2, 0.8]),
     lambda spec: spec.coeffs),
    (lambda a: UtilitySpec.piecewise_constant([(a, 1.0)]),
     lambda: np.array([[1.0, 0.0], [0.0, 1.0]]), lambda spec: spec.pieces[0][0]),
], ids=["max_linear", "linear", "piece_vertices"])
def test_spec_inputs_stay_writeable(build, get_input, get_stored):
    a = get_input()
    spec = build(a)
    assert a.flags.writeable
    stored = get_stored(spec).copy()
    a[...] = 0.5
    assert np.array_equal(get_stored(spec), stored)
    assert not get_stored(spec).flags.writeable


def test_max_linear_rank_bounds():
    with pytest.raises(ValidationError):
        UtilitySpec.max_linear(np.eye(2), rank=3)


def test_max_linear_rejects_negative_at_vertices():
    with pytest.raises(ValidationError):
        UtilitySpec.max_linear(np.array([[-1.0, -0.2]]))


def test_piecewise_usc_along_shared_boundaries():
    # Three-piece cover of the 2-simplex; boundary points take the max of
    # adjacent piece values.
    e = np.eye(3)
    center = np.full(3, 1 / 3)
    u = UtilitySpec.piecewise_constant([
        (np.vstack([e[0], e[1], center]), 1.0),
        (np.vstack([e[1], e[2], center]), 2.0),
        (np.vstack([e[2], e[0], center]), 3.0),
    ])
    rng = np.random.default_rng(3)
    t = rng.uniform(0.05, 0.95, size=50)
    boundary_01 = np.outer(t, e[1] - e[0]) + e[0]  # shared edge of pieces 1,2... none
    for q in boundary_01:
        assert eval_utility(u, Posterior(q)) == 1.0
    mid = 0.5 * (e[1] + center)
    assert eval_utility(u, Posterior(mid)) == 2.0  # edge shared by pieces 1 and 2
    assert eval_utility(u, Posterior(center)) == 3.0


def _hull_contains_lp(verts, q, tol=1e-9):
    """l1 hull feasibility: max -sum(s+ + s-) s.t. V^T beta + s+ - s- = q,
    sum beta = 1, all variables >= 0; q is in the hull when the optimum
    is within tol of 0."""
    m, k = verts.shape
    n = m + 2 * k
    c = np.zeros(n)
    c[m:] = -1.0
    A_eq = np.zeros((k + 1, n))
    A_eq[:k, :m] = verts.T
    A_eq[:k, m:m + k] = np.eye(k)
    A_eq[:k, m + k:] = -np.eye(k)
    A_eq[k, :m] = 1.0
    sol = lp.solve_lp(lp.LinearProgram(c=c, A_eq=A_eq, b_eq=np.append(q, 1.0),
                                       A_le=np.zeros((0, n)), b_le=np.zeros(0)))
    return sol.status == "optimal" and -sol.value <= tol


def test_piece_membership_matches_hull_lp():
    # Refined-grid vertices lie on piece borders and diagonals of the fan
    # triangulation; the random points are generic.  The upper envelope
    # over pieces must agree with the LP hull test at every one of them.
    rng = np.random.default_rng(21)
    for n_pieces in (3, 4, 6):
        u = random_fan_utility(rng, n_pieces)
        grid = build_upper_approx(u, eps=0.5, lipschitz_bound=1.0).grid
        Q = np.vstack([grid.vertices, rng.dirichlet(np.ones(3), size=20)])
        expected = [max(value for verts, value in u.pieces
                        if _hull_contains_lp(verts, q)) for q in Q]
        np.testing.assert_array_equal(eval_utility_batch(u, Q), expected)


def test_unsupported_piece_vertex_lists_rejected():
    # Neither a simplex nor a k <= 3 convex polygon: 5 vertices in k = 4,
    # three collinear points in k = 3, and a k = 3 list with an interior
    # point, whose fan triangulation would not cover the hull.
    with pytest.raises(UnsupportedKindError):
        UtilitySpec.piecewise_constant([(np.vstack([np.eye(4), np.full(4, 0.25)]), 1.0)])
    collinear = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(UnsupportedKindError):
        UtilitySpec.piecewise_constant([(np.eye(3), 0.0), (collinear, 1.0)])
    with pytest.raises(UnsupportedKindError):
        UtilitySpec.piecewise_constant([(np.vstack([np.eye(3), [0.4, 0.35, 0.25]]), 1.0)])


# ---------------------------------------------------------------------------
# scheme_expectation
# ---------------------------------------------------------------------------

def test_expectation_examples():
    infnorm = UtilitySpec.max_linear(np.eye(2))
    fn = lambda p: eval_utility(infnorm, p)
    assert scheme_expectation(full_revelation(UNIFORM2), fn) == pytest.approx(1.0)
    assert scheme_expectation(no_revelation(UNIFORM2), fn) == pytest.approx(0.5)
    s = SignalingScheme.from_points([[1.0, 0.0], [1 / 3, 2 / 3]], [0.25, 0.75])
    assert scheme_expectation(s, lambda p: p.weights[0]) == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 0.99))
def test_expectation_is_linear_in_mixtures(seed, lam):
    rng = np.random.default_rng(seed)
    k = 3
    pts_a = rng.dirichlet(np.ones(k), size=3)
    pts_b = rng.dirichlet(np.ones(k), size=2)
    w_a = rng.dirichlet(np.ones(3))
    w_b = rng.dirichlet(np.ones(2))
    a = SignalingScheme.from_points(pts_a, w_a)
    b = SignalingScheme.from_points(pts_b, w_b)
    mix = SignalingScheme.from_points(
        np.vstack([pts_a, pts_b]), np.concatenate([lam * w_a, (1 - lam) * w_b]))
    coeffs = rng.uniform(-1, 1, size=k)
    fn = lambda p: float(coeffs @ p.weights) ** 2  # any function works
    lhs = scheme_expectation(mix, fn)
    rhs = lam * scheme_expectation(a, fn) + (1 - lam) * scheme_expectation(b, fn)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# verify_scheme
# ---------------------------------------------------------------------------

def example1_instance(eps0: float, mode: str = "ex_ante") -> ProblemInstance:
    utility = UtilitySpec.mixture(
        [MaxLinearTerm(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
    return ProblemInstance(
        k=2, prior=uniform_prior(2), utility=utility,
        constraints=(ConstraintSpec.linear([0, 1], bound=0.5 + eps0, mode=mode),))


def test_verify_example1_ex_ante_full_revelation():
    inst = example1_instance(1 / 6)
    rep = verify_scheme(inst, full_revelation(UNIFORM2))
    assert rep.valid
    assert rep.utility == pytest.approx(0.5)


def test_verify_example1_ex_post_full_revelation_invalid():
    eps0 = 1 / 6
    inst = example1_instance(eps0, mode="ex_post")
    rep = verify_scheme(inst, full_revelation(UNIFORM2))
    assert not rep.valid
    # f = 1 at posterior (0, 1) against the bound 1/2 + eps0.
    assert rep.constraints[0].violation == pytest.approx(0.5 - eps0)


def test_verify_trivial_constraints_no_revelation():
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=2.0),))
    assert verify_scheme(inst, no_revelation(UNIFORM2)).valid


def test_verify_report_dict_roundtrips_to_json():
    import json
    inst = example1_instance(0.1)
    rep = verify_scheme(inst, full_revelation(UNIFORM2))
    json.dumps(rep.as_dict())
