import numpy as np
import pytest

from helpers import auction_utility
from persuade.auction import (AuctionSpec, BidderType, auction_utility_batch,
                              auction_utility_mc_batch, certify_factor_two,
                              example2_scheme, to_max_linear,
                              verify_jensen_factor)
from persuade.core import (ConstraintSpec, InfeasibleError, Posterior,
                           ProblemInstance, ResourceLimitError, UtilitySpec,
                           ValidationError, eval_utility_batch, uniform_prior,
                           verify_scheme)


def det_bidder(v0, v1):
    return (BidderType(weight=1.0, low_value=v0, high_value=v1),)


def posterior_with_marginals(m1, m2):
    """k=4 posterior over {0,1}^2 with independent bit marginals."""
    q = np.array([(1 - m1) * (1 - m2), m1 * (1 - m2), (1 - m1) * m2, m1 * m2])
    return q  # state s: bit0 = s & 1 (bidder 1), bit1 = (s >> 1) & 1


def test_single_bidder_welfare_is_marginal():
    spec = AuctionSpec(bidders=(det_bidder(0.0, 1.0),), objective="welfare")
    q = np.array([0.3, 0.7])  # P[bit=1] = 0.7
    assert auction_utility(spec, q) == pytest.approx(0.7)


def test_two_bidder_welfare_and_revenue():
    spec = AuctionSpec(bidders=(det_bidder(0, 1), det_bidder(0, 1)),
                       objective="welfare")
    q = posterior_with_marginals(0.7, 0.3)
    assert auction_utility(spec, q) == pytest.approx(0.7)
    assert auction_utility(spec, q, objective="revenue") == pytest.approx(0.3)


def test_single_bidder_revenue_is_zero():
    spec = AuctionSpec(bidders=(det_bidder(0.0, 5.0),), objective="revenue")
    assert auction_utility(spec, np.array([0.5, 0.5])) == 0.0


def test_to_max_linear_single_bidder():
    spec = AuctionSpec(bidders=(det_bidder(0.0, 1.0),), objective="welfare")
    u = to_max_linear(spec)
    assert len(u.terms) == 1
    np.testing.assert_allclose(u.terms[0].coeffs, [[0.0, 1.0]])


def test_to_max_linear_two_types_agrees_pointwise():
    # Oracle: direct evaluation of the auction utility at random posteriors.
    rng = np.random.default_rng(0)
    bidders = (
        (BidderType(0.5, 0.2, 1.0), BidderType(0.5, 0.0, 0.4)),
        det_bidder(0.1, 0.8),
    )
    for objective in ("welfare", "revenue"):
        spec = AuctionSpec(bidders=bidders, objective=objective)
        u = to_max_linear(spec)
        assert sum(t.weight for t in u.terms) == pytest.approx(1.0)
        Q = rng.dirichlet(np.ones(4), size=100)
        direct = auction_utility_batch(spec, Q)
        expanded = eval_utility_batch(u, Q)
        np.testing.assert_allclose(expanded, direct, atol=1e-12)
        assert certify_factor_two(u)


def test_profile_cap_and_mc_path():
    types = tuple(BidderType(0.25, v, v + 1) for v in (0.0, 0.5, 1.0, 1.5))
    spec = AuctionSpec(bidders=(types, types, types), profile_cap=10)
    with pytest.raises(ResourceLimitError):
        auction_utility(spec, np.full(8, 1 / 8))
    with pytest.raises(ResourceLimitError):
        to_max_linear(spec)
    seeded = AuctionSpec(bidders=(types, types, types), profile_cap=10, mc_seed=7)
    exact = AuctionSpec(bidders=(types, types, types))
    q = np.full(8, 1 / 8)
    est = auction_utility(seeded, q)
    truth = auction_utility(exact, q)
    _, stderr = auction_utility_mc_batch(seeded, q[None, :])
    assert abs(est - truth) <= 5 * float(stderr[0])
    # seeded determinism
    assert auction_utility(seeded, q) == est


# ---------------------------------------------------------------------------
# relaxed Jensen factor
# ---------------------------------------------------------------------------

def test_jensen_infnorm_equality_case():
    rep = verify_jensen_factor(UtilitySpec.max_linear(np.eye(2)), trials=1000,
                               seed=1)
    assert rep.max_ratio == pytest.approx(2.0, abs=1e-12)
    assert rep.passed


def test_jensen_linear_utility_never_exceeds_one():
    u = UtilitySpec.max_linear(np.array([[0.2, 0.9, 0.5]]))
    rep = verify_jensen_factor(u, trials=5000, seed=2)
    assert rep.max_ratio <= 1.0 + 1e-9


def test_jensen_random_welfare_auction():
    rng = np.random.default_rng(3)
    types = tuple(BidderType(0.5, rng.uniform(0, 1), rng.uniform(0, 2))
                  for _ in range(2))
    spec = AuctionSpec(bidders=(types, types), objective="welfare")
    rep = verify_jensen_factor(spec, trials=20_000, seed=4)
    assert rep.passed and rep.max_ratio <= 2.0 + 1e-9


def test_jensen_convexity_along_segments():
    rng = np.random.default_rng(5)
    types = tuple(BidderType(0.5, rng.uniform(0, 1), rng.uniform(0, 2))
                  for _ in range(2))
    spec = AuctionSpec(bidders=(types, types))
    Q1 = rng.dirichlet(np.ones(4), size=200)
    Q2 = rng.dirichlet(np.ones(4), size=200)
    mid = 0.5 * (Q1 + Q2)
    lhs = auction_utility_batch(spec, mid)
    rhs = 0.5 * (auction_utility_batch(spec, Q1) + auction_utility_batch(spec, Q2))
    assert np.all(lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# example2_scheme
# ---------------------------------------------------------------------------

def ex2_instance(k, weights, bound, prior=None):
    prior = prior if prior is not None else uniform_prior(k)
    return ProblemInstance(
        k=k, prior=prior, utility=UtilitySpec.max_linear(np.eye(k)),
        constraints=(ConstraintSpec.neg_min_weighted(weights, bound=bound,
                                                     mode="ex_post"),))


def test_example2_degenerate_no_revelation():
    inst = ex2_instance(3, [1, 1, 1], bound=-1 / 3)
    s = example2_scheme(inst)
    assert s.size == 1
    np.testing.assert_allclose(s.support[0], [1 / 3] * 3, atol=1e-12)


def test_example2_quarter_floor():
    inst = ex2_instance(2, [1, 1], bound=-0.25)
    s = example2_scheme(inst)
    pts = sorted(map(tuple, np.round(s.support_matrix(), 12)))
    assert pts == [(0.25, 0.75), (0.75, 0.25)]
    np.testing.assert_allclose(s.probs, [0.5, 0.5])
    assert verify_scheme(inst, s, tol=1e-9).valid


def test_example2_trivial_bound_full_revelation():
    inst = ex2_instance(2, [1, 1], bound=0.0)
    s = example2_scheme(inst)
    pts = sorted(map(tuple, np.round(s.support_matrix(), 12)))
    assert pts == [(0.0, 1.0), (1.0, 0.0)]


def test_example2_prior_outside():
    inst = ex2_instance(2, [1.0, 1.0], bound=-0.4,
                        prior=Posterior([0.3, 0.7]))
    with pytest.raises(InfeasibleError):
        example2_scheme(inst)


def test_example2_requires_single_ex_post_negmin():
    inst = ProblemInstance(
        k=2, prior=uniform_prior(2), utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([0, 1], bound=0.6, mode="ex_post"),))
    with pytest.raises(ValidationError):
        example2_scheme(inst)


def test_bi_criteria_solve_accepts_auction_utility():
    # End-to-end: the grid pipeline converts auction welfare via the
    # max-linear expansion; the solve respects the ex-ante bound.
    from persuade.solver import bi_criteria_solve
    bidders = (
        (BidderType(0.5, 0.2, 1.0), BidderType(0.5, 0.0, 0.6)),
        det_bidder(0.1, 0.9),
    )
    spec = AuctionSpec(bidders=bidders, objective="welfare")
    prior = uniform_prior(4)
    inst = ProblemInstance(
        k=4, prior=prior, utility=UtilitySpec.auction_welfare(spec),
        constraints=(ConstraintSpec.neg_min_weighted(
            np.ones(4), bound=-0.1, mode="ex_ante"),))
    rep = bi_criteria_solve(inst, 0.2)
    assert all(c.violation <= 0.2 + 1e-9 for c in rep.constraints)
    # No revelation is feasible with slack, so the value cannot fall below it.
    assert rep.value >= auction_utility(spec, prior.weights) - 0.2
    assert rep.support_size <= 4 + 1


def test_example2_half_approximation_of_ex_ante():
    from persuade.solver import bi_criteria_solve
    rng = np.random.default_rng(77)
    for _ in range(3):
        k = int(rng.integers(2, 4))
        w = rng.uniform(0.5, 1.5, size=k)
        prior = Posterior(rng.dirichlet(np.ones(k)) * 0.5 + 0.5 / k)
        bound = -0.5 * float((w * prior.weights).min())
        u_coeffs = rng.uniform(0, 1, size=(3, k))
        inst_post = ProblemInstance(
            k=k, prior=prior, utility=UtilitySpec.max_linear(u_coeffs),
            constraints=(ConstraintSpec.neg_min_weighted(w, bound=bound,
                                                         mode="ex_post"),))
        s = example2_scheme(inst_post)
        rep = verify_scheme(inst_post, s, tol=1e-9)
        assert rep.valid
        ante = inst_post.with_modes("ex_ante")
        bi = bi_criteria_solve(ante, 0.05)
        assert rep.utility >= 0.5 * bi.value - 0.05 - 1e-9
