import numpy as np
import pytest

from helpers import (feasible_conversion_case, interior_prior, random_instance,
                     random_plausible_scheme)
from persuade.core import (ConstraintSpec, InfeasibleError, MaxLinearTerm,
                           ProblemInstance, SignalingScheme,
                           UnsupportedKindError, UtilitySpec, ValidationError,
                           check_bayes_plausible, eval_constraint_batch,
                           eval_utility, eval_utility_batch, full_revelation,
                           scheme_expectation, uniform_prior, verify_scheme)
from persuade.solver import (bi_criteria_solve, ex_ante_to_ex_post,
                             oracle_solve, single_criteria_solve)

UNIFORM2 = uniform_prior(2)


def example1_instance(eps0: float, mode: str = "ex_ante") -> ProblemInstance:
    utility = UtilitySpec.mixture(
        [MaxLinearTerm(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
    return ProblemInstance(
        k=2, prior=UNIFORM2, utility=utility,
        constraints=(ConstraintSpec.linear([0, 1], bound=0.5 + eps0, mode=mode),))


def scheme_utility(inst, scheme):
    return float(scheme.probs @ eval_utility_batch(inst.utility,
                                                   scheme.support_matrix()))


# ---------------------------------------------------------------------------
# bi_criteria_solve
# ---------------------------------------------------------------------------

def test_bi_example1_ex_ante():
    rep = bi_criteria_solve(example1_instance(1 / 6), 0.05)
    assert rep.value >= 0.45
    assert rep.lp_value >= 0.5  # full revelation is feasible for the grid LP
    assert all(c.violation <= 0.05 + 1e-9 for c in rep.constraints)
    assert rep.plausibility_deviation <= 1e-9


def test_bi_trivial_constraints_convex_utility():
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=2.0),))
    rep = bi_criteria_solve(inst, 0.1)
    assert rep.value >= 0.9  # true optimum 1 by full revelation


def test_bi_ex_post_floor_pins_scheme_to_prior():
    # k=2, one ex-post row f = p[1] <= 1/2: the only valid scheme is the
    # prior itself, value 1/2.
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([0, 1], bound=0.5, mode="ex_post"),))
    rep = bi_criteria_solve(inst, 0.05)
    assert rep.mode == "ex_post_restricted"
    assert rep.value == pytest.approx(0.5, abs=0.05)
    assert rep.support_size <= 2


def test_bi_ex_post_example1_gap_value():
    eps0 = 1 / 6
    rep = bi_criteria_solve(example1_instance(eps0, mode="ex_post"), 0.01)
    assert rep.value == pytest.approx(2 * eps0 / (1 + 2 * eps0), abs=0.01)
    assert rep.support_size <= 2


def test_bi_infeasible_ex_post():
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=0.5, mode="ex_post"),))
    with pytest.raises(InfeasibleError):
        bi_criteria_solve(inst, 0.1)


def test_bi_monotone_in_bound_relaxation():
    rng = np.random.default_rng(77)
    for _ in range(5):
        inst, _ = random_instance(rng, k=2, m=2)
        relaxed = ProblemInstance(
            inst.k, inst.prior, inst.utility,
            tuple(c.with_bound(c.bound + 0.1) for c in inst.constraints))
        v1 = bi_criteria_solve(inst, 0.1).value
        v2 = bi_criteria_solve(relaxed, 0.1).value
        assert v2 >= v1 - 1e-9


def test_bi_rejects_nonpositive_eps():
    with pytest.raises(ValidationError):
        bi_criteria_solve(example1_instance(0.1), 0.0)


# ---------------------------------------------------------------------------
# single_criteria_solve
# ---------------------------------------------------------------------------

def test_single_example1_exact_validity():
    eps0 = 1 / 6
    inst = example1_instance(eps0)
    rep = single_criteria_solve(inst, 0.05, slater_margin=eps0)
    # E[f] <= 1/2 + eps0 exactly; hand concavification gives OPT = 1/2.
    assert all(c.violation <= 1e-9 for c in rep.constraints)
    assert rep.value >= 0.5 - 0.05
    assert rep.mode == "single_criteria"


def test_single_matches_bi_when_slack():
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=2.0),))
    bi = bi_criteria_solve(inst, 0.05)
    single = single_criteria_solve(inst, 0.1, slater_margin=1.0)
    assert single.value == pytest.approx(bi.value, abs=1e-9)


def test_single_eps_range_guard():
    inst = example1_instance(0.1)
    with pytest.raises(ValidationError):
        single_criteria_solve(inst, 0.5, slater_margin=0.1)


def test_single_infeasible_strengthening_reports_margin():
    # Bound exactly at the no-revelation value: strengthening by eps/2 makes
    # the problem infeasible, which must surface as an error, not a scheme.
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.norm_distance(1, bound=0.0),))
    with pytest.raises(InfeasibleError):
        single_criteria_solve(inst, 0.05, slater_margin=0.1)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_reports_match_verify_scheme(seed):
    # Both solvers report through one verification path.
    rng = np.random.default_rng(seed)
    inst, margin = random_instance(rng, k=2 + seed % 2, m=2)
    eps = min(0.1, margin)
    for rep in (bi_criteria_solve(inst, eps),
                single_criteria_solve(inst, eps, slater_margin=margin)):
        check = verify_scheme(inst, rep.scheme)
        assert rep.constraints == check.constraints
        assert rep.value == check.utility
        assert rep.plausibility_deviation == check.plausibility_deviation


def test_each_solve_runs_every_stage_once(monkeypatch):
    from persuade import constraints, lp, objectives, solver
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(constraints, "smooth_constraint")
    counted(objectives, "build_upper_approx")
    counted(lp, "build_persuasion_lp")
    counted(solver, "verify_scheme")
    inst, margin = random_instance(np.random.default_rng(8), k=2, m=2)
    for solve in (lambda: bi_criteria_solve(inst, 0.1),
                  lambda: single_criteria_solve(inst, margin, margin)):
        calls.clear()
        solve()
        assert calls == {"smooth_constraint": 2, "build_upper_approx": 1,
                         "build_persuasion_lp": 1, "verify_scheme": 1}


# ---------------------------------------------------------------------------
# ex_ante_to_ex_post
# ---------------------------------------------------------------------------

def test_pooling_to_no_revelation():
    spec = ConstraintSpec.linear([0, 1], bound=0.5)
    out = ex_ante_to_ex_post(full_revelation(UNIFORM2), [spec], UNIFORM2)
    assert out.size == 1
    np.testing.assert_allclose(out.support[0].weights, [0.5, 0.5], atol=1e-12)


def test_pooling_hypercube_m2():
    m, k = 2, 4
    prior = uniform_prior(k)
    states = np.arange(k)
    cons = [ConstraintSpec.linear(((states >> i) & 1).astype(float), bound=0.5)
            for i in range(m)]
    u = UtilitySpec.max_linear(np.eye(k))
    out = ex_ante_to_ex_post(full_revelation(prior), cons, prior)
    assert out.size == 1
    v_out = scheme_utility(ProblemInstance(k, prior, u, ()), out)
    assert v_out == pytest.approx(2.0 ** -m, abs=1e-12)


def test_pooling_already_feasible_is_identity():
    spec = ConstraintSpec.linear([0, 1], bound=0.9)
    scheme = SignalingScheme.from_points([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
    out = ex_ante_to_ex_post(scheme, [spec], UNIFORM2)
    np.testing.assert_allclose(out.support_matrix(), scheme.support_matrix())
    np.testing.assert_allclose(out.probs, scheme.probs)


def test_pooling_rejects_ex_ante_violation():
    spec = ConstraintSpec.linear([0, 1], bound=0.3)
    with pytest.raises(ValidationError):
        ex_ante_to_ex_post(full_revelation(UNIFORM2), [spec], UNIFORM2)


def test_pooling_rejects_nonconvex_kind():
    spec = ConstraintSpec.bump([0.5, 0.5], 0.2, bound=2.0)
    with pytest.raises(UnsupportedKindError):
        ex_ante_to_ex_post(full_revelation(UNIFORM2), [spec], UNIFORM2)


def test_pooling_step_invariants_random():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        scheme, cons, prior = feasible_conversion_case(rng, k, m)
        out, trace = ex_ante_to_ex_post(scheme, cons, prior, trace=True)
        # (a) step budget per constraint
        for j in range(m):
            assert len(trace.steps_for(j)) <= max(1, trace.entry_support_sizes[j]) - 1
        # (b) Bayes plausibility at every step
        assert all(s.bayes_deviation <= 1e-9 for s in trace.steps)
        # (c) E[f_j] never increases, for every constraint
        prev = trace.initial_expectations
        for step in trace.steps:
            assert np.all(step.expectations <= prev + 1e-9)
            prev = step.expectations
        # (d) output is ex-post feasible
        post = ProblemInstance(
            k, prior, UtilitySpec.max_linear(np.eye(k)),
            tuple(c.with_mode("ex_post") for c in cons))
        assert verify_scheme(post, out, tol=1e-9).valid


def test_pooling_factor_two_utility_bound():
    # Factor-2 Jensen utilities lose at most 2^m over m convex constraints.
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        scheme, cons, prior = feasible_conversion_case(
            rng, k, m, kinds=("linear", "norm_distance", "neg_min_weighted"))
        u = UtilitySpec.max_linear(rng.uniform(0, 1, size=(3, k)))
        out = ex_ante_to_ex_post(scheme, cons, prior)
        inst = ProblemInstance(k, prior, u, ())
        v_in = scheme_utility(inst, scheme)
        v_out = scheme_utility(inst, out)
        assert v_out >= v_in / 2 ** m - 1e-9


# ---------------------------------------------------------------------------
# oracle_solve
# ---------------------------------------------------------------------------

def test_oracle_k2_full_revelation():
    from persuade.geometry import build_grid
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=2.0),))
    rep = oracle_solve(inst, build_grid(2, 1.0))
    assert rep.status == "optimal"
    assert rep.value == pytest.approx(1.0)


def test_oracle_example1_natural_grid():
    eps0 = 1 / 6
    inst = example1_instance(eps0, mode="ex_post")
    q1 = np.array([0.0, 0.5, 0.5 + eps0, 1.0])
    pts = np.column_stack([1 - q1, q1])
    rep = oracle_solve(inst, pts, exact=True)
    assert rep.status == "optimal"
    assert rep.value == pytest.approx(2 * eps0 / (1 + 2 * eps0), abs=1e-9)


def test_oracle_agrees_with_bi_on_shared_grid():
    # Trivial constraints on a shared coarse grid: both solve the same
    # problem, so the values agree to solver tolerance.
    rng = np.random.default_rng(6)
    for _ in range(5):
        k = int(rng.integers(2, 4))
        inst = ProblemInstance(
            k=k, prior=interior_prior(rng, k),
            utility=UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, k))),
            constraints=(ConstraintSpec.linear(np.ones(k), bound=2.0),))
        rep = bi_criteria_solve(inst, 2.0, align_multiple=2)
        coarse = rep.grid_denominator
        from persuade.geometry import build_grid
        grid = build_grid(k, 2.0 / coarse)
        assert grid.denominator == coarse
        orep = oracle_solve(inst, grid)
        assert orep.status == "optimal"
        assert rep.value == pytest.approx(orep.value, abs=1e-9)


def test_oracle_dominates_bi_on_subgrid():
    # The coarse-grid restricted problem can be infeasible for tightly bound
    # instances; whenever it is feasible, the bi-criteria value dominates.
    rng = np.random.default_rng(15)
    compared = 0
    for _ in range(8):
        inst, _ = random_instance(rng, k=2, m=2)
        rep = bi_criteria_solve(inst, 0.1, align_multiple=8)
        from persuade.geometry import build_grid
        coarse = build_grid(2, 2.0 / 8)
        orep = oracle_solve(inst, coarse)
        if orep.status == "optimal":
            compared += 1
            assert rep.value >= orep.value - 1e-9
    assert compared >= 3


def test_oracle_guards():
    from persuade.core import ResourceLimitError
    inst = example1_instance(0.1)
    with pytest.raises(ResourceLimitError):
        oracle_solve(inst, np.column_stack([np.linspace(0, 1, 40),
                                            1 - np.linspace(0, 1, 40)]))


def test_oracle_infeasible():
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([1, 1], bound=0.5, mode="ex_post"),))
    rep = oracle_solve(inst, np.eye(2))
    assert rep.status == "infeasible"


# ---------------------------------------------------------------------------
# Scheme-level invariants of solver output
# ---------------------------------------------------------------------------

def test_solver_outputs_are_bayes_plausible_and_small_support():
    rng = np.random.default_rng(123)
    for _ in range(8):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(0, 3))
        inst, _ = random_instance(rng, k=k, m=m)
        rep = bi_criteria_solve(inst, 0.1)
        ok, dev = check_bayes_plausible(rep.scheme, inst.prior)
        assert ok and dev <= 1e-9
        assert rep.support_size <= k + m


def test_bi_with_entropy_constraint():
    rng = np.random.default_rng(55)
    for k in (2, 3):
        prior = interior_prior(rng, k)
        base = float(np.sum(prior.weights * np.log(prior.weights)))
        inst = ProblemInstance(
            k=k, prior=prior,
            utility=UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, k))),
            constraints=(ConstraintSpec.entropy(bound=base + 0.1),))
        rep = bi_criteria_solve(inst, 0.1)
        assert all(c.violation <= 0.1 + 1e-9 for c in rep.constraints)
        assert rep.plausibility_deviation <= 1e-9


def test_bi_mixed_ex_ante_and_ex_post():
    rng = np.random.default_rng(56)
    prior = interior_prior(rng, 3)
    w = rng.uniform(0.5, 1.5, size=3)
    post_bound = -0.4 * float((w * prior.weights).min())
    lin = rng.uniform(0, 1, size=3)
    inst = ProblemInstance(
        k=3, prior=prior,
        utility=UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, 3))),
        constraints=(
            ConstraintSpec.neg_min_weighted(w, bound=post_bound, mode="ex_post"),
            ConstraintSpec.linear(lin, bound=float(lin @ prior.weights) + 0.1,
                                  mode="ex_ante"),
        ))
    rep = bi_criteria_solve(inst, 0.05)
    assert rep.mode == "bi_criteria"
    # Ex-post rows hold exactly on every support point; ex-ante within eps.
    post_report = [c for c in rep.constraints if c.mode == "ex_post"][0]
    assert post_report.violation <= 1e-9
    ante_report = [c for c in rep.constraints if c.mode == "ex_ante"][0]
    assert ante_report.violation <= 0.05 + 1e-9
    assert rep.support_size <= 3 + 1  # k + number of ex-ante rows


def test_bi_piecewise_threshold_utility_exact():
    # Two pieces split at p[1] = 1/2 with the high value on the closed upper
    # piece: the upper envelope makes the boundary point worth 1, so the
    # optimum parks all mass exactly there and the grid solve reproduces it.
    u = UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0),
    ])
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=u,
        constraints=(ConstraintSpec.linear([1, 1], bound=2.0),))
    rep = bi_criteria_solve(inst, 0.1)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.grid_denominator is None  # refined-piece triangulation


def test_bi_piecewise_with_ex_post_filter():
    # Same utility, but posteriors above p[1] = 0.7 are forbidden ex post;
    # the boundary point 1/2 keeps value 1, so the optimum is unchanged.
    u = UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0),
    ])
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=u,
        constraints=(ConstraintSpec.linear([0, 1], bound=0.7, mode="ex_post"),))
    rep = bi_criteria_solve(inst, 0.1)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    pts = rep.scheme.support_matrix()
    assert np.all(pts[:, 1] <= 0.7 + 1e-9)


def test_bi_reaches_known_optimum_convex_utilities():
    # With slack constraints and a rank-1 max-of-linear utility, the true
    # optimum is full revelation (convexity), computable exactly.
    rng = np.random.default_rng(99)
    for _ in range(6):
        k = int(rng.integers(2, 4))
        coeffs = rng.uniform(0, 1, size=(int(rng.integers(1, 4)), k))
        u = UtilitySpec.max_linear(coeffs)
        prior = interior_prior(rng, k)
        inst = ProblemInstance(k=k, prior=prior, utility=u,
                               constraints=(ConstraintSpec.linear(
                                   np.ones(k), bound=2.0),))
        opt = float(prior.weights @ coeffs.max(axis=0))  # full revelation
        rep = bi_criteria_solve(inst, 0.05)
        assert rep.value >= opt - 0.05
        assert rep.value <= opt + 1e-9  # convexity caps every scheme at opt


def test_bi_value_is_lp_value_minus_constant_pad():
    # For max-of-linear utilities the LP objective is the true utility plus
    # a constant pad at every vertex, so the reported true value equals the
    # LP optimum minus the pad (this identity is what makes the oracle
    # comparison exact).
    rng = np.random.default_rng(314)
    from persuade import constraints as _constraints, objectives
    for _ in range(5):
        k = int(rng.integers(2, 4))
        inst, _ = random_instance(rng, k=k, m=2)
        eps = 0.1
        rep = bi_criteria_solve(inst, eps)
        smoothed = [_constraints.smooth_constraint(c, eps / 2, k=k)
                    for c in inst.constraints]
        M = max(s.lipschitz_constant for s in smoothed)
        gridded = objectives.build_upper_approx(inst.utility, eps / 2, M)
        assert rep.value == pytest.approx(rep.lp_value - gridded.pad, abs=1e-9)


def test_bi_auction_revenue_objective():
    from persuade.auction import AuctionSpec, BidderType
    spec = AuctionSpec(bidders=((BidderType(1.0, 0.0, 1.0),),
                                (BidderType(1.0, 0.2, 0.8),)),
                       objective="revenue")
    inst = ProblemInstance(
        k=4, prior=uniform_prior(4),
        utility=UtilitySpec.auction_revenue(spec),
        constraints=(ConstraintSpec.norm_distance(1, bound=0.8),))
    rep = bi_criteria_solve(inst, 0.2)
    assert all(c.violation <= 0.2 + 1e-9 for c in rep.constraints)
    assert rep.value >= 0.0


def test_single_with_ex_post_rows_untouched():
    rng = np.random.default_rng(57)
    prior = interior_prior(rng, 2)
    w = np.array([1.0, 1.0])
    post_bound = -0.4 * float((w * prior.weights).min())
    lin = np.array([0.3, 0.9])
    inst = ProblemInstance(
        k=2, prior=prior, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(
            ConstraintSpec.neg_min_weighted(w, bound=post_bound, mode="ex_post"),
            ConstraintSpec.linear(lin, bound=float(lin @ prior.weights) + 0.2,
                                  mode="ex_ante"),
        ))
    rep = single_criteria_solve(inst, 0.1, slater_margin=0.2)
    assert all(c.violation <= 1e-9 for c in rep.constraints)
