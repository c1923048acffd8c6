import logging
import tracemalloc

import numpy as np
import pytest

from helpers import (feasible_conversion_case, interior_prior, lattice_compositions,
                     random_constraint, random_instance, random_max_linear,
                     random_plausible_scheme, reference_bisect_boundary,
                     reference_oracle_solve)
from persuade import geometry, lp
from persuade.auction import AuctionSpec, BidderType, to_max_linear
from persuade.core import (ConstraintSpec, InfeasibleError, MaxLinearTerm,
                           Posterior, ProblemInstance, ResourceLimitError,
                           SignalingScheme,
                           UnsupportedKindError, UtilitySpec, ValidationError,
                           check_bayes_plausible, eval_constraint_batch,
                           eval_utility_batch, full_revelation,
                           uniform_prior, verify_scheme)
from persuade.geometry import build_grid
from persuade.solver import (BOUNDARY_TOL, OracleReport, _bisect_boundary, bi_criteria_solve,
                             build_surrogate, ex_ante_to_ex_post, oracle_solve,
                             single_criteria_solve, solve_surrogate)

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


@pytest.mark.parametrize("offset, kept", [(BOUNDARY_TOL / 2, True),
                                           (2 * BOUNDARY_TOL, False)])
def test_ex_post_boundary_vertex_is_column_and_oracle_candidate(offset, kept):
    # Under q_1 <= 3/4 - offset the vertex (1/4, 3/4) has f = bound + offset.
    # Within BOUNDARY_TOL it is an LP column and an oracle candidate, and
    # the only posterior that beats no revelation for |q|_inf on the uniform
    # prior: {(1/4, 3/4) w.p. 2/3, (1, 0)} is worth 5/6, the prior alone 1/2.
    inst = ProblemInstance(
        k=2, prior=UNIFORM2, utility=UtilitySpec.max_linear(np.eye(2)),
        constraints=(ConstraintSpec.linear([0, 1], bound=0.75 - offset,
                                           mode="ex_post"),))
    vertex = np.array([0.25, 0.75])
    surrogate = build_surrogate(inst, 0.1, align_multiple=4)
    assert np.all(surrogate.posteriors() == vertex, axis=1).any() == kept
    orep = oracle_solve(inst, build_grid(2, 0.5))
    assert orep.status == "optimal"
    assert np.all(orep.scheme.support_matrix() == vertex, axis=1).any() == kept
    assert orep.value == pytest.approx(5 / 6 if kept else 0.5, abs=1e-12)


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
# Blockwise surrogate assembly
# ---------------------------------------------------------------------------

def kl_instance(k: int, *extra) -> ProblemInstance:
    """Uniform prior, largest-entry utility, one KL constraint and ``extra``."""
    prior = uniform_prior(k)
    kl = ConstraintSpec.grouped_kl([(i,) for i in range(k)], 1.0, prior.weights,
                                   bound=0.2)
    return ProblemInstance(k, prior, UtilitySpec.max_linear(np.eye(k)),
                           (kl, *extra))


def program_arrays(program):
    return [program.c, program.A_eq, program.b_eq, program.A_le, program.b_le]


@pytest.mark.parametrize("k, eps", [(3, 0.1), (4, 0.4)])
@pytest.mark.parametrize("ex_post", [False, True])
def test_blockwise_surrogate_is_the_one_block_surrogate(monkeypatch, k, eps, ex_post):
    # The columns of many small blocks are those of one block, in the same
    # order; each column's posterior, recovered from A_eq and N, is its
    # lattice vertex bit for bit, whether the ex-post bound cuts vertices
    # off or, slack, keeps them all.  An ex-post constraint keeps the build
    # blockwise; without one these grids are solved lazily.
    extra = (ConstraintSpec.linear(np.eye(k)[0], bound=0.6, mode="ex_post") if ex_post
             else ConstraintSpec.linear(np.ones(k), bound=2.0, mode="ex_post"))
    inst = kl_instance(k, extra)
    whole = build_surrogate(inst, eps)
    monkeypatch.setattr(geometry, "LATTICE_BLOCK", 97)
    blocked = build_surrogate(inst, eps)
    assert blocked.solution is None
    N = blocked.grid_denominator
    V = geometry.lattice_vertex_count(k, N)
    assert V > 5 * 97 and V % 97
    lattice = lattice_compositions(k, N) / N
    kept = lattice[:, 0] <= 0.6 + BOUNDARY_TOL if ex_post else np.ones(V, bool)
    assert blocked.program.n_vars == kept.sum()
    assert kept.all() != ex_post  # the ex-post bound cuts some vertices off
    for ours, ref in zip(program_arrays(blocked.program), program_arrays(whole.program)):
        assert np.array_equal(ours, ref)
        with pytest.raises(ValueError):
            ours[..., 0] = 0.0
    for s in (whole, blocked):
        assert s.posteriors().tobytes() == lattice[kept].tobytes()
    columns = np.array([0, 5, blocked.program.n_vars - 1])
    assert blocked.posteriors(columns).tobytes() == lattice[kept][columns].tobytes()


def test_build_peak_stays_near_the_lp_itself():
    # The build holds the LP's own k + m + 1 rows of floats plus one lattice
    # block and its columns at a time, never the (V, k) lattice.  A slack
    # ex-post constraint keeps every vertex and sends the build down the
    # blockwise path: on 907k columns in 7 blocks the peak stays below 1.6
    # times the LP.
    prior = uniform_prior(3)
    inst = ProblemInstance(3, prior, UtilitySpec.max_linear(np.arange(3)[None, :] / 3), (
        ConstraintSpec.grouped_kl([(0,), (1,), (2,)], 1.0, prior.weights, bound=0.2),
        ConstraintSpec.linear(np.ones(3), bound=2.0, mode="ex_post")))
    tracemalloc.start()
    try:
        surrogate = build_surrogate(inst, 0.016)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = surrogate.program.n_vars
    assert n == surrogate.column_count
    assert peak < 1.6 * 8 * (3 + 1 + 1) * n
    assert n > 4 * geometry.LATTICE_BLOCK


def test_k5_max_linear_solves_under_the_default_cap():
    # Coefficient spreads below 1 give L_u, M <= 1/2 on the simplex, so the
    # grid is N = 80 (1,929,501 vertices).  With the full spread as the
    # constant this instance needed N = 137, 15.8M vertices, past the cap.
    rng = np.random.default_rng(0)
    prior = interior_prior(rng, 5)
    coeffs = rng.uniform(0, 1, size=5)
    inst = ProblemInstance(5, prior, random_max_linear(rng, 5), (
        ConstraintSpec.linear(coeffs, bound=float(coeffs @ prior.weights) + 0.05),))
    rep = bi_criteria_solve(inst, 0.1)
    assert rep.grid_vertex_count <= geometry.DEFAULT_VERTEX_CAP
    assert rep.grid_denominator == 80
    check = verify_scheme(inst, rep.scheme, tol=0.1)
    assert check.valid and all(c.violation <= 0.1 for c in check.constraints)


@pytest.mark.parametrize("eps", [0.1, 0.04])
def test_lattice_too_large_for_an_array_is_a_resource_limit(eps):
    # Under a cap of 10^26, k = 12 at eps 0.1 has N = 240 and V ~ 5.0e18,
    # past the largest (V,) int32 index numpy can allocate; at eps 0.04,
    # V ~ 1.0e23 >= 2^63.
    inst = ProblemInstance(12, uniform_prior(12), UtilitySpec.max_linear(np.eye(12)[:2]),
                           (ConstraintSpec.norm_distance(1, bound=0.3),))
    with pytest.raises(ResourceLimitError, match="more than an array can index"):
        bi_criteria_solve(inst, eps, grid_cap=10**26)


# ---------------------------------------------------------------------------
# Lazy grid LP (column generation over lattice boxes)
# ---------------------------------------------------------------------------

def full_and_lazy(monkeypatch, inst, eps, **kwargs):
    """The surrogate built on one block, and the one built on 97-row blocks."""
    with monkeypatch.context() as m:
        m.setattr(geometry, "LATTICE_BLOCK", geometry.DEFAULT_VERTEX_CAP)
        whole = build_surrogate(inst, eps, **kwargs)
        m.setattr(geometry, "LATTICE_BLOCK", 97)
        return whole, build_surrogate(inst, eps, **kwargs)


def check_lazy_solve(inst, whole, lazy):
    """The lazy surrogate solves to the full grid's LP value, its scheme
    verifies within the k+m support bound, and the duals it returns price
    every lattice column at most FEAS_TOL, recomputed here in full."""
    full, rep = solve_surrogate(whole), solve_surrogate(lazy)
    assert abs(rep.lp_value - full.lp_value) <= 1e-9
    assert rep.grid_vertex_count == full.grid_vertex_count == lazy.column_count
    check = verify_scheme(inst, rep.scheme, tol=lazy.eps)
    assert check.valid
    assert rep.support_size <= lazy.program.n_rows
    if lazy.solution is not None:
        y = lazy.solution.duals
        P = whole.program
        k = P.A_eq.shape[0]
        reduced = P.c - y[:k] @ P.A_eq - y[k:] @ P.A_le
        assert reduced.max() <= lp.FEAS_TOL
        assert lazy.program.n_vars < P.n_vars


def test_lazy_grid_lp_on_the_criterion_6_suite(monkeypatch):
    # The criterion-6 instances, on grids of many 97-row blocks: each gives
    # the full grid's LP value.  eps is 0.02 at k = 2 and 0.05 at k = 3.
    rng = np.random.default_rng(61)
    lazy_count = 0
    for idx in range(50):
        k = 2 + (idx % 2)
        inst, _ = random_instance(rng, k=k, m=int(rng.integers(1, 4)),
                                  slack_range=(0.12, 0.3))
        whole, lazy = full_and_lazy(monkeypatch, inst, {2: 0.02, 3: 0.05}[k],
                                    align_multiple={2: 8, 3: 3}[k])
        check_lazy_solve(inst, whole, lazy)
        lazy_count += lazy.solution is not None
    assert lazy_count >= 5


@pytest.mark.parametrize("k, eps, m", [(2, 0.05, 1), (2, 0.05, 2), (3, 0.05, 1),
                                        (3, 0.02, 1), (3, 0.02, 2)])
def test_lazy_grid_lp_on_kl_instances(monkeypatch, k, eps, m):
    # One KL constraint over single states, and a second over a merged
    # pair and the other states.  At eps 0.02 the grid is the benchmark's
    # (N = 1031, V = 533,028).
    prior = uniform_prior(k)
    pair = ConstraintSpec.grouped_kl([(0, 1)] + [(i,) for i in range(2, k)], 1.0,
                                     np.append(2.0 / k, prior.weights[2:]), bound=0.1)
    inst = kl_instance(k, *[pair][: m - 1])
    whole, lazy = full_and_lazy(monkeypatch, inst, eps)
    assert lazy.solution is not None
    check_lazy_solve(inst, whole, lazy)


def auction_instance(rng, objective: str) -> ProblemInstance:
    """Two bidders of three types (k = 4) under one l1 distance constraint,
    values scaled so the utility's Lipschitz constant is 1, as in the
    benchmark's auctions; revenue is the min of two bids (rank 2 of 2)."""
    bidders = [[(float(w), float(rng.uniform(0, 1)), float(rng.uniform(0, 2)))
                for w in rng.dirichlet(np.ones(3))] for _ in range(2)]
    raw = AuctionSpec(tuple(tuple(BidderType(*t) for t in b) for b in bidders))
    scale = 1.0 / to_max_linear(raw, objective).lipschitz_l1()
    spec = AuctionSpec(tuple(tuple(BidderType(w, lo * scale, hi * scale)
                                   for w, lo, hi in b) for b in bidders), objective)
    utility = (UtilitySpec.auction_welfare(spec) if objective == "welfare"
               else UtilitySpec.auction_revenue(spec))
    return ProblemInstance(4, interior_prior(rng, 4), utility, (
        ConstraintSpec.norm_distance(1, bound=float(rng.uniform(0.12, 0.3))),))


def test_lazy_grid_lp_on_k4_auctions(monkeypatch):
    # Welfare (a sum of maxes) and revenue (a sum of mins) auctions on the
    # benchmark's grid (eps 0.1, N = 160 or 161, V ~ 0.7M) and 97-row blocks:
    # each LP value is the one-block build's, the scheme verifies, the
    # duals price every column, and most solves go lazy.
    rng = np.random.default_rng(4)
    lazy_count = 0
    for i in range(8):
        inst = auction_instance(rng, ("welfare", "revenue")[i % 2])
        whole, lazy = full_and_lazy(monkeypatch, inst, 0.1)
        check_lazy_solve(inst, whole, lazy)
        lazy_count += lazy.solution is not None
    assert lazy_count >= 6


def rank2_norm_instance(order: float) -> ProblemInstance:
    """A rank-2-of-4 max-linear utility under one l_order distance
    constraint, k = 3.  At eps 0.1 (N = 40) many boxes survive the coarse
    levels: a middle rank keeps every functional a candidate near its
    kinks, and an order-2 or infinity norm keeps its global constant."""
    rng = np.random.default_rng(0)
    prior = interior_prior(rng, 3)
    return ProblemInstance(3, prior, UtilitySpec.max_linear(
        rng.uniform(0, 1, size=(4, 3)), rank=2),
        (ConstraintSpec.norm_distance(order, bound=0.2),))


@pytest.mark.parametrize("order", [2.0, float("inf")])
def test_lazy_path_on_rank2_norm_instances(monkeypatch, order):
    # Pricing evaluates about 38 % of this small lattice, and the lazy path
    # still certifies the one-block LP value: its duals price every
    # one-block column.
    inst = rank2_norm_instance(order)
    whole, lazy = full_and_lazy(monkeypatch, inst, 0.1)
    assert lazy.solution is not None
    check_lazy_solve(inst, whole, lazy)


def test_non_finite_pool_column_is_an_lp_error(monkeypatch):
    # A NaN in a column the descent evaluates, after the first master, is
    # an LpError as in a full build, not a box the NaN bound prunes.
    from persuade import objectives
    values, calls = objectives.GriddedUtility.lattice_values, []

    def poisoned(self, points):
        calls.append(points.shape[0])
        out = values(self, points)
        return np.where(np.arange(out.size) == 0, np.nan, out) if len(calls) == 2 else out

    monkeypatch.setattr(objectives.GriddedUtility, "lattice_values", poisoned)
    monkeypatch.setattr(geometry, "LATTICE_BLOCK", 97)
    with pytest.raises(lp.LpError, match="non-finite"):
        build_surrogate(kl_instance(3), 0.05)
    assert len(calls) == 2


def test_lazy_solve_logs_one_debug_record(monkeypatch, caplog):
    # The package's logger carries a NullHandler, so nothing reaches the
    # root logger's last-resort handler unless the caller configures one.
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("persuade").handlers)
    inst = kl_instance(3)
    with caplog.at_level(logging.DEBUG, logger="persuade"):
        rep = bi_criteria_solve(inst, 0.02)
    records = [r for r in caplog.records if r.name == "persuade.solver"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert records[0].levelno == logging.DEBUG
    assert "N=1031 V=533028 " in message and "full_pass=False" in message
    fields = dict(f.split("=") for f in message.split() if "=" in f)
    assert int(fields["rounds"]) >= 1
    assert int(fields["boxes"]) >= int(fields["rounds"])
    # The root box has side 2048, so a descent that priced every level
    # would price 12 per round; levels that prune nothing skip the next.
    assert int(fields["rounds"]) <= int(fields["levels"]) < 12 * int(fields["rounds"])
    assert 0 < int(fields["evaluated"]) < 0.1 * rep.grid_vertex_count
    assert int(fields["master"]) >= rep.support_size
    # The one fallback: an infeasible first master (a KL bound below 0)
    # builds the whole grid, which the LP then finds infeasible, with the
    # one-block build's message.
    caplog.clear()
    inst = kl_instance(3)
    inst = ProblemInstance(3, inst.prior, inst.utility,
                           (inst.constraints[0].with_bound(-0.1),))
    with caplog.at_level(logging.DEBUG, logger="persuade"):
        whole, blocked = full_and_lazy(monkeypatch, inst, 0.05)
    assert [r.getMessage().endswith("full_pass=True") for r in caplog.records] == [True]
    assert blocked.solution is None and blocked.column_count == blocked.program.n_vars
    for ours, ref in zip(program_arrays(blocked.program), program_arrays(whole.program)):
        assert np.array_equal(ours, ref)
    messages = []
    for surrogate in (whole, blocked):
        with pytest.raises(InfeasibleError, match="grid LP infeasible at eps=0.05") as err:
            solve_surrogate(surrogate)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("block", [None, 97])
def test_grid_emptied_by_the_ex_post_filter_is_infeasible(monkeypatch, block):
    # No vertex has q[0] <= -0.1: the LP builder gets no column, on a grid
    # of one block and on one of many.
    if block is not None:
        monkeypatch.setattr(geometry, "LATTICE_BLOCK", block)
    inst = kl_instance(3, ConstraintSpec.linear(np.eye(3)[0], bound=-0.1,
                                                mode="ex_post"))
    with pytest.raises(InfeasibleError, match="no grid vertex satisfies"):
        build_surrogate(inst, 0.1)
    N = build_surrogate(kl_instance(3), 0.1).grid_denominator
    assert (len(list(geometry.lattice_blocks(3, N))) > 1) == (block is not None)


# ---------------------------------------------------------------------------
# ex_ante_to_ex_post
# ---------------------------------------------------------------------------

def test_pooling_to_no_revelation():
    spec = ConstraintSpec.linear([0, 1], bound=0.5)
    out = ex_ante_to_ex_post(full_revelation(UNIFORM2), [spec], UNIFORM2)
    assert out.size == 1
    np.testing.assert_allclose(out.support[0], [0.5, 0.5], atol=1e-12)


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
    scheme = SignalingScheme([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5])
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


def test_pooling_merges_into_an_existing_point():
    # One step pools e1 with e0 at (1/2, 1/2), which is already a support point.
    spec = ConstraintSpec.linear([0, 1], bound=0.5)
    scheme = SignalingScheme([[1, 0], [0, 1], [0.5, 0.5]],
                             [0.25, 0.25, 0.5])
    out, trace = ex_ante_to_ex_post(scheme, [spec], UNIFORM2, trace=True)
    assert out.size == 1
    assert np.array_equal(out.support_matrix(), [[0.5, 0.5]])
    assert np.array_equal(out.probs, [1.0])
    assert [s.support_size for s in trace.steps] == [1]
    assert [s.constraint_index for s in trace.steps] == [0]
    assert len(trace.steps_for(0)) == 1


def test_pooling_steps_are_recorded_under_their_constraint():
    # Full revelation on the uniform prior of 3 states.  Constraint 0
    # (q[1] <= 1/2) pools e1 into e0 at (1/2, 1/2, 0); constraint 1
    # (q[2] <= 1/2) then pools e2 into that point at (1/4, 1/4, 1/2).
    prior = uniform_prior(3)
    specs = [ConstraintSpec.linear([0, 1, 0], bound=0.5),
             ConstraintSpec.linear([0, 0, 1], bound=0.5)]
    out, trace = ex_ante_to_ex_post(full_revelation(prior), specs, prior,
                                    trace=True)
    assert [s.constraint_index for s in trace.steps] == [0, 1]
    assert [len(trace.steps_for(j)) for j in range(2)] == [1, 1]
    assert trace.entry_support_sizes == [3, 2]
    assert np.allclose(out.support_matrix(), [[0.5, 0.5, 0], [0.25, 0.25, 0.5]])
    assert np.allclose(out.probs, [1 / 3, 2 / 3])


def test_pooling_on_a_tight_ex_ante_bound_takes_at_most_s_minus_1_steps():
    # E[q[1]] = 1/3 sits exactly on the bound.  Each pooled point must land
    # within POOL_TOL of the boundary, or it counts as strictly feasible and
    # is pooled again: 2 steps from 3 points, support sizes 3 then 2.
    prior = uniform_prior(3)
    spec = ConstraintSpec.linear([0, 1, 0], bound=1 / 3)
    out, trace = ex_ante_to_ex_post(full_revelation(prior), [spec], prior,
                                    trace=True)
    assert len(trace.steps_for(0)) <= 3 - 1
    assert [s.support_size for s in trace.steps] == [3, 2]
    assert verify_scheme(ProblemInstance(3, prior, UtilitySpec.max_linear(np.eye(3)),
                                         (spec.with_mode("ex_post"),)),
                         out, tol=1e-9).valid


def test_pooling_stalls_without_a_strictly_feasible_point():
    # One posterior on the boundary of q[1] <= 1/2, one 1e-10 beyond it.
    spec = ConstraintSpec.linear([0, 1], bound=0.5)
    scheme = SignalingScheme([[0.5, 0.5], [0.5 - 1e-10, 0.5 + 1e-10]],
                             [0.5, 0.5])
    with pytest.raises(lp.NumericError, match="pooling stalled"):
        ex_ante_to_ex_post(scheme, [spec], UNIFORM2)


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


@pytest.mark.parametrize("kind", ["linear", "norm_distance", "entropy",
                                  "grouped_kl", "neg_min_weighted"])
def test_boundary_search_matches_one_point_bisection(kind):
    # Segments from a strictly feasible point to a violating one, with the
    # bound drawn between their values; the batched search must return the
    # one-point bisection's (lam, q_c) bit for bit.
    rng = np.random.default_rng(77)
    compared = 0
    while compared < 25:
        k = int(rng.integers(2, 5))
        prior = interior_prior(rng, k)
        spec = random_constraint(rng, k, prior, kind, slack=0.0)
        ends = rng.dirichlet(np.ones(k), size=2)
        f = eval_constraint_batch(spec, ends, prior)
        if abs(f[0] - f[1]) < 1e-6:
            continue
        q_S, q_T = ends[np.argsort(f)]
        spec = spec.with_bound(f.min() + rng.uniform(0.02, 0.98) * abs(f[0] - f[1]))
        lam, q_c = _bisect_boundary(spec, prior, q_S, q_T)
        ref_lam, ref_q_c = reference_bisect_boundary(spec, prior, q_S, q_T)
        assert lam == ref_lam
        assert np.array_equal(q_c, ref_q_c)
        compared += 1


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


@pytest.mark.parametrize("eps0", [1 / 6, 1e-12, 0.25, 0.4999999])
def test_oracle_example1_natural_grid(eps0):
    # At eps0 = 1e-12 the vertices 1/2 and 1/2 + eps0 nearly coincide.
    inst = example1_instance(eps0, mode="ex_post")
    q1 = np.array([0.0, 0.5, 0.5 + eps0, 1.0])
    pts = np.column_stack([1 - q1, q1])
    rep = oracle_solve(inst, pts)
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


# ex-ante kinds, then the ex-post kind and its slack range (or None)
ORACLE_MIXES = {
    "grouped_kl": (("grouped_kl", "linear"), None),
    "ex_post_linear": (("linear", "norm_distance", "grouped_kl"), ("linear", 0.02, 0.2)),
    "ex_post_norm_distance": (("linear", "grouped_kl"), ("norm_distance", 0.3, 0.6)),
}


@pytest.mark.parametrize("mix", sorted(ORACLE_MIXES))
def test_oracle_dominates_bi_on_subgrid_mixes(mix):
    # The bi-criteria LP holds every vertex of the oracle's coarse grid, the
    # same ex-post filter and relaxed ex-ante bounds, so it can do no worse.
    ante_kinds, post = ORACLE_MIXES[mix]
    rng = np.random.default_rng(sorted(ORACLE_MIXES).index(mix) + 60)
    align = {2: 8, 3: 3}
    compared = 0
    for i in range(8):
        k = 2 + i % 2
        inst, _ = random_instance(rng, k, 1, kinds=ante_kinds)
        if post is not None:
            kind, lo, hi = post
            spec = random_constraint(rng, k, inst.prior, kind,
                                     slack=float(rng.uniform(lo, hi)), mode="ex_post")
            inst = ProblemInstance(k, inst.prior, inst.utility,
                                   inst.constraints + (spec,))
        orep = oracle_solve(inst, build_grid(k, 2.0 / align[k]))
        if orep.status == "optimal":
            compared += 1
            rep = bi_criteria_solve(inst, 0.1, align_multiple=align[k])
            assert rep.value >= orep.value - 1e-9
    assert compared >= 3


def test_oracle_guards():
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


def _l1(bound):
    return ConstraintSpec.norm_distance(1, bound=bound)


def _linf(bound, mode="ex_ante"):
    return ConstraintSpec.norm_distance(float("inf"), bound=bound, mode=mode)


# k, the oracle grid's N, prior, ex-ante constraints, and the radius of an
# ex-post l-infinity ball around the prior, which keeps 7 to 13 grid
# vertices so that the oracle stays fast.
ORACLE_K45 = {
    "k4-float": (4, 3, (0.375, 0.25, 0.25, 0.125), (_l1(0.875), _linf(0.4375)), 0.5),
    "k4-n2": (4, 2, (0.375, 0.25, 0.25, 0.125), (_l1(0.875),), 0.625),
    "k5-float": (5, 2, (0.25, 0.25, 0.25, 0.125, 0.125),
                 (_l1(1.25), _linf(0.28125)), 0.5),
    "k5-n2": (5, 2, (0.25, 0.25, 0.25, 0.125, 0.125), (_linf(0.28125),), 0.5),
}


@pytest.mark.parametrize("case", sorted(ORACLE_K45))
def test_oracle_bounds_k4_and_k5_solves(case):
    # The oracle at k = 4 (N = 3, V = 20, or N = 2) and k = 5 (N = 2,
    # V = 15), where its ex-ante constraints bind.  A bi-criteria solve on
    # an aligned grid holds every oracle vertex, so it reaches the oracle's
    # value; so does a single-criteria solve of the instance with every
    # ex-ante bound raised by eps/2, which strengthens them back.
    k, n, weights, ex_ante, radius = ORACLE_K45[case]
    prior = Posterior(np.array(weights))
    utility = UtilitySpec.max_linear(np.random.default_rng(3).uniform(0, 1, size=(3, k)))
    ex_post = _linf(radius, mode="ex_post")
    grid = build_grid(k, 2.0 * (k // 2) / n)
    assert grid.denominator == n
    free = oracle_solve(ProblemInstance(k, prior, utility, (ex_post,)), grid)
    inst = ProblemInstance(k, prior, utility, ex_ante + (ex_post,))
    orep = oracle_solve(inst, grid)
    assert orep.status == "optimal" and orep.value < free.value - 1e-3
    eps = 0.5
    bi = bi_criteria_solve(inst, eps, align_multiple=n)
    loose = ProblemInstance(k, prior, utility, tuple(
        c.with_bound(c.bound + eps / 2) for c in ex_ante) + (ex_post,))
    single = single_criteria_solve(loose, eps, slater_margin=eps / 2, align_multiple=n)
    for rep in (bi, single):
        assert rep.grid_denominator % n == 0
        assert rep.value >= orep.value - 1e-9


def _same_support(a: SignalingScheme, b: SignalingScheme) -> bool:
    return np.array_equal(a.support_matrix(), b.support_matrix())


def _oracle_matches_reference(inst: ProblemInstance, grid) -> OracleReport:
    got, ref = oracle_solve(inst, grid), reference_oracle_solve(inst, grid)
    assert got.status == ref.status
    assert got.candidates_checked == ref.candidates_checked
    if ref.status == "infeasible":
        return got
    assert got.value == pytest.approx(ref.value, abs=1e-12)
    if not _same_support(got.scheme, ref.scheme):  # a tie within 1e-15
        for rep in (got, ref):
            check = verify_scheme(inst, rep.scheme, tol=1e-9)
            assert check.valid
            assert check.utility == pytest.approx(ref.value, abs=1e-12)
    return got


def test_exact_oracle_matches_per_candidate_reference():
    # The k = 2, N = 8 instances on which the oracle was once checked in
    # exact arithmetic; they now run on the float path like every other.
    rng = np.random.default_rng(9)
    grid = build_grid(2, 2.0 / 8)
    reports = [_oracle_matches_reference(random_instance(rng, 2, m)[0], grid)
               for m in range(4)]
    assert any(rep.status == "optimal" for rep in reports)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_oracle_matches_per_candidate_reference(k):
    # k = 4 and 5 run on their N = 3 and N = 2 grids (V = 20 and 15) with one
    # instance each of m = 0 and m = 1: there the reference loop takes up to
    # a second an instance.
    rng = np.random.default_rng(40 + k)
    grid = build_grid(k, 2.0 * (k // 2) / {2: 8, 3: 3, 4: 3, 5: 2}[k])
    small = k <= 3
    cases = [random_instance(rng, k, m)[0]
             for m in range(4 if small else 2) for _ in range(5 if small else 1)]
    if small:
        prior, utility = cases[-1].prior, cases[-1].utility
        near_prior = ConstraintSpec.norm_distance(float("inf"), bound=0.5, mode="ex_post")
        kept = eval_constraint_batch(near_prior, grid.vertices, prior) <= 0.5
        assert 0 < kept.sum() < grid.vertex_count
        sum_half = ConstraintSpec.linear(np.ones(k), bound=0.5)
        cases += [ProblemInstance(k, prior, utility, (c,)) for c in
                  (near_prior, sum_half, sum_half.with_mode("ex_post"))]
    reports = [_oracle_matches_reference(inst, grid) for inst in cases]
    if small:
        # The grid filtered by near_prior still holds the prior; every
        # candidate breaks sum(q) <= 1/2 ex ante; ex post it leaves no
        # vertex at all.
        assert reports[-3].status == "optimal"
        assert reports[-2].status == "infeasible" and reports[-2].candidates_checked > 0
        assert reports[-1].status == "infeasible" and reports[-1].candidates_checked == 0


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
