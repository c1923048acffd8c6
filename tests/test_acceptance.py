"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion lines.
Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from helpers import (feasible_conversion_case, interior_prior, random_instance,
                     random_plausible_scheme, random_welfare_style)
from persuade import geometry
from persuade.auction import (AuctionSpec, BidderType, example2_scheme,
                              verify_jensen_factor)
from persuade.constraints import smooth_constraint
from persuade.core import (ConstraintSpec, InfeasibleError, Posterior,
                           ProblemInstance, SignalingScheme, UtilitySpec,
                           eval_constraint_batch, eval_utility_batch,
                           full_revelation, no_revelation, uniform_prior,
                           verify_scheme)
from persuade.fixtures import FixtureId, build_fixture, verify_fixture
from persuade.lp import LinearProgram, solve_lp
from persuade.solver import (bi_criteria_solve, ex_ante_to_ex_post,
                             oracle_solve, single_criteria_solve)

GRID_CAP = 20_000_000  # the default 5e6 guard is raised for the finest grids


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def scheme_value(inst, scheme):
    return float(scheme.probs @ eval_utility_batch(inst.utility,
                                                   scheme.support_matrix()))


# -- criterion 1: Example 1 gap ------------------------------------------------

def test_criterion_1_example1_gap():
    eps = 0.01
    details = []
    ok = True
    for eps0 in (1 / 6, 0.05):
        fx = build_fixture(FixtureId("example1", (eps0,)))
        t0 = time.perf_counter()
        ante = bi_criteria_solve(fx.instance, eps, grid_cap=GRID_CAP)
        post = bi_criteria_solve(fx.instance.with_modes("ex_post"), eps,
                                 grid_cap=GRID_CAP)
        elapsed = time.perf_counter() - t0
        ref = fx.references["ex_post_opt"]
        ok &= ante.value >= 0.5 - eps
        ok &= abs(post.value - ref) <= max(eps, 1e-6)
        ok &= elapsed < 5.0
        details.append(f"eps0={eps0:.4g}: ante={ante.value:.4f}, "
                       f"post={post.value:.4f} (ref {ref:.4f}), {elapsed:.2f}s")
    report(1, ok, "; ".join(details))


# -- criterion 2: pooling loss factor on the hypercube ---------------------------

def test_criterion_2_hypercube_pooling():
    ok = True
    details = []
    for m in (1, 2, 3):
        fx = build_fixture(FixtureId("appE1", (m,)))
        t0 = time.perf_counter()
        out = ex_ante_to_ex_post(fx.reference_scheme, fx.instance.constraints,
                                 fx.instance.prior)
        elapsed = time.perf_counter() - t0
        v_in = scheme_value(fx.instance, fx.reference_scheme)
        v_out = scheme_value(fx.instance, out)
        post = fx.instance.with_modes("ex_post")
        ok &= abs(v_out / v_in - 2.0 ** -m) <= 1e-9
        ok &= verify_scheme(post, out, tol=1e-9).valid
        ok &= elapsed < 1.0
        details.append(f"m={m}: ratio={v_out / v_in:.6f}, {elapsed:.3f}s")
    report(2, ok, "; ".join(details))


# -- criterion 3: exact gap M between ex ante and ex post ------------------------

def test_criterion_3_app_e2_gap():
    ok = True
    details = []
    for M in (1.5, 3.0, 10.0):
        fx = build_fixture(FixtureId("appE2", (M,)))
        inst = fx.instance
        ante_val = scheme_value(inst, full_revelation(inst.prior))
        post_val = scheme_value(inst, no_revelation(inst.prior))
        gap = ante_val / post_val
        ok &= abs(gap - M) <= 1e-9
        ok &= verify_fixture(fx.id).passed
        details.append(f"M={M:g}: gap={gap:.12g}")
    report(3, ok, "; ".join(details))


# -- criterion 4: gap m+1 with m floor constraints --------------------------------

def test_criterion_4_app_e3_gap():
    ok = True
    details = []
    for m in (1, 2, 3):
        fx = build_fixture(FixtureId("appE3", (m,)))
        inst = fx.instance
        ante_val = scheme_value(inst, full_revelation(inst.prior))
        post_val = scheme_value(inst, no_revelation(inst.prior))
        gap = ante_val / post_val
        ok &= abs(gap - (m + 1)) <= 1e-6
        ok &= verify_fixture(fx.id).passed
        details.append(f"m={m}: gap={gap:.9g}")
    report(4, ok, "; ".join(details))


# -- criterion 5: support-size tightness fixture ----------------------------------

def _prop3_vertex_scheme(rng, fx):
    """A random vertex of the valid-scheme polytope over a mixed point pool."""
    inst = fx.instance
    k = inst.k
    pool = np.vstack([fx.reference_scheme.support_matrix(),
                      rng.dirichlet(np.ones(k), size=4)])
    n = pool.shape[0]
    A_eq = np.vstack([pool[:, : k - 1].T, np.ones((1, n))])
    b_eq = np.concatenate([inst.prior.weights[: k - 1], [1.0]])
    A_le = np.vstack([eval_constraint_batch(c, pool, inst.prior)
                      for c in inst.constraints])
    b_le = np.array([c.bound for c in inst.constraints])
    sol = solve_lp(LinearProgram(c=rng.uniform(-1, 1, size=n), A_eq=A_eq,
                                 b_eq=b_eq, A_le=A_le, b_le=b_le))
    if sol.status != "optimal":
        return None
    keep = sol.x > 1e-12
    return SignalingScheme(pool[keep], sol.x[keep] / sol.x[keep].sum())


def test_criterion_5_prop3():
    ok = True
    details = []
    for (k, m) in ((2, 1), (2, 2), (3, 2)):
        fx = build_fixture(FixtureId("prop3", (k, m)))
        rep = verify_scheme(fx.instance, fx.reference_scheme, tol=1e-9)
        ok &= rep.valid
        ok &= abs(rep.utility - 0.75) <= 1e-12
        ok &= fx.reference_scheme.size == k + m
        ok &= verify_fixture(fx.id).passed
        details.append(f"(k={k},m={m}): value={rep.utility:.12f}, "
                       f"support={fx.reference_scheme.size}")
    # 1000 random valid schemes never beat 3/4.
    rng = np.random.default_rng(20260808)
    fx = build_fixture(FixtureId("prop3", (2, 2)))
    checked = 0
    worst = -np.inf
    while checked < 1000:
        if checked % 3 == 0:
            scheme = _prop3_vertex_scheme(rng, fx)
            if scheme is None:
                continue
        else:
            scheme = random_plausible_scheme(rng, fx.instance.prior,
                                             int(rng.integers(2, 6)))
        rep = verify_scheme(fx.instance, scheme, tol=1e-9)
        if not rep.valid:
            continue
        checked += 1
        worst = max(worst, rep.utility)
        ok &= rep.utility <= 0.75 + 1e-9
    details.append(f"1000 random valid schemes, max value={worst:.6f}")
    report(5, ok, "; ".join(details))


# -- criteria 6-8: grid-solve contract, single-criteria, support sizes -----------

ALIGN = {2: 8, 3: 3}


@pytest.fixture(scope="module")
def grid_solve_runs():
    rng = np.random.default_rng(61)
    runs = []
    for idx in range(50):
        k = 2 + (idx % 2)
        m = int(rng.integers(1, 4))
        inst, margin = random_instance(rng, k=k, m=m,
                                       slack_range=(0.12, 0.3))
        coarse = geometry.build_grid(k, 2.0 / ALIGN[k])
        orep = oracle_solve(inst, coarse)
        for eps in (0.1, 0.02):
            t0 = time.perf_counter()
            rep = bi_criteria_solve(inst, eps, grid_cap=GRID_CAP,
                                    align_multiple=ALIGN[k])
            elapsed = time.perf_counter() - t0
            runs.append({"inst": inst, "margin": margin, "eps": eps,
                         "rep": rep, "oracle": orep, "elapsed": elapsed,
                         "k": k, "m": m})
    return runs


def test_criterion_6_grid_solve_contract(grid_solve_runs):
    ok = True
    slowest = 0.0
    compared = 0
    kinds_seen = set()
    for run in grid_solve_runs:
        rep, eps = run["rep"], run["eps"]
        kinds_seen |= {c.kind for c in run["inst"].constraints}
        ok &= all(c.violation <= eps + 1e-9 for c in rep.constraints)
        ok &= run["elapsed"] < 10.0
        slowest = max(slowest, run["elapsed"])
        if run["oracle"].status == "optimal":
            compared += 1
            ok &= rep.value >= run["oracle"].value - 1e-9
    ok &= kinds_seen == {"linear", "norm_distance", "grouped_kl"}
    ok &= compared >= 40
    report(6, ok, f"100 solves over 50 instances, slowest {slowest:.2f}s, "
                  f"{compared} oracle comparisons, kinds={sorted(kinds_seen)}")


def test_criterion_7_single_criteria(grid_solve_runs):
    ok = True
    count = 0
    eps = 0.05
    seen = set()
    for run in grid_solve_runs:
        inst = run["inst"]
        if id(inst) in seen or run["margin"] < 0.1:
            continue
        seen.add(id(inst))
        count += 1
        if count > 12:
            break
        single = single_criteria_solve(inst, eps, slater_margin=run["margin"],
                                       grid_cap=GRID_CAP)
        bi = bi_criteria_solve(inst, eps, grid_cap=GRID_CAP)
        ok &= all(c.violation <= 1e-9 for c in single.constraints)
        ok &= single.value >= bi.value - eps - 1e-9
    report(7, ok, f"{min(count, 12)} instances at eps={eps}, zero violations, "
                  f"value within eps of bi-criteria")


def test_criterion_8_support_sizes(grid_solve_runs):
    ok = True
    worst_ratio = 0
    for run in grid_solve_runs:
        bound = run["k"] + run["m"]
        ok &= run["rep"].support_size <= bound
        worst_ratio = max(worst_ratio, run["rep"].support_size)
    # Ex-post restricted solves: support at most k.
    rng = np.random.default_rng(88)
    post_checked = 0
    for _ in range(6):
        k = int(rng.integers(2, 4))
        prior = interior_prior(rng, k)
        w = rng.uniform(0.5, 1.5, size=k)
        bound = -0.5 * float((w * prior.weights).min())
        inst = ProblemInstance(
            k=k, prior=prior,
            utility=UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, k))),
            constraints=(ConstraintSpec.neg_min_weighted(w, bound=bound,
                                                         mode="ex_post"),))
        rep = bi_criteria_solve(inst, 0.05, grid_cap=GRID_CAP)
        ok &= rep.support_size <= k
        post_checked += 1
    report(8, ok, f"ex-ante supports <= k+m on 100 solves (max {worst_ratio}); "
                  f"{post_checked} ex-post solves with support <= k")


# -- criterion 9: smoothing sandwich ---------------------------------------------

def test_criterion_9_smoothing_sandwich():
    rng = np.random.default_rng(9)
    ok = True
    details = []
    for k in (2, 3):
        for eps in (0.1, 0.01):
            prior = interior_prior(rng, k)
            if k == 3 and rng.uniform() < 0.5:
                partition = [(0, 1), (2,)]
            else:
                partition = [(i,) for i in range(k)]
            refs = np.array([prior.weights[list(c)].sum() for c in partition])
            spec = ConstraintSpec.grouped_kl(partition, 1.0, refs, bound=0.2)
            sm = smooth_constraint(spec, eps)
            Q = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=10_000)])
            f = eval_constraint_batch(spec, Q, prior)
            g = sm.eval_batch(Q, prior)
            diff = f - g
            ok &= diff.min() >= -1e-12 and diff.max() <= eps + 1e-12
            A = rng.dirichlet(np.ones(k), size=10_000)
            B = rng.dirichlet(np.ones(k), size=10_000)
            viol = (np.abs(sm.eval_batch(A, prior) - sm.eval_batch(B, prior))
                    - sm.lipschitz_constant * np.abs(A - B).sum(axis=1))
            ok &= float(viol.max()) <= 1e-12
            details.append(f"k={k},eps={eps}: gap in [{diff.min():.2e},"
                           f"{diff.max():.3f}], L={sm.lipschitz_constant:.1f}")
    report(9, ok, "; ".join(details))


# -- criterion 10: relaxed Jensen -------------------------------------------------

def _random_auction(rng, objective):
    n = int(rng.integers(1, 4))
    bidders = []
    for _ in range(n):
        n_types = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(n_types))
        bidders.append(tuple(
            BidderType(float(w[t]), float(rng.uniform(0, 1)),
                       float(rng.uniform(0, 2)))
            for t in range(n_types)))
    return AuctionSpec(bidders=tuple(bidders), objective=objective)


def test_criterion_10_relaxed_jensen():
    rng = np.random.default_rng(10)
    ok = True
    worst = 0.0
    for i in range(20):
        objective = "welfare" if i < 10 else "revenue"
        spec = _random_auction(rng, objective)
        rep = verify_jensen_factor(spec, trials=100_000, seed=1000 + i)
        ok &= rep.max_ratio <= 2.0 + 1e-9
        worst = max(worst, rep.max_ratio)
    eq = verify_jensen_factor(UtilitySpec.max_linear(np.eye(2)),
                              trials=1000, seed=0)
    ok &= abs(eq.max_ratio - 2.0) <= 1e-12
    report(10, ok, f"20 auction specs x 1e5 trials, max ratio {worst:.6f}; "
                   f"inf-norm equality case ratio {eq.max_ratio:.12f}")


# -- criterion 11: Example 2 recipe ------------------------------------------------

def test_criterion_11_example2_recipe():
    rng = np.random.default_rng(11)
    eps = 0.02
    ok = True
    margins = []
    for _ in range(10):
        k = int(rng.integers(2, 4))
        prior = interior_prior(rng, k)
        w = rng.uniform(0.5, 1.5, size=k)
        alpha = float(rng.uniform(0.3, 0.8))
        bound = -alpha * float((w * prior.weights).min())
        utility = random_welfare_style(rng, k)
        inst_post = ProblemInstance(
            k=k, prior=prior, utility=utility,
            constraints=(ConstraintSpec.neg_min_weighted(w, bound=bound,
                                                         mode="ex_post"),))
        scheme = example2_scheme(inst_post)
        rep = verify_scheme(inst_post, scheme, tol=1e-9)
        ok &= rep.valid
        bi = bi_criteria_solve(inst_post.with_modes("ex_ante"), eps,
                               grid_cap=GRID_CAP)
        margin = rep.utility - (0.5 * bi.value - eps)
        margins.append(margin)
        ok &= margin >= -1e-9
    report(11, ok, f"10 instances: min margin over the 1/2-approximation "
                   f"bound {min(margins):.4f}")


# -- criterion 12: Algorithm 1 step invariants --------------------------------------

def test_criterion_12_pooling_invariants():
    rng = np.random.default_rng(12)
    ok = True
    total_steps = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        scheme, cons, prior = feasible_conversion_case(rng, k, m)
        out, trace = ex_ante_to_ex_post(scheme, cons, prior, trace=True)
        for j in range(m):
            ok &= len(trace.steps_for(j)) <= max(1, trace.entry_support_sizes[j]) - 1
        ok &= all(s.bayes_deviation <= 1e-9 for s in trace.steps)
        prev = trace.initial_expectations
        for step in trace.steps:
            ok &= bool(np.all(step.expectations <= prev + 1e-9))
            prev = step.expectations
        total_steps += len(trace.steps)
        post = ProblemInstance(k, prior, UtilitySpec.max_linear(np.eye(k)),
                               tuple(c.with_mode("ex_post") for c in cons))
        ok &= verify_scheme(post, out, tol=1e-9).valid
    report(12, ok, f"100 runs, {total_steps} pooling steps, Bayes drift <= 1e-9, "
                   f"E[f] monotone, step budget respected")
