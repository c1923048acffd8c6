import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import vertex_values
from persuade import geometry, lp, objectives
from persuade.constraints import smooth_constraint
from persuade.core import ConstraintSpec, UtilitySpec, uniform_prior
from persuade.lp import LinearProgram, LpError, build_persuasion_lp, solve_lp


def lp_max(c, A_eq=None, b_eq=None, A_le=None, b_le=None):
    n = len(c)
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        A_eq=np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float),
        b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float),
        A_le=np.zeros((0, n)) if A_le is None else np.asarray(A_le, dtype=float),
        b_le=np.zeros(0) if b_le is None else np.asarray(b_le, dtype=float))


def test_simple_equality():
    sol = solve_lp(lp_max([1, 0], A_eq=[[1, 1]], b_eq=[1]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1, 0], atol=1e-12)
    assert sol.value == pytest.approx(1.0)


def test_upper_bound_row():
    sol = solve_lp(lp_max([1, 0], A_eq=[[1, 1]], b_eq=[1], A_le=[[1, 0]], b_le=[0.3]))
    assert sol.value == pytest.approx(0.3)


def test_infeasible_zero_row():
    sol = solve_lp(lp_max([1, 1], A_eq=[[0, 0]], b_eq=[1]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(lp_max([1, 0], A_le=[[0, 1]], b_le=[1]))
    assert sol.status == "unbounded"


def test_negative_rhs_row_normalization():
    sol = solve_lp(lp_max([-1, -1], A_le=[[-1, 0]], b_le=[-0.5]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-0.5)


def test_basic_solution_support_bound():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, rows = 12, 4
        A_eq = rng.uniform(-1, 1, size=(rows, n))
        x0 = rng.dirichlet(np.ones(n))  # feasible by construction
        b_eq = A_eq @ x0
        sol = solve_lp(lp_max(rng.uniform(-1, 1, size=n), A_eq=A_eq, b_eq=b_eq))
        if sol.status == "optimal":
            assert np.count_nonzero(sol.x > 1e-10) <= rows


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    A_eq = rng.uniform(0, 1, size=(3, 40))
    b_eq = A_eq @ rng.dirichlet(np.ones(40))
    c = rng.uniform(0, 1, size=40)
    lp = lp_max(c, A_eq=A_eq, b_eq=b_eq)
    s1, s2 = solve_lp(lp), solve_lp(lp)
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)
    assert s1.basis == s2.basis


def test_beale_cycling_example_terminates():
    # Beale's classic degenerate LP, a cycling trigger for naive Dantzig
    # tableau codes; the guard must land on the optimum 0.05.
    c = [0.75, -150.0, 0.02, -6.0]
    A_le = [[0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0]]
    b_le = [0.0, 0.0, 1.0]
    sol = solve_lp(lp_max(c, A_le=A_le, b_le=b_le))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.05, abs=1e-9)


def test_optimal_vs_vertex_enumeration():
    # Independent oracle: enumerate all basic solutions of small random LPs.
    rng = np.random.default_rng(9)
    for trial in range(20):
        n, r = 6, 3
        A = rng.uniform(0, 1, size=(r, n))
        b = A @ rng.dirichlet(np.ones(n))
        c = rng.uniform(-1, 1, size=n)
        best = -np.inf
        for cols in itertools.combinations(range(n), r):
            M = A[:, cols]
            try:
                w = np.linalg.solve(M, b)
            except np.linalg.LinAlgError:
                continue
            if w.min() >= -1e-10:
                best = max(best, float(c[list(cols)] @ w))
        sol = solve_lp(lp_max(c, A_eq=A, b_eq=b))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(best, abs=1e-9)


def test_rejects_nan():
    with pytest.raises(LpError):
        lp_max([np.nan, 1.0])


def fuzz_lp(rng, n: int) -> LinearProgram:
    """A random LP over n columns with 0-2 equality rows and 0-2 random <=
    rows plus one bounding row: feasible by construction half the time,
    with random right-hand sides the other half."""
    m_eq = int(rng.integers(0, 3))
    m_le = int(rng.integers(0, 3))
    A_eq = rng.uniform(-1, 1, size=(m_eq, n))
    A_le = rng.uniform(-1, 1, size=(m_le, n))
    if rng.uniform() < 0.5:
        x0 = rng.uniform(0, 1, size=n) * (rng.uniform(size=n) < 0.7)
        b_eq = A_eq @ x0
        b_le = A_le @ x0 + rng.uniform(0, 0.5, size=m_le)
    else:
        b_eq = rng.uniform(-1, 1, size=m_eq)
        b_le = rng.uniform(-1, 1, size=m_le)
    A_le = np.vstack([A_le, np.ones((1, n))])  # keep the LP bounded
    b_le = np.concatenate([b_le, [rng.uniform(0.5, 3.0)]])
    c = rng.uniform(-1, 1, size=n)
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le)


def test_fuzz_mixed_rows_against_enumeration():
    # Mixed equality/inequality LPs checked exhaustively over their
    # (support, tight-row) vertices, including infeasible draws.
    rng = np.random.default_rng(20260808)

    def enumerate_opt(c, A_eq, b_eq, A_le, b_le):
        n = len(c)
        m_eq, m_le = A_eq.shape[0], A_le.shape[0]
        best = None
        for r_le in range(m_le + 1):
            for tight in itertools.combinations(range(m_le), r_le):
                parts = ([A_eq] if m_eq else []) + \
                        ([A_le[list(tight)]] if tight else [])
                rows = np.vstack(parts) if parts else np.zeros((0, n))
                rhs = np.concatenate(([b_eq] if m_eq else [])
                                     + ([b_le[list(tight)]] if tight else [])) \
                    if parts else np.zeros(0)
                for s in range(rows.shape[0] + 1):
                    for S in itertools.combinations(range(n), s):
                        if s == 0:
                            if rows.shape[0] and np.max(np.abs(rhs)) > 1e-8:
                                continue
                            x = np.zeros(n)
                        else:
                            M = rows[:, list(S)]
                            sol, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
                            if rank < s or np.max(np.abs(M @ sol - rhs)) > 1e-8:
                                continue
                            x = np.zeros(n)
                            x[list(S)] = sol
                        if x.min() < -1e-9:
                            continue
                        if m_eq and np.max(np.abs(A_eq @ x - b_eq)) > 1e-8:
                            continue
                        if m_le and np.max(A_le @ x - b_le) > 1e-8:
                            continue
                        v = float(c @ x)
                        best = v if best is None else max(best, v)
        return best

    for _ in range(60):
        program = fuzz_lp(rng, int(rng.integers(2, 6)))
        sol = solve_lp(program)
        ref = enumerate_opt(program.c, program.A_eq, program.b_eq, program.A_le,
                            program.b_le)
        if sol.status == "infeasible":
            assert ref is None
        else:
            assert sol.status == "optimal"
            assert ref is not None
            assert sol.value == pytest.approx(ref, abs=1e-7)
            assert_duals_certify(program, sol)  # rows with b < 0 included


def columns_of(program: LinearProgram, keep: np.ndarray) -> LinearProgram:
    return LinearProgram(c=program.c[keep], A_eq=program.A_eq[:, keep], b_eq=program.b_eq,
                         A_le=program.A_le[:, keep], b_le=program.b_le)


def test_warm_start_from_a_column_subset_skips_phase_1():
    # The optimal basis of an LP over some of the columns, mapped to the
    # full LP (slacks follow the structural columns), is a feasible basis
    # of it: the warm solve runs no phase 1 and reaches the cold optimum.
    rng = np.random.default_rng(20261022)
    warm_count = 0
    for _ in range(200):
        n = int(rng.integers(4, 12))
        program = fuzz_lp(rng, n)
        keep = np.flatnonzero(rng.uniform(size=n) < 0.6)
        part = solve_lp(columns_of(program, keep))
        if part.status != "optimal" or len(part.basis) != program.n_rows:
            continue
        basis = np.array(part.basis)
        start = np.where(basis < keep.size, keep[np.minimum(basis, keep.size - 1)],
                         basis - keep.size + n)
        cold, warm = solve_lp(program), solve_lp(program, start)
        assert warm.status == cold.status == "optimal"
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.stats.phase1_iterations == 0
        assert_duals_certify(program, warm)
        warm_count += 1
    assert warm_count >= 50


def assert_same_solution(a, b):
    assert (a.status, a.basis, a.stats) == (b.status, b.basis, b.stats)
    assert repr(a.value) == repr(b.value)
    for u, v in ((a.x, b.x), (a.duals, b.duals)):
        assert (u is None) == (v is None) and (u is None or u.tobytes() == v.tobytes())


@pytest.mark.parametrize("start", [[0], [0, 1, 3], [0, 2], [0, 3], [0, 4], [1, 1]])
def test_unusable_warm_start_falls_back_to_the_cold_start(start):
    # Two rows, columns 0 and 2 parallel, the slack is column 3: a start of
    # the wrong length, a singular B ([0, 2]), a primal-infeasible basis
    # ([0, 3]: x_0 = 1 leaves the slack at -0.7), an index past the slacks
    # or a repeated one each give the cold solve, bit for bit.
    program = lp_max([1, 0.5, 0.2], A_eq=[[1, 1, 2]], b_eq=[1],
                     A_le=[[1, 0, 2]], b_le=[0.3])
    cold, warm = solve_lp(program), solve_lp(program, start)
    assert cold.status == "optimal" and cold.stats.phase1_iterations > 0
    assert_same_solution(warm, cold)


def test_redundant_equality_rows():
    # Duplicate rows leave a basic artificial on a redundant row.
    sol = solve_lp(lp_max([1, 2], A_eq=[[1, 1], [1, 1]], b_eq=[1, 1]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Working-set pricing on LPs wider than the initial working set
# ---------------------------------------------------------------------------

def wide_lp(rng, n, k=3, m_le=2, *, repeats=0, degenerate=False, redundant=False):
    """A grid-LP-shaped program over n random posteriors: k-1 barycenter
    rows and a normalization row, m_le random <= rows (the second one a
    lower bound, with a negative right-hand side), random objective.

    ``repeats`` copies that many columns onto earlier ones; ``degenerate``
    puts the prior on one column, makes every <= row tight there and gives
    that column the best objective, so the optimum is a basic solution with
    k + m_le - 1 zero basics; ``redundant`` adds the k-th barycenter row,
    implied by the others.
    """
    pts = rng.dirichlet(np.ones(k), size=n)
    if repeats:
        pts[n - repeats:] = pts[rng.integers(0, n - repeats, size=repeats)]
    A_le = rng.uniform(0, 1, size=(m_le, n))
    A_le[1:2] *= -1.0
    c = rng.uniform(0, 1, size=n)
    if degenerate:
        x0 = np.zeros(n)
        x0[rng.integers(0, n)] = 1.0
        c[x0 > 0] = 1.5
        slack = 0.0
    else:
        x0 = rng.dirichlet(np.ones(n))
        slack = 0.05
    prior = pts.T @ x0
    rows = [pts[:, : k - 1].T, np.ones((1, n))] + ([pts[:, k - 1:].T] if redundant else [])
    b_eq = np.concatenate([prior[: k - 1], [1.0]] + ([prior[k - 1:]] if redundant else []))
    return LinearProgram(c=c, A_eq=np.vstack(rows), b_eq=b_eq,
                         A_le=A_le, b_le=A_le @ x0 + slack)


WIDE_CASES = [dict(), dict(repeats=3000), dict(degenerate=True),
              dict(redundant=True), dict(repeats=2000, degenerate=True, redundant=True)]


def lp_scale(program):
    return max(1.0, float(np.abs(program.b_eq).sum() + np.abs(program.b_le).sum()))


def assert_duals_certify(program, sol):
    """sol.duals are y on the rows as given and certify sol.value."""
    tol = 1e-9 * lp_scale(program)
    m_eq = program.A_eq.shape[0]
    y_eq, y_le = sol.duals[:m_eq], sol.duals[m_eq:]
    reduced = program.c - y_eq @ program.A_eq - y_le @ program.A_le
    assert reduced.max() <= tol            # every structural column
    assert np.all(y_le >= -tol)            # every slack column
    assert abs(program.b_eq @ y_eq + program.b_le @ y_le - sol.value) <= tol


@pytest.mark.parametrize("case", range(len(WIDE_CASES)))
def test_duals_certify_wide_lp(case):
    rng = np.random.default_rng(300 + case)
    program = wide_lp(rng, 3 * lp.WORKING_SET_INITIAL, **WIDE_CASES[case])
    sol = solve_lp(program)
    assert sol.status == "optimal"
    assert_duals_certify(program, sol)
    st = sol.stats
    assert st.working_set_size > lp.WORKING_SET_INITIAL  # the set grew
    assert 2 <= st.full_pricing_passes < st.phase1_iterations + st.phase2_iterations


@pytest.mark.parametrize("case", range(len(WIDE_CASES)))
def test_working_set_pricing_matches_full_pricing(case, monkeypatch):
    rng = np.random.default_rng(400 + case)
    program = wide_lp(rng, 2 * lp.WORKING_SET_INITIAL + 17, **WIDE_CASES[case])
    sifted = solve_lp(program)
    monkeypatch.setattr(lp, "WORKING_SET_INITIAL", program.n_vars)
    full = solve_lp(program)
    assert full.stats.full_pricing_passes == \
        full.stats.phase1_iterations + full.stats.phase2_iterations
    assert full.stats.working_set_size == program.n_vars
    assert sifted.value == pytest.approx(full.value, abs=1e-9 * lp_scale(program))


def test_refactoring_every_pivot_keeps_the_result(monkeypatch):
    # Refactorization rebuilds B from the basis columns, among them the
    # artificials of rows whose right-hand side is negative.
    programs = [lp_max([-1, -1], A_le=[[-1, 0]], b_le=[-0.5]),
                lp_max([1, 1], A_le=[[1, 1]], b_le=[-1]),                # infeasible
                lp_max([1, 2], A_eq=[[1, 1], [-1, -1]], b_eq=[1, -1])]  # redundant row
    programs += [wide_lp(np.random.default_rng(700 + case), lp.WORKING_SET_INITIAL + 500,
                         **kwargs) for case, kwargs in enumerate(WIDE_CASES)]
    refs = [solve_lp(program) for program in programs]
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    for program, ref in zip(programs, refs):
        sol = solve_lp(program)
        assert sol.status == ref.status
        if ref.status == "optimal":
            assert sol.value == pytest.approx(ref.value, abs=1e-9 * lp_scale(program))
            assert_duals_certify(program, sol)


def test_solve_keeps_no_copy_of_the_columns():
    # Pricing reads the program's own rows: beyond the returned x, a solve
    # allocates a few n-vectors, less than one (rows + 1)-float copy of
    # the columns.
    program = wide_lp(np.random.default_rng(600), 300_000)
    r = program.n_rows
    tracemalloc.start()
    try:
        sol = solve_lp(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal" and r == 5
    assert peak < 8 * (r + 1) * program.n_vars


def test_against_scipy_highs_wide_lps():
    scipy_opt = pytest.importorskip("scipy.optimize")
    for case, kwargs in enumerate(WIDE_CASES):
        rng = np.random.default_rng(500 + case)
        program = wide_lp(rng, lp.WORKING_SET_INITIAL + 1 + 997 * case, k=2 + case % 3,
                          m_le=1 + case % 2, **kwargs)
        ours = solve_lp(program)
        ref = scipy_opt.linprog(-program.c, A_eq=program.A_eq, b_eq=program.b_eq,
                                A_ub=program.A_le, b_ub=program.b_le,
                                bounds=(0, None), method="highs")
        assert ours.status == "optimal" and ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-9 * lp_scale(program))


# ---------------------------------------------------------------------------
# build_persuasion_lp
# ---------------------------------------------------------------------------

def test_persuasion_lp_k2_full_revelation():
    # k=2, N=2 grid, trivial constraint, infinity-norm utility: the optimum
    # is full revelation with value 1 at x = (1/2, 0, 1/2).
    # Oracle: enumerate the basic solutions of the 3-variable LP by hand.
    grid = geometry.build_grid(2, 1.0)
    prior = uniform_prior(2)
    spec = ConstraintSpec.linear([1.0, 1.0], bound=2.0)
    sm = smooth_constraint(spec, 0.5)
    program = build_persuasion_lp([(grid.vertices, [1.0, 0.5, 1.0])], 3, [(sm, 2.5)],
                                  prior)
    sol = solve_lp(program)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.5, 0.0, 0.5], atol=1e-12)
    assert sol.value == pytest.approx(1.0)


def test_persuasion_lp_rejects_mismatched_columns():
    points = geometry.build_grid(2, 1.0).vertices
    with pytest.raises(LpError, match="prior dimension"):
        build_persuasion_lp([(points, [1.0, 0.5, 1.0])], 3, [], uniform_prior(3))
    with pytest.raises(LpError, match="objective length"):
        build_persuasion_lp([(points, [1.0, 0.5])], 3, [], uniform_prior(2))


def test_weak_duality_spot_check():
    # For max c.x s.t. Ax = b, x >= 0, any y with y.A >= c gives the bound
    # y.b >= value.  Hand-computed dual points for the k=2, N=2 fixture LP.
    A = np.array([[0.0, 0.5, 1.0],   # barycenter row (p[0])
                  [1.0, 1.0, 1.0]])  # normalization
    b = np.array([0.5, 1.0])
    c = np.array([1.0, 0.5, 1.0])
    sol = solve_lp(lp_max(c, A_eq=A, b_eq=b))
    assert sol.status == "optimal"
    for y in (np.array([0.0, 1.0]), np.array([1.0, 1.0])):
        assert np.all(y @ A >= c - 1e-12)
        assert sol.value <= y @ b + 1e-9


def test_persuasion_lp_prior_vertex_constant_utility():
    grid = geometry.build_grid(2, 0.5)
    u = UtilitySpec.max_linear(np.full((1, 2), 0.7))
    gridded = objectives.build_upper_approx(u, eps=0.5, lipschitz_bound=1.0)
    program = build_persuasion_lp(gridded.blocks(), gridded.grid.vertex_count, [],
                                  uniform_prior(2))
    sol = solve_lp(program)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.7)
    del grid


def test_against_scipy_highs_if_available():
    # Optional cross-check against an industrial solver when scipy is around.
    scipy_opt = pytest.importorskip("scipy.optimize")
    from helpers import random_instance
    from persuade import constraints as _constraints
    rng = np.random.default_rng(424242)
    for trial in range(8):
        k = 2 + trial % 2
        inst, _ = random_instance(rng, k=k, m=int(rng.integers(1, 4)))
        eps2 = 0.1
        smoothed = [_constraints.smooth_constraint(c, eps2, k=k)
                    for c in inst.constraints]
        M = max(s.lipschitz_constant for s in smoothed)
        gridded = objectives.build_upper_approx(inst.utility, eps2, M)
        prog = build_persuasion_lp(
            gridded.blocks(), gridded.grid.vertex_count,
            [(s, c.bound + eps2) for s, c in zip(smoothed, inst.constraints)],
            inst.prior)
        ours = solve_lp(prog)
        ref = scipy_opt.linprog(-prog.c, A_eq=prog.A_eq, b_eq=prog.b_eq,
                                A_ub=prog.A_le, b_ub=prog.b_le,
                                bounds=(0, None), method="highs")
        assert ours.status == "optimal" and ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-8)


def test_persuasion_lp_support_bound_k_plus_m():
    rng = np.random.default_rng(13)
    grid = geometry.build_grid(3, 0.2)
    u = UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, 3)))
    gridded = objectives.build_upper_approx(u, eps=0.2, lipschitz_bound=1.0)
    prior = uniform_prior(3)
    specs = [ConstraintSpec.linear(rng.uniform(0, 1, size=3), bound=0.0)
             for _ in range(2)]
    pairs = []
    for s in specs:
        base = float(s.coeffs @ prior.weights)
        pairs.append((smooth_constraint(s.with_bound(base + 0.05), 0.1),
                      base + 0.05))
    program = build_persuasion_lp(gridded.blocks(), gridded.grid.vertex_count,
                                  pairs, prior)
    sol = solve_lp(program)
    assert sol.status == "optimal"
    assert np.count_nonzero(sol.x > 1e-12) <= 3 + 2  # k + m


def test_kl_constraints_share_one_projection(monkeypatch):
    # Two KL constraints smoothed to one contraction, as in the two-KL
    # benchmark instance: one projection of the grid per LP build, and rows
    # equal to evaluating each constraint on its own.
    prior = uniform_prior(3)
    specs = [ConstraintSpec.grouped_kl([(0,), (1,), (2,)], 1.0, np.full(3, 1 / 3), 0.2),
             ConstraintSpec.grouped_kl([(0, 1), (2,)], 1.0, [2 / 3, 1 / 3], 0.2)]
    smoothed = [smooth_constraint(spec, 0.05) for spec in specs]
    assert smoothed[0].contraction == smoothed[1].contraction
    u = UtilitySpec.max_linear(np.eye(3))
    gridded = objectives.build_upper_approx(u, eps=0.05, lipschitz_bound=1.0)
    calls = []
    project = geometry.project_to_contraction_batch
    monkeypatch.setattr(geometry, "project_to_contraction_batch",
                        lambda Q, eps: calls.append(eps) or project(Q, eps))
    program = build_persuasion_lp(gridded.blocks(), gridded.grid.vertex_count,
                                  [(sm, 0.25) for sm in smoothed], prior)
    assert calls == [smoothed[0].contraction]
    for row, sm in zip(program.A_le, smoothed):
        assert np.array_equal(row, sm.eval_batch(gridded.grid.vertices, prior))



def test_zero_column_lp_keeps_its_rows_and_is_infeasible():
    program = LinearProgram(c=np.zeros(0), A_eq=np.zeros((2, 0)), b_eq=[0.5, 1.0],
                            A_le=np.zeros((1, 0)), b_le=[0.3])
    assert (program.A_eq.shape, program.A_le.shape, program.n_rows) == ((2, 0), (1, 0), 3)
    assert solve_lp(program).status == "infeasible"


def test_persuasion_lp_with_no_column():
    prior = uniform_prior(3)
    sm = smooth_constraint(ConstraintSpec.linear([1.0, 0.0, 0.0], bound=0.5), 0.1)
    program = build_persuasion_lp(iter(()), 10, [(sm, 0.6)], prior)
    assert program.n_vars == 0
    assert (program.A_eq.shape, program.A_le.shape) == ((3, 0), (1, 0))
    np.testing.assert_array_equal(program.b_eq, [1 / 3, 1 / 3, 1.0])
    assert solve_lp(program).status == "infeasible"


def test_persuasion_lp_over_blocks_is_the_one_block_lp():
    # Blocks of 0 to 77 columns, one of them empty, give the arrays of one
    # block bit for bit; the two KL constraints share one contraction, so
    # each block projects its points once for both rows.
    prior = uniform_prior(3)
    specs = [ConstraintSpec.grouped_kl([(0,), (1,), (2,)], 1.0, np.full(3, 1 / 3), 0.2),
             ConstraintSpec.grouped_kl([(0, 1), (2,)], 1.0, [2 / 3, 1 / 3], 0.2)]
    smoothed = [smooth_constraint(spec, 0.05) for spec in specs]
    assert smoothed[0].contraction == smoothed[1].contraction
    bounds = [(sm, 0.25) for sm in smoothed]
    gridded = objectives.build_upper_approx(UtilitySpec.max_linear(np.eye(3)), eps=0.1,
                                            lipschitz_bound=1.0)
    points, values = gridded.grid.vertices, vertex_values(gridded)
    V = len(values)
    whole = build_persuasion_lp([(points, values)], V, bounds, prior)
    assert np.shares_memory(whole.c, values)  # a lone full block is not copied

    def blocked(cuts, capacity):
        blocks = [(points[a:b], values[a:b]) for a, b in zip(cuts, cuts[1:])]
        program = build_persuasion_lp(iter(blocks), capacity, bounds, prior)
        assert not np.shares_memory(program.c, values)
        return [program.c, program.A_eq, program.b_eq, program.A_le, program.b_le]

    reference = [whole.c, whole.A_eq, whole.b_eq, whole.A_le, whole.b_le]
    for capacity in (V, V + 9):
        for ours, ref in zip(blocked([0, 40, 40, 117, V - 2, V], capacity), reference):
            assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()
            with pytest.raises(ValueError):
                ours[..., 0] = 0.0
    # numpy multiplies a one-row matrix by another kernel than a many-row
    # one, so a block of one column can differ in the last bit of its KL
    # rows, and in nothing else.
    ours = blocked([0, 40, V - 1, V], V)
    np.testing.assert_array_max_ulp(ours[3], whole.A_le, maxulp=1)
    for a, ref in zip(ours[:3], reference):
        assert a.tobytes() == ref.tobytes()
