"""End-to-end solving pipelines.

Every grid solve runs the same three stages, once each:

    build_surrogate -> solve_surrogate -> verify_scheme

build_surrogate smooths the ex-ante constraints, builds the upper utility
approximation on a grid whose diameter matches the largest constraint
Lipschitz constant, drops the grid vertices that break an ex-post constraint
and assembles the finite LP over grid-vertex probabilities with the bounds
relaxed by eps/2.  Ex-post constraints never become LP rows: restricting the
columns to the feasible region also caps the support size at k.
solve_surrogate runs the LP, reads the scheme off its support and reports it
through core.verify_scheme against the caller's instance.

bi_criteria_solve: the two stages at eps.  The result is additively
eps-optimal and violates each ex-ante constraint by at most eps; Bayes
plausibility holds exactly.

single_criteria_solve: under a caller-asserted Slater margin, the surrogate
strengthens every ex-ante bound by eps/2 and is built at eps/2, so the output
satisfies the original constraints exactly.

ex_ante_to_ex_post: the pooling conversion.  For each convex constraint in
turn, a violating posterior is pooled with a strictly feasible one at the
boundary point of the constraint; mass updates conserve the barycenter, the
expectation of every convex constraint never increases, and each step
shrinks the set of non-tight posteriors, so the pass ends within
support-size many steps.

oracle_solve: an independent brute-force reference that enumerates candidate
(support, tight-constraint) pairs over a small explicit grid and solves each
square system directly, never touching the simplex solver or the grid
pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import constraints as _constraints
from . import lp, objectives
from .core import (EX_ANTE, SUM_TOL, ConstraintReport, DimensionMismatch,
                   InfeasibleError, Posterior, ProblemInstance,
                   ResourceLimitError, SignalingScheme, UnsupportedKindError,
                   ValidationError, eval_constraint_batch, eval_utility_batch,
                   verify_scheme)

MASS_EPS = 1e-12
POOL_TOL = 1e-12
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SolveReport:
    scheme: SignalingScheme
    value: float          # E[scheme, u_s], the true expected utility
    lp_value: float       # optimum of the surrogate LP objective
    eps: float
    mode: str             # bi_criteria | single_criteria | ex_post_restricted
    grid_denominator: int | None
    grid_vertex_count: int
    constraints: tuple[ConstraintReport, ...]
    support_size: int
    plausibility_deviation: float

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "lp_value": self.lp_value,
            "eps": self.eps,
            "mode": self.mode,
            "grid_denominator": self.grid_denominator,
            "grid_vertex_count": self.grid_vertex_count,
            "support_size": self.support_size,
            "plausibility_deviation": self.plausibility_deviation,
            "constraints": [asdict(c) for c in self.constraints],
        }


@dataclass(frozen=True, eq=False)
class Surrogate:
    """The grid LP standing in for one solve, before it is run.

    ``instance`` and ``eps`` are the caller's; the LP itself may be built
    from a strengthened copy at a smaller eps (single-criteria mode).
    ``mask`` marks the grid vertices that are LP columns, or is None when
    every vertex is one.
    """

    instance: ProblemInstance
    eps: float
    mode: str             # as SolveReport.mode
    slater_margin: float | None
    smoothed: tuple[_constraints.SmoothedConstraint, ...]
    gridded: objectives.GriddedUtility
    mask: np.ndarray | None
    program: lp.LinearProgram


def _require_finite_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive")


def _raise_infeasible(reason: str, eps: float, slater_margin: float | None):
    """Raise InfeasibleError, phrased for single-criteria mode when it applies."""
    if slater_margin is None:
        raise InfeasibleError(reason)
    raise InfeasibleError(
        f"strengthened problem infeasible: eps={eps:g} exceeds the "
        f"admissible range for the claimed Slater margin "
        f"{slater_margin:g}") from InfeasibleError(reason)


def build_surrogate(instance: ProblemInstance, eps: float, *,
                    slater_margin: float | None = None,
                    grid_cap: int | None = None,
                    align_multiple: int = 1) -> Surrogate:
    """Smooth, grid, filter by the ex-post constraints and assemble the LP.

    The surrogate is the bi-criteria one, or with ``slater_margin`` the
    single-criteria one (see single_criteria_solve).  Raises InfeasibleError
    when no grid vertex satisfies the ex-post constraints, and
    ResourceLimitError when the grid exceeds the vertex cap.
    """
    _require_finite_positive("eps", eps)
    target, relax = instance, eps
    if slater_margin is None:
        mode = ("ex_post_restricted"
                if instance.ex_post() and not instance.ex_ante() else "bi_criteria")
    else:
        _require_finite_positive("slater_margin", slater_margin)
        if eps > 2.0 * slater_margin:
            raise ValidationError(
                f"eps={eps:g} exceeds the admissible range (2 * slater_margin = "
                f"{2 * slater_margin:g})")
        mode, relax = "single_criteria", eps / 2.0
        target = ProblemInstance(
            instance.k, instance.prior, instance.utility,
            tuple(c.with_bound(c.bound - relax) if c.mode == EX_ANTE else c
                  for c in instance.constraints))
    ex_ante, ex_post = target.ex_ante(), target.ex_post()
    eps2 = relax / 2.0
    smoothed = tuple(_constraints.smooth_constraint(c, eps2, k=target.k)
                     for c in ex_ante)
    M = max((s.lipschitz_constant for s in smoothed), default=0.0)
    gridded = objectives.build_upper_approx(target.utility, eps2, M,
                                            vertex_cap=grid_cap,
                                            align_multiple=align_multiple)
    mask = None
    if ex_post:
        mask = np.ones(gridded.grid.vertex_count, dtype=bool)
        for spec in ex_post:
            vals = eval_constraint_batch(spec, gridded.grid.vertices, target.prior)
            mask &= vals <= spec.bound + BOUNDARY_TOL
        if not mask.any():
            _raise_infeasible("no grid vertex satisfies the ex-post constraints",
                              eps, slater_margin)
    program = lp.build_persuasion_lp(
        gridded.grid, gridded,
        [(s, c.bound + eps2) for s, c in zip(smoothed, ex_ante)],
        target.prior, vertex_mask=mask)
    return Surrogate(instance=instance, eps=eps, mode=mode,
                     slater_margin=slater_margin, smoothed=smoothed,
                     gridded=gridded, mask=mask, program=program)


def solve_surrogate(surrogate: Surrogate) -> SolveReport:
    """Run the surrogate LP and report its scheme against the caller's instance.

    Raises InfeasibleError when the LP admits no scheme, and NumericError when
    the scheme breaks Bayes plausibility or the k+m support bound.
    """
    s = surrogate
    sol = lp.solve_lp(s.program)
    if sol.status == "infeasible":
        relax = s.eps if s.slater_margin is None else s.eps / 2.0
        _raise_infeasible(f"grid LP infeasible at eps={relax:g}: no valid scheme "
                          "exists at this relaxation", s.eps, s.slater_margin)
    if sol.status != "optimal":  # pragma: no cover - probability LPs are bounded
        raise lp.NumericError(f"unexpected LP status {sol.status}")
    columns = np.flatnonzero(sol.x > MASS_EPS)
    probs = sol.x[columns]
    if s.mask is not None:
        columns = np.flatnonzero(s.mask)[columns]
    scheme = SignalingScheme.from_points(s.gridded.grid.vertices[columns],
                                         probs / probs.sum())
    report = verify_scheme(s.instance, scheme)
    deviation = report.plausibility_deviation
    if deviation > SUM_TOL:  # pragma: no cover - LP equality rows enforce this
        raise lp.NumericError(f"solver output violates Bayes plausibility by {deviation:g}")
    max_support = s.instance.k + len(s.smoothed)
    if scheme.size > max_support:  # pragma: no cover - basic solutions obey this
        raise lp.NumericError(
            f"support {scheme.size} exceeds the k+m bound {max_support}")
    return SolveReport(scheme=scheme, value=report.utility,
                       lp_value=float(sol.value), eps=s.eps, mode=s.mode,
                       grid_denominator=s.gridded.grid.denominator,
                       grid_vertex_count=s.program.n_vars,
                       constraints=report.constraints, support_size=scheme.size,
                       plausibility_deviation=deviation)


def bi_criteria_solve(instance: ProblemInstance, eps: float, *,
                      grid_cap: int | None = None,
                      align_multiple: int = 1) -> SolveReport:
    """Additively eps-optimal scheme violating each ex-ante constraint <= eps.

    Raises InfeasibleError when even the relaxed LP admits no scheme, and
    ResourceLimitError when the required grid exceeds the vertex cap.
    """
    return solve_surrogate(build_surrogate(instance, eps, grid_cap=grid_cap,
                                           align_multiple=align_multiple))


def single_criteria_solve(instance: ProblemInstance, eps: float,
                          slater_margin: float, *,
                          grid_cap: int | None = None,
                          align_multiple: int = 1) -> SolveReport:
    """Exactly valid, additively eps-optimal scheme under a Slater margin.

    The caller asserts some scheme satisfies every ex-ante constraint with
    slack >= slater_margin; the ex-ante bounds are strengthened by eps/2 and
    the surrogate is built at eps/2, so its <= eps/2 violations land inside
    the original bounds.
    """
    return solve_surrogate(build_surrogate(instance, eps,
                                           slater_margin=slater_margin,
                                           grid_cap=grid_cap,
                                           align_multiple=align_multiple))


# ---------------------------------------------------------------------------
# Ex-ante -> ex-post conversion (pooling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConversionStep:
    constraint_index: int
    bayes_deviation: float
    expectations: np.ndarray  # E[f_j] for every constraint, post-step
    support_size: int


@dataclass
class ConversionTrace:
    initial_expectations: np.ndarray
    entry_support_sizes: list[int] = field(default_factory=list)
    steps: list[ConversionStep] = field(default_factory=list)

    def steps_for(self, j: int) -> list[ConversionStep]:
        return [s for s in self.steps if s.constraint_index == j]


def _bisect_boundary(f, q_S: np.ndarray, q_T: np.ndarray, c: float,
                     tol: float = BOUNDARY_TOL) -> tuple[float, np.ndarray]:
    """lambda in (0,1) with f at the mixture on the feasible side of c.

    Convexity of f gives a unique crossing on the segment; the bracket keeps
    f(q_c) <= c while closing the gap to within tol.
    """
    lam_bad, lam_good = 0.0, 1.0
    val_good = f(q_S)
    for _ in range(200):
        mid = 0.5 * (lam_bad + lam_good)
        q_mid = mid * q_S + (1.0 - mid) * q_T
        v = f(q_mid)
        if v <= c:
            lam_good, val_good = mid, v
        else:
            lam_bad = mid
        if c - val_good <= tol and lam_good < 1.0:
            break
        if lam_good - lam_bad < 1e-16:
            break
    if val_good > c + tol:  # pragma: no cover - bracket invariant
        raise lp.NumericError("bisection failed to reach the boundary")
    return lam_good, lam_good * q_S + (1.0 - lam_good) * q_T


def ex_ante_to_ex_post(scheme: SignalingScheme,
                       constraint_specs, prior: Posterior, *,
                       trace: bool = False):
    """Convert an ex-ante-feasible scheme into an ex-post-feasible one.

    Processes the constraints in order; each pooling step moves the mass of
    a violating posterior and a strictly feasible one onto the constraint
    boundary using pre-update mass values, which conserves the barycenter
    exactly.  Returns the scheme, or (scheme, trace) when trace=True.
    """
    specs = tuple(constraint_specs)
    for spec in specs:
        if not spec.is_convex:
            raise UnsupportedKindError(
                f"constraint kind {spec.kind!r} is not convex; the pooling "
                "conversion requires convex constraints")
        spec.check_dimension(scheme.k)
    points = [np.array(p.weights) for p in scheme.support]
    probs = [float(x) for x in scheme.probs]

    def expectations() -> np.ndarray:
        P = np.vstack(points)
        w = np.asarray(probs)
        return np.array([w @ eval_constraint_batch(s, P, prior) for s in specs]) \
            if specs else np.zeros(0)

    exp0 = expectations()
    for j, spec in enumerate(specs):
        if exp0[j] > spec.bound + BOUNDARY_TOL:
            raise ValidationError(
                f"input scheme violates ex-ante constraint {j} "
                f"({exp0[j]:.6g} > {spec.bound:.6g})")
    tr = ConversionTrace(initial_expectations=exp0) if trace else None

    for j, spec in enumerate(specs):
        c = spec.bound
        if tr is not None:
            tr.entry_support_sizes.append(len(points))
        guard = 0
        while True:
            P = np.vstack(points)
            fvals = eval_constraint_batch(spec, P, prior)
            T = [i for i in range(len(points)) if fvals[i] > c + POOL_TOL]
            if not T:
                break
            S = [i for i in range(len(points)) if fvals[i] < c - POOL_TOL]
            if not S:
                raise lp.NumericError(
                    "pooling stalled: violators remain but no strictly "
                    "feasible posterior is left")
            guard += 1
            if guard > 4 * (scheme.size + len(specs)) + 16:  # pragma: no cover
                raise lp.NumericError("pooling exceeded its step budget")
            i_T = max(T, key=lambda i: (fvals[i], -i))
            i_S = min(S, key=lambda i: (fvals[i], i))
            q_T, q_S = points[i_T], points[i_S]
            r_T, r_S = probs[i_T], probs[i_S]

            def f_of(x: np.ndarray) -> float:
                return float(eval_constraint_batch(spec, x[None, :], prior)[0])

            lam, q_c = _bisect_boundary(f_of, q_S, q_T, c)
            if lam * r_T >= (1.0 - lam) * r_S:
                r_c = r_S / lam
                new_r_T = r_T - (1.0 - lam) * r_S / lam
                removals = [i_S]
                updates = [(i_T, new_r_T)]
            else:
                r_c = r_T / (1.0 - lam)
                new_r_S = r_S - lam * r_T / (1.0 - lam)
                removals = [i_T]
                updates = [(i_S, new_r_S)]
            for idx, val in updates:
                probs[idx] = max(val, 0.0)
                if probs[idx] <= MASS_EPS:
                    removals.append(idx)
            for idx in sorted(set(removals), reverse=True):
                del points[idx]
                del probs[idx]
            for i, pt in enumerate(points):
                if np.max(np.abs(pt - q_c)) <= MASS_EPS:
                    probs[i] += r_c
                    break
            else:
                points.append(q_c)
                probs.append(r_c)
            if tr is not None:
                P = np.vstack(points)
                w = np.asarray(probs)
                dev = float(np.max(np.abs(w @ P - prior.weights)))
                tr.steps.append(ConversionStep(
                    constraint_index=j, bayes_deviation=dev,
                    expectations=expectations(), support_size=len(points)))
    out = SignalingScheme.from_points(np.vstack(points), np.asarray(probs))
    return (out, tr) if trace else out


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    status: str  # optimal | infeasible
    value: float
    scheme: SignalingScheme | None
    candidates_checked: int


def oracle_solve(instance: ProblemInstance, grid, *, max_vertices: int = 25,
                 exact: bool = False) -> OracleReport:
    """Reference solve by enumerating candidate basic solutions.

    The grid is a SimplexGrid or a plain (V, k) vertex array with at most
    ``max_vertices`` points (and k <= 3).  For every subset A of ex-ante
    constraints held tight and every support of size up to k + |A|, the
    square linear system (Bayes plausibility + normalization + tight rows)
    is solved directly; feasible solutions are compared on the true Sender
    utility.  With exact=True the systems are solved in rational arithmetic
    (every float is a binary rational, so this is exact for the given data).
    """
    vertices = np.atleast_2d(np.asarray(getattr(grid, "vertices", grid), dtype=float))
    V, k = vertices.shape
    if k != instance.k:
        raise DimensionMismatch("grid dimension != instance k")
    if k > 3:
        raise ResourceLimitError("oracle supports k <= 3")
    if V > max_vertices:
        raise ResourceLimitError(
            f"oracle grid has {V} vertices, cap is {max_vertices}")
    prior = instance.prior.weights
    ex_post = instance.ex_post()
    keep = np.ones(V, dtype=bool)
    for spec in ex_post:
        keep &= eval_constraint_batch(spec, vertices, instance.prior) \
            <= spec.bound + BOUNDARY_TOL
    vertices = vertices[keep]
    V = vertices.shape[0]
    if V == 0:
        return OracleReport("infeasible", float("nan"), None, 0)
    ex_ante = instance.ex_ante()
    m = len(ex_ante)
    util = eval_utility_batch(instance.utility, vertices)
    F = np.vstack([eval_constraint_batch(s, vertices, instance.prior)
                   for s in ex_ante]) if m else np.zeros((0, V))
    bounds = np.array([s.bound for s in ex_ante])

    best_value = -math.inf
    best_w = None
    best_support = None
    checked = 0
    base_rows = np.vstack([vertices.T, np.ones((1, V))])  # (k+1, V)
    base_rhs = np.concatenate([prior, [1.0]])
    for a_size in range(m + 1):
        for A in itertools.combinations(range(m), a_size):
            rows = np.vstack([base_rows] + [F[list(A)]]) if A else base_rows
            rhs = np.concatenate([base_rhs, bounds[list(A)]]) if A else base_rhs
            max_s = min(k + a_size, V)
            for s in range(1, max_s + 1):
                for S in itertools.combinations(range(V), s):
                    sub = vertices[list(S)]
                    if np.any(prior < sub.min(axis=0) - 1e-9) or \
                       np.any(prior > sub.max(axis=0) + 1e-9):
                        continue
                    checked += 1
                    M_sys = rows[:, list(S)]
                    rhs_sys = rhs
                    w = _solve_unique(M_sys, rhs_sys, exact=exact)
                    if w is None:
                        continue
                    if np.any(w < -1e-10):
                        continue
                    if np.max(np.abs(M_sys @ w - rhs_sys)) > 1e-8:
                        continue
                    if m:
                        ev = F[:, list(S)] @ w
                        if np.any(ev > bounds + BOUNDARY_TOL):
                            continue
                    value = float(util[list(S)] @ w)
                    if value > best_value + 1e-15:
                        best_value = value
                        best_w = np.clip(w, 0.0, None)
                        best_support = list(S)
    if best_w is None:
        return OracleReport("infeasible", float("nan"), None, checked)
    scheme = SignalingScheme.from_points(vertices[best_support],
                                         best_w / best_w.sum())
    return OracleReport("optimal", best_value, scheme, checked)


def _solve_unique(M: np.ndarray, rhs: np.ndarray, exact: bool):
    """Unique solution of an (over)determined system, or None."""
    if exact:
        return _solve_unique_exact(M, rhs)
    sol, residual, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < M.shape[1]:
        return None
    return sol


def _solve_unique_exact(M: np.ndarray, rhs: np.ndarray):
    rows, cols = M.shape
    A = [[Fraction(M[i, j]) for j in range(cols)] + [Fraction(rhs[i])]
         for i in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if pivot is None:
            return None  # rank-deficient: not a unique basic solution
        A[r], A[pivot] = A[pivot], A[r]
        inv = A[r][c]
        A[r] = [x / inv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                factor = A[i][c]
                A[i] = [x - factor * y for x, y in zip(A[i], A[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if A[i][cols] != 0:
            return None  # inconsistent
    if len(pivot_cols) < cols:
        return None
    return np.array([float(A[i][cols]) for i in range(cols)])
