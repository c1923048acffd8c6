"""End-to-end solving pipelines.

Every grid solve runs the same three stages, once each:

    build_surrogate -> solve_surrogate -> verify_scheme

build_surrogate smooths the ex-ante constraints, builds the upper utility
approximation on a grid whose diameter matches the largest constraint
Lipschitz constant, and assembles the LP over the probabilities of the grid
vertices that satisfy every ex-post constraint, bounds relaxed by eps/2.
Ex-post constraints never become LP rows; restricting the columns caps the
support size at k.  The grid is read block by block (geometry.LATTICE_BLOCK
rows): lp.build_persuasion_lp writes each block's ex-post feasible columns
and their vertex values straight into LP arrays sized for the whole grid,
the kept columns packed at the front, so no (V, k) vertex array outlives
its block.  No vertex array is kept either: Surrogate.posteriors recovers a
lattice column's posterior from its A_eq entries and N, bit for bit.
solve_surrogate runs the LP, reads the scheme off the posteriors of its
support columns and reports it through core.verify_scheme against the
caller's instance.

A lattice of more than one block with no ex-post constraint is solved
lazily, by column generation (_lazy_program): a master LP over a few
thousand lattice columns is priced against the whole lattice by a dyadic
descent over boxes in partial-sum coordinates, each box bounded by its
center's reduced cost plus the most the reduced cost can rise from there:
the (super)gradient ranges of its parts over the box (_box_gradient) taken
against the box's l1 radius or against its extent along each partial-sum
axis, whichever bounds lower (_box_reach).  A level that prunes no box
has its boxes split twice, so the level below it is never priced: a column
with reduced cost above lp.FEAS_TOL lies in boxes whose bounds are all at
least that cost, so it is reached either way.  The loop ends when no box
can hold a column with reduced cost above lp.FEAS_TOL, which certifies the
master optimum for all V columns, as the simplex's full pricing pass does;
the LP value equals the full grid's within that tolerance, while the
optimal basis, and so the scheme, may differ.  Under 1 % of the KL
benchmark grid is evaluated, and 0.25-2 % of the k = 4 auction grids,
the first master alone certifying most revenue auctions.  Only when the
first master is infeasible is the grid built blockwise as above: without
Farkas pricing, an infeasible master proves nothing about the grid.
Either way the report counts all grid columns, and Surrogate.grid_columns
streams them.

bi_criteria_solve: the two stages at eps.  The result is additively
eps-optimal and violates each ex-ante constraint by at most eps; Bayes
plausibility holds exactly.

single_criteria_solve: under a caller-asserted Slater margin, the surrogate
strengthens every ex-ante bound by eps/2 and is built at eps/2, so the output
satisfies the original constraints exactly.

ex_ante_to_ex_post: the pooling conversion.  For each convex constraint in
turn, the worst violating posterior is pooled with the most strictly
feasible one (lowest index on ties) at the boundary point of the constraint;
mass updates conserve the barycenter, the expectation of every convex
constraint never increases, and each step shrinks the set of non-tight
posteriors, so the pass ends within support-size many steps (NumericError
past 4(s+m)+16).  The support is one (s, k) array with one mass vector for
the whole run: emptied points leave through one mask, and the pooled point
joins through core.merge_row, the merge rule of SignalingScheme.  The
boundary point is found by bisection on the segment, closed until the
pooled point is within POOL_TOL of the bound, so it counts as tight rather
than strictly feasible in later steps; each constraint evaluation covers
BISECT_LEVELS levels of the bisection at once (33 points on the segment),
and the levels are then walked one at a time, so the result is that of a
one-point bisection, bit for bit.

oracle_solve: an independent brute-force reference that enumerates candidate
(support, tight-constraint) pairs over a small explicit grid and solves each
system directly, never touching the simplex solver or the grid pipeline.
The supports of each size are enumerated and filtered by the prior's box
once; every (tight set, support size) group is then solved in stacks of up
to ORACLE_BATCH systems through a batched SVD with np.linalg.lstsq's rank
rule, checked for nonnegativity, residual and the ex-ante bounds as arrays,
and only the candidates that pass are walked, in enumeration order, so the
first best value within 1e-15 wins.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import constraints as _constraints
from . import geometry, lp, objectives
from .core import (EX_ANTE, SUM_TOL, ConstraintReport, DimensionMismatch,
                   InfeasibleError, Posterior, ProblemInstance,
                   ResourceLimitError, SignalingScheme, UnsupportedKindError,
                   ValidationError, eval_constraint_batch, eval_utility_batch,
                   merge_row, verify_scheme)

MASS_EPS = 1e-12
POOL_TOL = 1e-12
BOUNDARY_TOL = 1e-9
BISECT_LEVELS = 5     # bisection levels per constraint evaluation
ORACLE_MAX_VERTICES = 25
ORACLE_BATCH = 4096    # candidate systems per batched oracle solve
MASTER_STRIDE = 8      # least partial-sum stride of the first master's sub-lattice
BOX_CHUNK = 1 << 12    # boxes priced at once, which bounds the pricing's temporaries

log = logging.getLogger(__name__)


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
    """The grid LP standing in for one solve.

    ``instance`` and ``eps`` are the caller's; the LP itself may be built
    from a strengthened copy at a smaller eps (single-criteria mode).
    Column j of ``program`` is the probability of the j-th grid vertex, in
    vertex order, that satisfies every ex-post constraint; the columns were
    assembled grid block by grid block, and no vertex array is kept:
    posteriors()[j] recovers column j's posterior.  A lazy build (see
    _lazy_program) keeps only the master's columns, still in vertex order,
    and its ``solution``, whose optimality was certified over all
    ``column_count`` grid columns; otherwise the LP has not been run.
    ``gridded`` is the upper approximation the LP was built from.
    """

    instance: ProblemInstance
    eps: float
    mode: str             # as SolveReport.mode
    slater_margin: float | None
    gridded: objectives.GriddedUtility
    program: lp.LinearProgram
    column_count: int     # grid columns the LP stands for
    solution: lp.LpSolution | None = None

    @property
    def grid_denominator(self) -> int | None:
        return self.gridded.grid.denominator

    def grid_columns(self):
        """(posteriors, objective values) of every grid column, block by
        block, in column order; a full build's program holds these columns
        bit for bit."""
        return _ex_post_columns(self.instance, self.gridded.blocks())

    def posteriors(self, columns=slice(None)) -> np.ndarray:
        """(len, k) posteriors of the LP ``columns`` (all by default).

        On a lattice of denominator N, A_eq[i, j] = x_i / N for i < k-1, so
        x_i = rint(A_eq[i, j] N), x_k = N - sum, and x / N is the vertex bit
        for bit, with or without an ex-post filter.  A piece grid's columns
        are its vertices that pass the filter again; the strengthened copy
        of single-criteria mode keeps the caller's ex-post constraints.
        """
        grid = self.gridded.grid
        N = grid.denominator
        if N is None:
            points = grid.vertices
            return points[_ex_post_feasible(self.instance, points)][columns]
        x = np.rint(self.program.A_eq[:-1, columns].T * N)
        return np.column_stack([x, N - x.sum(axis=1)]) / N


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


def _ex_post_feasible(instance: ProblemInstance, points: np.ndarray) -> np.ndarray:
    """Which rows of ``points`` meet every ex-post bound within BOUNDARY_TOL."""
    keep = np.ones(points.shape[0], dtype=bool)
    for spec in instance.ex_post():
        vals = eval_constraint_batch(spec, points, instance.prior)
        keep &= vals <= spec.bound + BOUNDARY_TOL
    return keep


def build_surrogate(instance: ProblemInstance, eps: float, *,
                    slater_margin: float | None = None,
                    grid_cap: int | None = None,
                    align_multiple: int = 1) -> Surrogate:
    """Smooth, grid, filter by the ex-post constraints and assemble the LP.

    The surrogate is the bi-criteria one, or with ``slater_margin`` the
    single-criteria one (see single_criteria_solve).  Raises InfeasibleError
    when no grid vertex satisfies the ex-post constraints, and
    ResourceLimitError when the grid exceeds the vertex cap or has more
    vertices than an array can index.
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
    ex_ante = target.ex_ante()
    eps2 = relax / 2.0
    smoothed = tuple(_constraints.smooth_constraint(c, eps2, k=target.k)
                     for c in ex_ante)
    M = max((s.lipschitz_constant for s in smoothed), default=0.0)
    gridded = objectives.build_upper_approx(target.utility, eps2, M,
                                            vertex_cap=grid_cap,
                                            align_multiple=align_multiple)
    bounds = [(s, c.bound + eps2) for s, c in zip(smoothed, ex_ante)]
    grid = gridded.grid
    if grid.vertex_count > np.iinfo(np.intp).max // 4:  # a (V,) int32 index must fit
        raise ResourceLimitError(
            f"grid would need {grid.vertex_count} vertices (k={grid.k}, "
            f"N={grid.denominator}), more than an array can index")
    lazy = None
    if grid.denominator is not None and grid.vertex_count > geometry.LATTICE_BLOCK \
            and not target.ex_post():
        lazy = _lazy_program(gridded, bounds, target.prior)
    if lazy is not None:
        return Surrogate(instance=instance, eps=eps, mode=mode,
                         slater_margin=slater_margin, gridded=gridded,
                         program=lazy[0], column_count=grid.vertex_count,
                         solution=lazy[1])
    program = lp.build_persuasion_lp(_ex_post_columns(target, gridded.blocks()),
                                     grid.vertex_count, bounds, target.prior)
    if program.n_vars == 0:
        _raise_infeasible("no grid vertex satisfies the ex-post constraints",
                          eps, slater_margin)
    return Surrogate(instance=instance, eps=eps, mode=mode, slater_margin=slater_margin,
                     gridded=gridded, program=program, column_count=program.n_vars)


def _ex_post_columns(instance: ProblemInstance, blocks):
    """The (points, values) blocks cut to the rows that meet every ex-post bound."""
    for points, values in blocks:
        if instance.ex_post():
            keep = _ex_post_feasible(instance, points)
            points, values = points[keep], values[keep]
        yield points, values


def _lazy_program(gridded: objectives.GriddedUtility, bounds, prior: Posterior
                  ) -> tuple[lp.LinearProgram, lp.LpSolution] | None:
    """The grid LP restricted to a master set of lattice columns, and its
    solution, certified optimal over every column; or None when the first
    master is infeasible, which without Farkas pricing proves nothing about
    the grid.

    Column generation (Gilmore and Gomory 1961): each round solves the
    master and prices the lattice against its duals y by a dyadic descent
    over boxes in partial-sum coordinates.  A box's columns have reduced
    cost r = c - y.A at most r(center) + _box_reach (Piyavskii 1972); a
    box is pruned when that is <= FEAS_TOL, and boxes of side 1 that
    survive are the improving columns.  A level that prunes no box has its
    boxes split twice, skipping the level below, unless that is side 1,
    whose bound is r itself.  This drops no improving column: each box
    holding a column with r > FEAS_TOL is bounded by at least r, so it
    survives whichever levels are priced, and each round adds the same
    side-1 survivors.  A master only grows, so only the first can be
    infeasible.  The loop ends when a round adds no column, so, as with the
    full pass of lp.solve_lp, the optimum holds over all V.  The first
    master is the sub-lattice of the smallest power-of-two stride, at least
    MASTER_STRIDE, that fits in the simplex's first working set
    (lp.WORKING_SET_INITIAL columns), plus the k corners and the staircase
    cell around the prior.  Evaluated columns are kept
    once, in a pool reused across rounds and found by lattice rank through
    a (V,) int32 index; no array of V floats is allocated.  A new column
    is evaluated as lp.build_persuasion_lp evaluates one, and a non-finite
    entry is the same LpError.
    """
    grid = gridded.grid
    k, N, V = grid.k, grid.denominator, grid.vertex_count
    table = geometry._rank_table(k, N)
    smoothed = [s for s, _ in bounds]
    p = prior.weights
    b_eq, b_le = np.append(p[: k - 1], 1.0), np.array([b for _, b in bounds], dtype=float)
    slot = np.full(V, -1, dtype=np.int32)  # pool position of each rank, or -1
    # The pool, in evaluation order: ranks, columns (c and the rows of A_le;
    # a column's A_eq entries are its composition over N, and 1) and which
    # of them the master holds.
    ranks = np.empty(0, dtype=np.int64)
    c, A_le = np.empty(0), np.empty((len(smoothed), 0))
    master = np.empty(0, dtype=bool)

    def columns(x: np.ndarray) -> np.ndarray:
        """Pool positions of the compositions x, evaluating the new ones as
        lp.build_persuasion_lp would on a block of them."""
        nonlocal ranks, c, A_le, master
        r = geometry.composition_rank(x, N, table)
        pos = slot[r]
        new = np.flatnonzero(pos < 0)
        if new.size:
            new = new[np.argsort(r[new], kind="stable")]
            new = new[np.append(True, np.diff(r[new]) != 0)]  # each rank once
            points = x[new] / N
            values = gridded.lattice_values(points)
            rows = np.empty((len(smoothed), new.size))
            lp.constraint_rows(smoothed, points, p, rows)
            lp.require_finite(values, rows)
            slot[r[new]] = np.arange(ranks.size, ranks.size + new.size)
            ranks = np.concatenate([ranks, r[new]])
            c = np.concatenate([c, values])
            A_le = np.hstack([A_le, rows])
            master = np.concatenate([master, np.zeros(new.size, dtype=bool)])
            pos = slot[r]
        return pos

    stride = MASTER_STRIDE
    while geometry.lattice_vertex_count(k, N // stride) > lp.WORKING_SET_INITIAL:
        stride *= 2
    first_master = np.vstack([
        geometry.stride_sublattice(k, N, stride), N * np.eye(k, dtype=np.int64),
        geometry.staircase_cell_at(prior.weights, N)])
    pos = columns(first_master)
    master[pos] = True
    root = 1 << N.bit_length()  # the smallest power of two above N
    rounds, levels, boxes = 0, 0, 0
    while True:
        rounds += 1
        at = np.flatnonzero(master)
        at = at[np.argsort(ranks[at])]  # vertex order
        held = geometry._unrank_compositions(ranks[at], k, N, table)
        program = lp.LinearProgram(
            c=c[at], A_eq=np.vstack([held[:, : k - 1].T / N, np.ones(at.size)]),
            b_eq=b_eq, A_le=A_le[:, at], b_le=b_le)
        sol = lp.solve_lp(program)
        full_pass = sol.status != "optimal"
        if full_pass:
            break
        y = sol.duals
        lo, side = np.zeros((1, k - 1), dtype=np.int64), root
        while True:
            levels += 1
            boxes += lo.shape[0]
            pos, bound = np.empty(lo.shape[0], dtype=np.int64), np.empty(lo.shape[0])
            for start in range(0, lo.shape[0], BOX_CHUNK):
                part = slice(start, start + BOX_CHUNK)
                center, x_lo, x_hi, radius = geometry.box_bounds(lo[part], side, N)
                pos[part] = columns(center)
                bound[part] = (c[pos[part]] - center[:, : k - 1] / N @ y[: k - 1]
                               - y[k - 1] - y[k:] @ A_le[:, pos[part]])
                if side > 1:
                    at_center = np.cumsum(center[:, : k - 1], axis=1)
                    bound[part] += _box_reach(
                        *_box_gradient(gridded.utility, smoothed, y, prior, center / N,
                                       x_lo / N, x_hi / N, radius / N),
                        radius / N, (lo[part] - at_center) / N,
                        (np.minimum(lo[part] + side - 1, N) - at_center) / N)
            keep = bound > lp.FEAS_TOL
            pruned = not keep.all()
            lo = lo[keep]
            if side == 1 or not lo.shape[0]:
                break
            lo, side = geometry.split_boxes(lo, side, N), side // 2
            if not pruned and side != 1:
                lo, side = geometry.split_boxes(lo, side, N), side // 2
        new = pos[keep][~master[pos[keep]]]  # side-1 survivors not yet in it
        if not new.size:
            break
        master[new] = True
    log.debug("lazy grid LP: N=%d V=%d rounds=%d levels=%d boxes=%d evaluated=%d "
              "(%.2f%% of V) master=%d full_pass=%s", N, V, rounds, levels, boxes,
              ranks.size, 100.0 * ranks.size / V, np.count_nonzero(master),
              full_pass)
    if full_pass:
        return None
    for a in (program.c, program.A_eq, program.b_eq, program.A_le, program.b_le):
        a.flags.writeable = False
    return program, sol


def _box_gradient(utility, smoothed, y: np.ndarray, prior: Posterior,
                  center: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray,
                  radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (B, k): per box {q in the simplex : q_lo <= q <= q_hi,
    ||q - center||_1 <= radius}, a coordinate range holding a g with
    r(x) - r(center) <= g . (x - center) at every point x of the box, for
    the reduced cost r = c - y.A of the grid LP.

    Each part of r gives such a range: the utility terms
    (UtilitySpec.box_gradient), -lambda_i times each smoothed constraint
    (SmoothedConstraint.box_gradient) and the barycenter duals, -y_i on
    coordinate i < k-1; their sum holds the sum of the g.
    """
    k = center.shape[1]
    lo, hi = utility.box_gradient(center, q_lo, q_hi, radius)
    lo[:, : k - 1] -= y[: k - 1]
    hi[:, : k - 1] -= y[: k - 1]
    for i, s in enumerate(smoothed):
        g_lo, g_hi = s.box_gradient(-y[k + i], center, q_lo, q_hi, prior)
        lo += g_lo
        hi += g_hi
    return lo, hi


def _box_reach(g_lo: np.ndarray, g_hi: np.ndarray, radius: np.ndarray,
               e_lo: np.ndarray, e_hi: np.ndarray) -> np.ndarray:
    """(B,) bounds on g . (x - center) over each box, for every g in
    [g_lo, g_hi] (B, k) and every x of the box: within l1 radius of the
    center, with partial sums of x - center in [e_lo, e_hi] (B, k-1), where
    e_lo <= 0 <= e_hi.

    The smaller of two bounds.  Since x - center sums to zero, the sum-zero
    rule gives (max g_hi - min g_lo) / 2 * radius.  Along the box's own
    axes, with e the partial sums of x - center,
    g . (x - center) = sum_i (g_i - g_{i+1}) e_i, and term i is at most
    max((g_hi_i - g_lo_{i+1}) e_hi_i, (g_lo_i - g_hi_{i+1}) e_lo_i); this
    one is the lower where g changes monotonically from axis to axis.
    """
    spread = (g_hi.max(axis=1) - g_lo.min(axis=1)) / 2.0 * radius
    axes = np.maximum((g_hi[:, :-1] - g_lo[:, 1:]) * e_hi,
                      (g_lo[:, :-1] - g_hi[:, 1:]) * e_lo).sum(axis=1)
    return np.minimum(spread, axes)


def solve_surrogate(surrogate: Surrogate) -> SolveReport:
    """Run the surrogate LP and report its scheme against the caller's instance.

    Raises InfeasibleError when the LP admits no scheme, and NumericError when
    the scheme breaks Bayes plausibility or the k+m support bound.
    """
    s = surrogate
    sol = lp.solve_lp(s.program) if s.solution is None else s.solution
    if sol.status == "infeasible":
        relax = s.eps if s.slater_margin is None else s.eps / 2.0
        _raise_infeasible(f"grid LP infeasible at eps={relax:g}: no valid scheme "
                          "exists at this relaxation", s.eps, s.slater_margin)
    if sol.status != "optimal":  # pragma: no cover - probability LPs are bounded
        raise lp.NumericError(f"unexpected LP status {sol.status}")
    columns = np.flatnonzero(sol.x > MASS_EPS)
    probs = sol.x[columns]
    scheme = SignalingScheme(s.posteriors(columns), probs / probs.sum())
    report = verify_scheme(s.instance, scheme)
    deviation = report.plausibility_deviation
    if deviation > SUM_TOL:  # pragma: no cover - LP equality rows enforce this
        raise lp.NumericError(f"solver output violates Bayes plausibility by {deviation:g}")
    max_support = s.program.n_rows  # k + m
    if scheme.size > max_support:  # pragma: no cover - basic solutions obey this
        raise lp.NumericError(
            f"support {scheme.size} exceeds the k+m bound {max_support}")
    return SolveReport(scheme=scheme, value=report.utility,
                       lp_value=float(sol.value), eps=s.eps, mode=s.mode,
                       grid_denominator=s.grid_denominator,
                       grid_vertex_count=s.column_count,
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


def _bisect_boundary(spec, prior: Posterior, q_S: np.ndarray,
                     q_T: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda in (0,1) with the mixture on the feasible side of c = spec.bound.

    Convexity of f gives a unique crossing on the segment; the bracket keeps
    f(q_c) <= c while closing the gap to within POOL_TOL, so the pooled
    point counts as tight, not as strictly feasible, in later steps; it
    stops early only when the bracket falls below 1e-16.  Each round
    evaluates, in one batch, the bracket ends and the 2**BISECT_LEVELS - 1
    midpoints of the next BISECT_LEVELS levels, each formed as the midpoint
    of its parent bracket exactly as a one-point bisection forms it, and
    then walks those levels one at a time; the result is the one-point
    bisection's, bit for bit.
    """
    c = spec.bound
    n = 1 << BISECT_LEVELS
    lam = np.empty(n + 1)
    lam[0], lam[n] = 0.0, 1.0
    level, done = 0, False
    while not done:
        # lam[0] and lam[n] hold the bracket; each pass fills in the
        # midpoints of one more level, halving the stride.
        step = n
        while step > 1:
            lam[step // 2::step] = 0.5 * (lam[:-1:step] + lam[step::step])
            step //= 2
        vals = eval_constraint_batch(
            spec, lam[:, None] * q_S + (1.0 - lam)[:, None] * q_T, prior)
        if level == 0:
            val_good = float(vals[n])
        lo, hi = 0, n
        while hi - lo > 1 and not done:
            mid = (lo + hi) // 2
            if vals[mid] <= c:
                hi, val_good = mid, float(vals[mid])
            else:
                lo = mid
            level += 1
            done = (c - val_good <= POOL_TOL and lam[hi] < 1.0
                    or lam[hi] - lam[lo] < 1e-16 or level == 200)
        lam[0], lam[n] = lam[lo], lam[hi]
    lam_good = float(lam[n])
    if val_good > c + BOUNDARY_TOL:  # pragma: no cover - bracket invariant
        raise lp.NumericError("bisection failed to reach the boundary")
    return lam_good, lam_good * q_S + (1.0 - lam_good) * q_T


def ex_ante_to_ex_post(scheme: SignalingScheme,
                       constraint_specs, prior: Posterior, *,
                       trace: bool = False):
    """Convert an ex-ante-feasible scheme into an ex-post-feasible one.

    Constraint by constraint, each step pools a violating posterior with a
    strictly feasible one at the boundary, from pre-update masses, so the
    barycenter is conserved exactly.  Returns the scheme, or (scheme, trace).
    """
    specs = tuple(constraint_specs)
    for spec in specs:
        if not spec.is_convex:
            raise UnsupportedKindError(
                f"constraint kind {spec.kind!r} is not convex; the pooling "
                "conversion requires convex constraints")
    P, w = scheme.support, np.array(scheme.probs)  # (s, k), (s,)

    def expectations() -> np.ndarray:
        return np.array([w @ eval_constraint_batch(s, P, prior) for s in specs])
    exp0 = expectations()
    for j, spec in enumerate(specs):
        if exp0[j] > spec.bound + BOUNDARY_TOL:
            raise ValidationError(f"input scheme violates ex-ante constraint {j} "
                                  f"({exp0[j]:.6g} > {spec.bound:.6g})")
    tr = ConversionTrace(initial_expectations=exp0) if trace else None
    for j, spec in enumerate(specs):
        if tr is not None:
            tr.entry_support_sizes.append(len(w))
        for _ in range(4 * (scheme.size + len(specs)) + 17):  # steps + last pass
            f = eval_constraint_batch(spec, P, prior)
            bad, good = f > spec.bound + POOL_TOL, f < spec.bound - POOL_TOL
            if not bad.any():
                break
            if not good.any():
                raise lp.NumericError("pooling stalled: violators remain but no "
                                      "strictly feasible posterior is left")
            i_T = int(np.argmax(np.where(bad, f, -np.inf)))
            i_S = int(np.argmin(np.where(good, f, np.inf)))
            lam, q_c = _bisect_boundary(spec, prior, P[i_S], P[i_T])
            # Moved mass, pre-update: the side that would go negative empties.
            mu = 1.0 - lam
            a, b = lam * w[i_T], mu * w[i_S]
            if a >= b:
                r_c, w[i_T], w[i_S] = w[i_S] / lam, max(w[i_T] - b / lam, 0.0), 0.0
            else:
                r_c, w[i_S], w[i_T] = w[i_T] / mu, max(w[i_S] - a / mu, 0.0), 0.0
            keep = np.ones(len(w), dtype=bool)
            keep[[i_T, i_S]] = w[[i_T, i_S]] > MASS_EPS
            P, w = P[keep], w[keep]
            if (i := merge_row(P, q_c)) is None:
                P, w = np.vstack([P, q_c]), np.append(w, r_c)
            else:
                w[i] += r_c
            if tr is not None:
                dev = float(np.max(np.abs(w @ P - prior.weights)))
                tr.steps.append(ConversionStep(j, dev, expectations(), len(w)))
        else:  # pragma: no cover - 4(s+m)+16 steps; each makes a posterior tight
            raise lp.NumericError("pooling exceeded its step budget")
    out = SignalingScheme(P, w)
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


def oracle_solve(instance: ProblemInstance, grid) -> OracleReport:
    """Reference solve by enumerating candidate basic solutions.

    The grid is a SimplexGrid or a plain (V, k) vertex array with at most
    ORACLE_MAX_VERTICES points.  For every subset A of ex-ante constraints
    held tight and every support of size up to k + |A| whose
    bounding box holds the prior, the linear system (Bayes plausibility +
    normalization + tight rows) is solved directly; feasible solutions are
    compared on the true Sender utility, and the first best value found in
    enumeration order (within 1e-15) wins.  The supports of each size are
    enumerated and box-filtered once; each (A, size) group is solved up to
    ORACLE_BATCH systems at a time, through one batched SVD with lstsq's
    rank rule, and checked as arrays.
    """
    vertices = np.atleast_2d(np.asarray(getattr(grid, "vertices", grid), dtype=float))
    V, k = vertices.shape
    if k != instance.k:
        raise DimensionMismatch("grid dimension != instance k")
    if V > ORACLE_MAX_VERTICES:
        raise ResourceLimitError(
            f"oracle grid has {V} vertices, cap is {ORACLE_MAX_VERTICES}")
    prior = instance.prior.weights
    vertices = vertices[_ex_post_feasible(instance, vertices)]
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
    supports = {s: _box_supports(vertices, prior, s)
                for s in range(1, min(k + m, V) + 1)}
    base_rows = np.vstack([vertices.T, np.ones((1, V))])  # (k+1, V)
    base_rhs = np.concatenate([prior, [1.0]])
    for a_size in range(m + 1):
        for A in itertools.combinations(range(m), a_size):
            rows = np.vstack([base_rows, F[list(A)]])
            rhs = np.concatenate([base_rhs, bounds[list(A)]])
            for s in range(1, min(k + a_size, V) + 1):
                for lo in range(0, len(supports[s]), ORACLE_BATCH):
                    S = supports[s][lo:lo + ORACLE_BATCH]
                    checked += len(S)
                    M = rows[:, S].transpose(1, 0, 2)  # (C, rows, s)
                    # A system has a unique least-squares solution when its
                    # smallest singular value exceeds finfo.eps * max(rows,
                    # cols) * the largest: np.linalg.lstsq's rank rule with
                    # rcond=None.
                    U, sig, Vt = np.linalg.svd(M, full_matrices=False)
                    ok = sig[:, -1] > np.finfo(float).eps * max(len(rhs), s) * sig[:, 0]
                    W = np.zeros((len(S), s))
                    W[ok] = np.einsum("cji,cj->ci", Vt[ok],
                                      np.einsum("crj,r->cj", U[ok], rhs) / sig[ok])
                    resid = np.abs((M @ W[:, :, None])[:, :, 0] - rhs).max(axis=1)
                    ok &= ~(W < -1e-10).any(axis=1) & ~(resid > 1e-8)
                    if m:
                        ev = np.einsum("jcs,cs->cj", F[:, S], W)
                        ok &= ~(ev > bounds + BOUNDARY_TOL).any(axis=1)
                    for c in np.flatnonzero(ok):
                        value = float(util[S[c]] @ W[c])
                        if value > best_value + 1e-15:
                            best_value = value
                            best_w = np.clip(W[c], 0.0, None)
                            best_support = S[c]
    if best_w is None:
        return OracleReport("infeasible", float("nan"), None, checked)
    scheme = SignalingScheme(vertices[best_support], best_w / best_w.sum())
    return OracleReport("optimal", best_value, scheme, checked)


def _box_supports(vertices: np.ndarray, prior: np.ndarray, s: int) -> np.ndarray:
    """Every size-s row-index set, in combinations order, whose bounding box
    holds the prior within 1e-9; no other support can be Bayes plausible."""
    V = vertices.shape[0]
    S = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(V), s)),
                    dtype=np.intp, count=math.comb(V, s) * s).reshape(-1, s)
    X = vertices[S]  # (C, s, k)
    outside = (prior < X.min(axis=1) - 1e-9) | (prior > X.max(axis=1) + 1e-9)
    return S[~outside.any(axis=1)]
