"""Dense two-phase primal simplex solver.

Solves   max c.x   s.t.  A_eq x = b_eq,  A_le x <= b_le,  x >= 0.

The implementation is a revised simplex with an explicit basis inverse, built
for LPs with a handful of rows and up to millions of columns (grid points).
Structural columns are read from the row-major ``A_eq``, ``A_le`` and ``c``
of the :class:`LinearProgram`, no row negated; slack and artificial columns
stay virtual.

Pricing is Dantzig (most positive reduced cost, ties broken by lowest
index) over a working set W of structural columns plus the slacks
("sifting": Bixby, Gregory, Lustig, Marsten and Shanno, Operations Research
40(5), 1992).  W starts as ``WORKING_SET_INITIAL`` evenly spaced columns and
keeps a compact (rows+1, |W|) copy of their columns, cost row last, so
pricing W is one BLAS matvec.  Only when no column of W and no slack
improves does a full pass compute ``c - y_eq @ A_eq - y_le @ A_le`` into
preallocated buffers; it enters the best column overall and adds the
``WORKING_SET_GROWTH`` best improving ones to W.  A phase ends only when a
full pass finds no reduced cost above ``FEAS_TOL``, so optimality is
certified over every column.  When W holds every column (n <=
``WORKING_SET_INITIAL``) the W pass is the full pass, and pivots are those
of plain Dantzig pricing.  After ``DEGENERATE_PIVOT_FACTOR * rows``
degenerate pivots the solver switches permanently to Bland's rule (lowest
improving index over all columns), which guarantees termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
DEGENERATE_PIVOT_FACTOR = 50
REFACTOR_EVERY = 100
MAX_ITER_BASE = 20_000
WORKING_SET_INITIAL = 4096
WORKING_SET_GROWTH = 1024


class LpError(Exception):
    """Base class for solver failures."""


class NumericError(LpError):
    """Numeric failure (cycling guard exhausted, singular basis, ...).

    Reported distinctly from infeasibility: an LP that trips this is not
    proven infeasible.
    """


@dataclass(frozen=True)
class LinearProgram:
    """max c.x  s.t.  A_eq x = b_eq, A_le x <= b_le, x >= 0."""

    c: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_le: np.ndarray
    b_le: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
        A_le = np.atleast_2d(np.asarray(self.A_le, dtype=float))
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        b_le = np.atleast_1d(np.asarray(self.b_le, dtype=float))
        n = c.shape[0]
        if A_eq.size == 0:
            A_eq = np.zeros((0, n))
        if A_le.size == 0:
            A_le = np.zeros((0, n))
        if A_eq.shape[1] != n or A_le.shape[1] != n:
            raise LpError("constraint matrices do not match objective length")
        if A_eq.shape[0] != b_eq.shape[0] or A_le.shape[0] != b_le.shape[0]:
            raise LpError("right-hand sides do not match row counts")
        for arr in (c, A_eq, b_eq, A_le, b_le):
            if arr.size and not np.all(np.isfinite(arr)):
                raise LpError("non-finite entry in LP data")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_eq", A_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "A_le", A_le)
        object.__setattr__(self, "b_le", b_le)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.A_eq.shape[0] + self.A_le.shape[0]


@dataclass(frozen=True)
class SimplexStats:
    """What one solve did.  Iterations count pricing rounds: one per pivot
    plus the round that certified optimality (or found unboundedness)."""

    phase1_iterations: int
    phase2_iterations: int
    full_pricing_passes: int  # pricing rounds that touched all n columns
    working_set_size: int     # structural columns in W at the end
    degenerate_pivots: int    # both phases
    bland: bool               # Bland's rule switched on in either phase


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    value: float
    basis: tuple[int, ...]  # structural vars then slacks (n..n+m_le-1)
    # y on the rows A_eq then A_le when optimal: c_j - y.A_j <= FEAS_TOL for
    # every column, y_le >= -FEAS_TOL, and b.y equals the value.
    duals: np.ndarray | None = None
    stats: SimplexStats | None = None


class _Simplex:
    """Working state for one solve.  Columns: structural | slack | artificial;
    the slack of <= row i is +e_i and the artificial of row i sign(b_i) e_i,
    so the starting basis is feasible for b as given."""

    def __init__(self, lp: LinearProgram):
        self.n = lp.n_vars
        self.m_eq = lp.A_eq.shape[0]
        self.m_le = lp.A_le.shape[0]
        self.r = self.m_eq + self.m_le
        r, n = self.r, self.n
        self.A_eq, self.A_le, self.c = lp.A_eq, lp.A_le, lp.c
        self.b = np.concatenate([lp.b_eq, lp.b_le])
        self.art_sign = np.where(self.b < 0, -1.0, 1.0)
        rows = np.arange(r)
        self.basis = np.where((rows >= self.m_eq) & (self.b >= 0),
                              n + rows - self.m_eq, n + self.m_le + rows)
        self.in_basis: set[int] = set(int(j) for j in self.basis)
        self.B_inv = np.diag(self.art_sign)
        self.degenerate_pivots = 0
        self.bland = False
        self.iterations = 0
        self.max_iter = MAX_ITER_BASE + 50 * r
        self.full_passes = 0
        self._buf = np.empty(n)
        self._tmp = np.empty(n)
        self._y_aug = np.empty(r + 1)
        # Working set: sorted structural column indices and their (r+1, |W|)
        # block AW, plus (when W starts partial) its membership mask.
        if n <= WORKING_SET_INITIAL:
            self._set_work(np.arange(n))
        else:
            work = np.linspace(0, n - 1, WORKING_SET_INITIAL, dtype=np.int64)
            self._in_work = np.zeros(n, dtype=bool)
            self._in_work[work] = True
            self._set_work(work)

    def _set_work(self, work: np.ndarray):
        self.work = work
        self.covered = work.size == self.n
        self.AW = np.concatenate([self.A_eq[:, work], self.A_le[:, work],
                                  self.c[None, work]])
        self._wbuf = self._buf if self.covered else np.empty(work.size)

    # -- column access ----------------------------------------------------
    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.r)
        if j < self.n:
            col[: self.m_eq] = self.A_eq[:, j]
            col[self.m_eq:] = self.A_le[:, j]
        elif j < self.n + self.m_le:
            col[self.m_eq + j - self.n] = 1.0
        else:
            i = j - self.n - self.m_le
            col[i] = self.art_sign[i]
        return col

    def _combine_rows(self, w: np.ndarray) -> np.ndarray:
        """w[:m_eq] @ A_eq + w[m_eq:] @ A_le over all n columns, into _buf."""
        out = np.dot(w[: self.m_eq], self.A_eq, out=self._buf)
        out += np.dot(w[self.m_eq:], self.A_le, out=self._tmp)
        return out

    def _cost_of(self, j: int, phase2: bool) -> float:
        if j < self.n:
            return float(self.c[j]) if phase2 else 0.0
        if j < self.n + self.m_le:
            return 0.0
        return 0.0 if phase2 else -1.0

    def _refactor(self):
        B = np.column_stack([self.column(j) for j in self.basis]) \
            if self.r else np.zeros((0, 0))
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise NumericError("singular basis during refactorization") from exc

    # -- pricing -------------------------------------------------------------
    def _dual(self, phase2: bool) -> np.ndarray:
        c_B = np.fromiter((self._cost_of(int(j), phase2) for j in self.basis),
                          dtype=float, count=self.r)
        return c_B @ self.B_inv

    def _slack_reduced(self, y_aug: np.ndarray) -> np.ndarray:
        red = y_aug[self.m_eq: self.r].copy()
        for le_idx in range(self.m_le):
            if self.n + le_idx in self.in_basis:
                red[le_idx] = -np.inf
        return red

    def _price_all(self, y_aug: np.ndarray) -> np.ndarray:
        """Reduced costs of all n structural columns, basic ones at -inf."""
        self.full_passes += 1
        if self.covered:
            np.dot(y_aug, self.AW, out=self._buf)
        else:
            self._combine_rows(y_aug[: self.r])
            if y_aug[self.r]:
                self._buf += self.c
        for j in self.in_basis:
            if j < self.n:
                self._buf[j] = -np.inf
        return self._buf

    def _price_work(self, y_aug: np.ndarray) -> np.ndarray:
        """Reduced costs of the working set, basic ones at -inf."""
        if self.covered:
            return self._price_all(y_aug)
        np.dot(y_aug, self.AW, out=self._wbuf)
        for j in self.in_basis:
            if j < self.n and self._in_work[j]:
                self._wbuf[np.searchsorted(self.work, j)] = -np.inf
        return self._wbuf

    def _grow_work(self, red: np.ndarray):
        """Add the WORKING_SET_GROWTH best improving columns of a full pass.

        W grows through its membership mask, so no array here or in
        _price_work is sized by a count of improving or basic columns.
        numpy keeps freed blocks under 1 KiB in a cache for the life of the
        process; one allocated at a new size while the solve's arrays top
        the heap keeps the heap from shrinking after the solve, and the peak
        RSS of a run of small solves then varies by 5 MB from run to run.
        """
        improving = red > FEAS_TOL
        if np.count_nonzero(improving) > WORKING_SET_GROWTH:
            idx = np.flatnonzero(improving)
            top = np.argpartition(red[idx], -WORKING_SET_GROWTH)
            self._in_work[idx[top[-WORKING_SET_GROWTH:]]] = True
        else:
            self._in_work |= improving
        self._set_work(np.flatnonzero(self._in_work))

    def _price(self, phase2: bool) -> int | None:
        """Entering column: Dantzig over the working set and the slacks, then
        over all columns when those have none; or, once the degeneracy guard
        has tripped, Bland's rule (lowest improving index).  Reduced costs
        are (-y, 1 in phase 2 else 0) against each column with its cost."""
        y_aug = self._y_aug
        np.negative(self._dual(phase2), out=y_aug[: self.r])
        y_aug[self.r] = 1.0 if phase2 else 0.0
        if self.bland:
            if self.n:
                red = self._price_all(y_aug)
                if red.max() > FEAS_TOL:
                    return int(np.argmax(red > FEAS_TOL))
            red = self._slack_reduced(y_aug)
            idx = np.nonzero(red > FEAS_TOL)[0]
            return self.n + int(idx[0]) if idx.size else None
        best, best_val = None, FEAS_TOL
        if self.n:
            red = self._price_work(y_aug)
            cand = int(np.argmax(red))
            if red[cand] > best_val:
                best, best_val = int(self.work[cand]), float(red[cand])
        red = self._slack_reduced(y_aug)
        if red.size and red.max() > best_val:
            best = self.n + int(np.argmax(red))
        if best is None and not self.covered:
            red = self._price_all(y_aug)
            cand = int(np.argmax(red))
            if red[cand] > FEAS_TOL:
                best = cand
                self._grow_work(red)
        return best

    # -- main loop ---------------------------------------------------------
    def run(self, phase2: bool) -> str:
        while True:
            if self.iterations >= self.max_iter:
                raise NumericError(f"iteration limit {self.max_iter} exceeded")
            self.iterations += 1
            if self.iterations % REFACTOR_EVERY == 0:
                self._refactor()
            enter = self._price(phase2)
            if enter is None:
                return "optimal"
            d = self.B_inv @ self.column(enter)
            x_B = self.B_inv @ self.b
            pos = d > PIVOT_TOL
            if not np.any(pos):
                return "unbounded"
            ratios = np.full(self.r, np.inf)
            with np.errstate(over="ignore"):  # a ratio of +inf never wins
                ratios[pos] = x_B[pos] / d[pos]
            min_ratio = ratios.min()
            ties = np.nonzero(ratios <= min_ratio + PIVOT_TOL)[0]
            # Lowest basis-variable index among ties: deterministic and
            # cycling-safe once Bland's rule is active.
            leave_row = int(ties[np.argmin(self.basis[ties])])
            if min_ratio <= PIVOT_TOL:
                self.degenerate_pivots += 1
                if not self.bland and \
                        self.degenerate_pivots > DEGENERATE_PIVOT_FACTOR * max(self.r, 1):
                    self.bland = True
            self._pivot(enter, leave_row, d)

    def _pivot(self, enter: int, leave_row: int, d: np.ndarray):
        piv = d[leave_row]
        if abs(piv) < PIVOT_TOL:  # pragma: no cover - defensive
            raise NumericError("pivot element vanished")
        E_row = self.B_inv[leave_row] / piv
        self.B_inv -= np.outer(d, E_row)
        self.B_inv[leave_row] = E_row
        self.in_basis.discard(int(self.basis[leave_row]))
        self.in_basis.add(int(enter))
        self.basis[leave_row] = enter

    # -- phases -------------------------------------------------------------
    def drive_out_artificials(self):
        for i in range(self.r):
            if self.basis[i] < self.n + self.m_le:
                continue
            row = self._combine_rows(self.B_inv[i])
            cand = np.nonzero(np.abs(row) > 1e-7)[0]
            if cand.size:
                j = int(cand[0])
                d = self.B_inv @ self.column(j)
                self._pivot(j, i, d)
            # else: redundant row, the artificial stays basic at value 0.


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the LP, returning an optimal basic feasible solution.

    Optimality is certified by reduced costs <= 1e-9 over every column.
    Infeasible and unbounded problems are reported through the status field;
    numeric failures raise :class:`NumericError`.
    """
    state = _Simplex(lp)
    n, m_le = state.n, state.m_le
    phase1_iterations, phase1_degenerate, phase1_bland = 0, 0, False

    def stats() -> SimplexStats:
        return SimplexStats(
            phase1_iterations=phase1_iterations,
            phase2_iterations=state.iterations - phase1_iterations,
            full_pricing_passes=state.full_passes,
            working_set_size=int(state.work.size),
            degenerate_pivots=phase1_degenerate + state.degenerate_pivots,
            bland=phase1_bland or state.bland)

    if any(int(j) >= n + m_le for j in state.basis):
        status = state.run(phase2=False)
        if status != "optimal":  # pragma: no cover - phase 1 is always bounded
            raise NumericError("phase 1 terminated " + status)
        phase1_iterations = state.iterations
        phase1_degenerate, phase1_bland = state.degenerate_pivots, state.bland
        x_B = state.B_inv @ state.b
        art_rows = state.basis >= n + m_le
        art_mass = float(x_B[art_rows].sum()) if state.r else 0.0
        if art_mass > FEAS_TOL * max(1.0, float(np.abs(state.b).sum())):
            return LpSolution(status="infeasible", x=None, value=float("nan"),
                              basis=(), stats=stats())
        state.drive_out_artificials()
        state.degenerate_pivots = 0
        state.bland = False

    status = state.run(phase2=True)
    if status == "unbounded":
        return LpSolution(status="unbounded", x=None, value=float("inf"), basis=(),
                          stats=stats())

    x = np.zeros(n)
    x_B = state.B_inv @ state.b
    for row, j in enumerate(state.basis):
        if j < n:
            x[j] = x_B[row]
    np.clip(x, 0.0, None, out=x)
    scale = max(1.0, float(np.abs(lp.b_eq).sum() + np.abs(lp.b_le).sum()))
    if lp.A_eq.shape[0]:
        if float(np.max(np.abs(lp.A_eq @ x - lp.b_eq))) > 100 * FEAS_TOL * scale:
            raise NumericError("optimal basis violates the equality rows")
    if lp.A_le.shape[0]:
        if float(np.max(lp.A_le @ x - lp.b_le)) > 100 * FEAS_TOL * scale:
            raise NumericError("optimal basis violates the inequality rows")
    basis = tuple(int(j) for j in sorted(state.basis) if j < n + m_le)
    duals = state._dual(phase2=True)
    return LpSolution(status="optimal", x=x, value=float(state.c @ x), basis=basis,
                      duals=duals, stats=stats())


def build_persuasion_lp(grid, gridded_utility, smoothed_bounds, prior,
                        vertex_mask=None) -> LinearProgram:
    """Assemble the grid LP: one variable per grid vertex (its probability).

    Rows are k-1 independent barycenter equalities plus one normalization row
    (the remaining barycenter row is redundant), and one <= row per smoothed
    ex-ante constraint with its relaxed bound.  ``vertex_mask`` restricts the
    columns to a feasible subset (ex-post handling).  Smoothed constraints
    that share a contraction are evaluated on one projection of the vertices.

    ``smoothed_bounds`` is a sequence of (smoothed_constraint, relaxed_bound)
    pairs; objects are duck-typed so this module stays dependency-free.
    """
    vertices = np.asarray(grid.vertices, dtype=float)
    p = np.asarray(getattr(prior, "weights", prior), dtype=float)
    c = np.asarray(gridded_utility.vertex_values(), dtype=float)
    if c.shape[0] != vertices.shape[0]:
        raise LpError("objective length does not match grid")
    if vertex_mask is not None:
        vertices = vertices[vertex_mask]
        c = c[vertex_mask]
    n, k = vertices.shape
    if p.shape[0] != k:
        raise LpError("prior dimension does not match grid")
    A_eq = np.empty((k, n))
    A_eq[: k - 1] = vertices[:, : k - 1].T
    A_eq[k - 1] = 1.0
    b_eq = np.concatenate([p[: k - 1], [1.0]])
    smoothed_bounds = list(smoothed_bounds)
    A_le = np.empty((len(smoothed_bounds), n))
    projections = {}  # shared by constraints with one contraction
    for row, (smoothed, _) in zip(A_le, smoothed_bounds):  # no stacked copy
        row[:] = smoothed.eval_batch(vertices, p, projections)
    b_le = np.array([bound for _, bound in smoothed_bounds], dtype=float)
    return LinearProgram(c=c, A_eq=A_eq, b_eq=b_eq, A_le=A_le, b_le=b_le)
