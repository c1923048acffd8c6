"""Shared random-instance and random-scheme generators for the test suite,
the one-candidate-at-a-time loops that the batched solver code is compared
against, the pairwise count of rank candidates, a row-at-a-time
construction of a scheme's support and masses, one-point forms of the
package's batch evaluators, a brute-force enumeration of the lattice and
of its staircase cells, the refined cells of a piece grid (the package
keeps only their vertices) and a brute-force evaluator of the gridded
utility u_eps off the grid (the package itself reads u_eps only at grid
vertices).

Everything is seeded through numpy Generators so runs are reproducible.
Constraint bounds are set relative to the no-revelation scheme, which makes
the slack (Slater margin) of every generated instance known by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from persuade.auction import auction_utility_batch
from persuade.core import (ENTRY_TOL, MERGE_TOL, SUM_TOL, ConstraintSpec,
                           MaxLinearTerm, Posterior, ProblemInstance,
                           SignalingScheme, UtilitySpec, ValidationError,
                           eval_constraint_batch, eval_utility_batch,
                           simplices_contain)
from persuade.geometry import (lattice_vertex_count, project_to_contraction_batch,
                               refine_simplex)
from persuade.objectives import GriddedUtility, build_upper_approx
from persuade.solver import BOUNDARY_TOL, POOL_TOL, OracleReport


def eval_constraint(spec: ConstraintSpec, q: Posterior, prior: Posterior) -> float:
    """f(q) at one posterior."""
    return float(eval_constraint_batch(spec, q.weights[None, :], prior)[0])


def eval_utility(spec: UtilitySpec, q: Posterior) -> float:
    """The utility at one posterior (upper envelope on piece boundaries)."""
    return float(eval_utility_batch(spec, q.weights[None, :])[0])


def auction_utility(spec, q, objective: str | None = None) -> float:
    """Expected welfare or revenue at one posterior (array or Posterior)."""
    return float(auction_utility_batch(spec, np.atleast_2d(getattr(q, "weights", q)),
                                       objective=objective)[0])


def smoothed_eval(smoothed, q: Posterior, prior: Posterior) -> float:
    """A smoothed constraint at one posterior."""
    return float(smoothed.eval_batch(q.weights[None, :], prior)[0])


def project_to_contraction(q: np.ndarray, eps: float) -> np.ndarray:
    """One point projected onto the contracted simplex S_eps."""
    return project_to_contraction_batch(np.asarray(q, dtype=float)[None, :], eps)[0]


def simplex_volume(k: int) -> float:
    """Volume of the probability simplex embedded in R^k."""
    return math.sqrt(k) / math.factorial(k - 1)


def vertex_values(gridded: GriddedUtility) -> np.ndarray:
    """(V,) vertex values of a gridded utility: its blocks joined, a lone
    block as it is."""
    values = [v for _, v in gridded.blocks()]
    return values[0] if len(values) == 1 else np.concatenate(values)


def interior_prior(rng: np.random.Generator, k: int) -> Posterior:
    """A prior bounded away from the simplex boundary."""
    w = rng.dirichlet(np.ones(k)) * 0.6 + 0.4 / k
    return Posterior(w / w.sum())


def random_max_linear(rng: np.random.Generator, k: int,
                      nonneg: bool = True) -> UtilitySpec:
    n_f = int(rng.integers(1, 4))
    coeffs = rng.uniform(0.0 if nonneg else -0.5, 1.0, size=(n_f, k))
    rank = 1 if n_f == 1 else int(rng.integers(1, 3))
    return UtilitySpec.max_linear(coeffs, rank=rank)


def random_welfare_style(rng: np.random.Generator, k: int) -> UtilitySpec:
    """Mixture of maxes of nonnegative linear functionals (the shape the
    auction conversion produces; factor-2 Jensen certified)."""
    n_terms = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_terms))
    terms = [MaxLinearTerm(rng.uniform(0, 1, size=(int(rng.integers(2, 4)), k)),
                           rank=1, weight=float(w))
             for w in weights]
    return UtilitySpec.mixture(terms)


def random_constraint(rng: np.random.Generator, k: int, prior: Posterior,
                      kind: str, slack: float, mode: str = "ex_ante") -> ConstraintSpec:
    """A constraint whose no-revelation slack is exactly ``slack``."""
    if kind == "linear":
        coeffs = rng.uniform(0, 1, size=k)
        base = float(coeffs @ prior.weights)
        return ConstraintSpec.linear(coeffs, bound=base + slack, mode=mode)
    if kind == "norm_distance":
        order = [1, 2, float("inf")][int(rng.integers(0, 3))]
        return ConstraintSpec.norm_distance(order, bound=slack, mode=mode)
    if kind == "grouped_kl":
        if k >= 3 and rng.uniform() < 0.4:
            merged = sorted(rng.choice(k, size=2, replace=False).tolist())
            rest = [i for i in range(k) if i not in merged]
            partition = [tuple(merged)] + [(i,) for i in rest]
        else:
            partition = [(i,) for i in range(k)]
        refs = np.array([prior.weights[list(cell)].sum() for cell in partition])
        return ConstraintSpec.grouped_kl(partition, 1.0, refs, bound=slack,
                                         mode=mode)
    if kind == "entropy":
        base = float(np.sum(prior.weights * np.log(prior.weights)))
        return ConstraintSpec.entropy(bound=base + slack, mode=mode)
    if kind == "neg_min_weighted":
        w = rng.uniform(0.5, 1.5, size=k)
        base = -float((w * prior.weights).min())
        return ConstraintSpec.neg_min_weighted(w, bound=base + slack, mode=mode)
    raise ValueError(kind)


def random_instance(rng: np.random.Generator, k: int, m: int,
                    kinds=("linear", "norm_distance", "grouped_kl"),
                    slack_range=(0.05, 0.3)) -> tuple[ProblemInstance, float]:
    """Instance plus its certified no-revelation Slater margin."""
    prior = interior_prior(rng, k)
    utility = random_max_linear(rng, k)
    slacks = rng.uniform(*slack_range, size=m)
    cons = tuple(random_constraint(rng, k, prior,
                                   kinds[int(rng.integers(0, len(kinds)))],
                                   float(s)) for s in slacks)
    inst = ProblemInstance(k=k, prior=prior, utility=utility, constraints=cons)
    return inst, float(slacks.min()) if m else float("inf")


def random_plausible_scheme(rng: np.random.Generator, prior: Posterior,
                            n_signals: int) -> SignalingScheme:
    """Bayes-plausible scheme induced by a random signaling matrix."""
    k = prior.k
    pi = rng.dirichlet(np.ones(n_signals), size=k)  # (k, signals)
    joint = prior.weights[:, None] * pi
    sig_mass = joint.sum(axis=0)
    keep = sig_mass > 1e-12
    posts = (joint[:, keep] / sig_mass[keep]).T
    return SignalingScheme(posts, sig_mass[keep])


def feasible_conversion_case(rng: np.random.Generator, k: int, m: int,
                             kinds=("linear", "norm_distance", "grouped_kl",
                                    "neg_min_weighted", "entropy")):
    """(scheme, constraints, prior) with the scheme ex-ante feasible."""
    prior = interior_prior(rng, k)
    scheme = random_plausible_scheme(rng, prior, int(rng.integers(2, 6)))
    pts = scheme.support_matrix()
    cons = []
    for _ in range(m):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        spec = random_constraint(rng, k, prior, kind, slack=0.0)
        value = float(scheme.probs @ eval_constraint_batch(spec, pts, prior))
        cons.append(spec.with_bound(value + float(rng.uniform(0.0, 0.15))))
    return scheme, tuple(cons), prior


def per_row_posterior(row) -> np.ndarray:
    """One posterior checked and normalized on its own: finite entries,
    none below -ENTRY_TOL, a sum within SUM_TOL of 1; then clamped at zero
    and divided by its sum."""
    w = np.asarray(row, dtype=float).reshape(-1)
    if w.size < 1:
        raise ValidationError("posterior needs at least one entry")
    if not np.isfinite(w).all():
        raise ValidationError("posterior entries must be finite")
    if np.any(w < -ENTRY_TOL):
        raise ValidationError("posterior entry below -ENTRY_TOL")
    if abs(float(w.sum()) - 1.0) > SUM_TOL:
        raise ValidationError("posterior entries do not sum to 1")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def per_row_scheme(points, probs) -> tuple[np.ndarray, np.ndarray]:
    """The (support, probs) arrays of a scheme built one row at a time:
    each row a per_row_posterior, the masses checked like a posterior's
    entries (NaN aside) and normalized, then each row in order merged into
    the first kept row within MERGE_TOL in l-infinity, or kept."""
    rows = [per_row_posterior(row) for row in np.asarray(points, dtype=float)]
    probs = np.asarray(probs, dtype=float).reshape(-1)
    if len(rows) != probs.shape[0] or not rows:
        raise ValidationError("support and probs lengths differ or are empty")
    if np.any(probs < -ENTRY_TOL) or abs(float(probs.sum()) - 1.0) > SUM_TOL:
        raise ValidationError("bad scheme probabilities")
    probs = np.clip(probs, 0.0, None)
    kept: list[int] = []
    merged: list[float] = []
    for i, pr in enumerate(probs / probs.sum()):
        near = [j for j, r in enumerate(kept)
                if np.abs(rows[r] - rows[i]).max() <= MERGE_TOL]
        if near:
            merged[near[0]] += pr
        else:
            kept.append(i)
            merged.append(float(pr))
    return np.array([rows[i] for i in kept]), np.array(merged)


# Orthonormal basis of the plane {x : sum x = 0} that holds the k=3 simplex.
_PLANE = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) \
    / np.array([[math.sqrt(2.0)], [math.sqrt(6.0)]])


def random_fan_utility(rng: np.random.Generator, n_pieces: int) -> UtilitySpec:
    """k=3 piecewise-constant utility on convex fan pieces.

    Rays from an interior point at evenly spaced angles, each jittered by at
    most a fifth of a step, cut the simplex into ``n_pieces >= 3`` convex
    polygons (each spans an angle below pi); every piece lists the centre,
    its two ray exits and the simplex corners between them.  Values are
    uniform in [0, 2].
    """
    center = interior_prior(rng, 3).weights
    step = 2.0 * math.pi / n_pieces
    cuts = np.sort((rng.uniform(0.0, 2.0 * math.pi) + step * np.arange(n_pieces)
                    + rng.uniform(-0.2, 0.2, size=n_pieces) * step) % (2.0 * math.pi))

    def exit_point(theta):
        d = math.cos(theta) * _PLANE[0] + math.sin(theta) * _PLANE[1]
        t = min(-c / di for c, di in zip(center, d) if di < -1e-15)
        return center + t * d

    corner_angles = [math.atan2(*(_PLANE @ (e - center))[::-1]) % (2.0 * math.pi)
                     for e in np.eye(3)]
    pieces = []
    for lo, hi in zip(cuts, np.roll(cuts, -1)):
        span = (hi - lo) % (2.0 * math.pi)
        inside = sorted(((a - lo) % (2.0 * math.pi), i)
                        for i, a in enumerate(corner_angles)
                        if 0.0 < (a - lo) % (2.0 * math.pi) < span)
        verts = np.vstack([center, exit_point(lo)]
                          + [np.eye(3)[i] for _, i in inside] + [exit_point(hi)])
        pieces.append((verts, float(rng.uniform(0.0, 2.0))))
    return UtilitySpec.piecewise_constant(pieces)


def lattice_compositions(k: int, N: int) -> np.ndarray:
    """The compositions of N into k parts in lexicographic order, one per
    choice of k-1 bar positions among N+k-1 slots (stars and bars)."""
    rows = [np.diff([-1, *bars, N + k - 1]) - 1
            for bars in itertools.combinations(range(N + k - 1), k - 1)]
    return np.array(rows, dtype=np.int64)


def staircase_cells(k: int, n: int) -> np.ndarray:
    """The (n^(k-1), k) staircase cells of the lattice at denominator n, as
    indices of lattice_compositions(k, n), ordered by base corner and then
    by axis permutation in itertools order: each chain walks a corner's
    partial sums up one axis at a time and is kept while they stay in
    0 <= y_1 <= ... <= y_{k-1} <= n."""
    index = {tuple(x): i for i, x in enumerate(lattice_compositions(k, n).tolist())}
    cells = []
    for z in itertools.combinations_with_replacement(range(n), k - 1):
        for perm in itertools.permutations(range(k - 1)):
            chain = [list(z)]
            for axis in perm:
                cur = chain[-1].copy()
                cur[axis] += 1
                if any(b < a for a, b in zip(cur, cur[1:])) or cur[-1] > n:
                    break
                chain.append(cur)
            else:
                cells.append([index[tuple(np.diff([0, *y, n]).tolist())]
                              for y in chain])
    return np.array(cells, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class RefinedPieces:
    """A piece grid's u_eps with the refined cells the package never
    builds: ``cells`` (C, k) index ``gridded.grid.vertices`` and cell i has
    its piece's value ``cell_values[i]``.  It stands in for the grid in
    grid_cells, cells_containing and upper_envelope."""

    gridded: GriddedUtility
    cells: np.ndarray
    cell_values: np.ndarray

    @property
    def vertices(self) -> np.ndarray:
        return self.gridded.grid.vertices

    @property
    def vertex_count(self) -> int:
        return self.gridded.grid.vertex_count


def refined_pieces(utility: UtilitySpec, eps: float,
                   lipschitz_bound: float) -> RefinedPieces:
    """build_upper_approx of a piecewise-constant utility with its refined
    cells rebuilt: each piece simplex's staircase cells at its refinement
    level n, mapped through the barycentric map (refine_simplex's vertices,
    in lattice order) and matched to the grid's vertices by the 12-digit
    rounding the grid merged them with."""
    gridded = build_upper_approx(utility, eps, lipschitz_bound)
    delta = eps / max(lipschitz_bound, 1.0)
    k = utility.k
    index = {tuple(v): i for i, v in
             enumerate((np.round(gridded.grid.vertices, 12) + 0.0).tolist())}
    cells, values = [], []
    for simplices, (_, value) in zip(utility.simplices, utility.pieces):
        for simplex in simplices:
            sub, _ = refine_simplex(simplex, delta)
            n = next(n for n in itertools.count(1)
                     if lattice_vertex_count(k, n) == len(sub))
            keys = (np.round(sub, 12) + 0.0).tolist()
            for cell in staircase_cells(k, n):
                cells.append([index[tuple(keys[i])] for i in cell])
                values.append(value)
    return RefinedPieces(gridded, np.array(cells, dtype=np.int64),
                         np.array(values))


def grid_cells(grid) -> np.ndarray:
    """The (C, k) vertex-index cells of a lattice grid (the staircase cells
    of its denominator) or of RefinedPieces (its rebuilt cells)."""
    if isinstance(grid, RefinedPieces):
        return grid.cells
    return staircase_cells(grid.k, grid.denominator)


def cells_containing(grid, Q) -> np.ndarray:
    """(C, n) mask: whether cell i of grid_cells(grid) holds row j of Q, by
    one batched barycentric test over every cell."""
    return simplices_contain(grid.vertices[grid_cells(grid)], Q)


def upper_envelope(gridded, Q) -> np.ndarray:
    """u_eps at each row of Q: the largest value of a cell whose closure
    holds it (-inf where none does).  ``gridded`` is RefinedPieces, whose
    cells carry their piece values, or a lattice GriddedUtility, whose
    cells carry the max of their vertex values."""
    if isinstance(gridded, RefinedPieces):
        grid, values = gridded, gridded.cell_values
    else:
        grid = gridded.grid
        values = vertex_values(gridded)[grid_cells(grid)].max(axis=1)
    inside = cells_containing(grid, Q)
    return np.where(inside, values[:, None], -np.inf).max(axis=0)


def reference_oracle_solve(instance: ProblemInstance, grid) -> OracleReport:
    """solver.oracle_solve as one np.linalg.lstsq per candidate, kept as the
    reference for the batched oracle.  It skips the oracle's input guards."""
    vertices = np.atleast_2d(np.asarray(getattr(grid, "vertices", grid), dtype=float))
    prior = instance.prior.weights
    keep = np.ones(vertices.shape[0], dtype=bool)
    for spec in instance.ex_post():
        keep &= eval_constraint_batch(spec, vertices, instance.prior) \
            <= spec.bound + BOUNDARY_TOL
    vertices = vertices[keep]
    V, k = vertices.shape
    if V == 0:
        return OracleReport("infeasible", float("nan"), None, 0)
    ex_ante = instance.ex_ante()
    m = len(ex_ante)
    util = eval_utility_batch(instance.utility, vertices)
    F = np.vstack([eval_constraint_batch(s, vertices, instance.prior)
                   for s in ex_ante]) if m else np.zeros((0, V))
    bounds = np.array([s.bound for s in ex_ante])
    best_value, best_w, best_support, checked = -math.inf, None, None, 0
    base_rows = np.vstack([vertices.T, np.ones((1, V))])
    base_rhs = np.concatenate([prior, [1.0]])
    for a_size in range(m + 1):
        for A in itertools.combinations(range(m), a_size):
            rows = np.vstack([base_rows, F[list(A)]])
            rhs = np.concatenate([base_rhs, bounds[list(A)]])
            for s in range(1, min(k + a_size, V) + 1):
                for S in itertools.combinations(range(V), s):
                    sub = vertices[list(S)]
                    if np.any(prior < sub.min(axis=0) - 1e-9) or \
                       np.any(prior > sub.max(axis=0) + 1e-9):
                        continue
                    checked += 1
                    M_sys = rows[:, list(S)]
                    w, _, rank, _ = np.linalg.lstsq(M_sys, rhs, rcond=None)
                    w = w if rank == s else None
                    if w is None or np.any(w < -1e-10) \
                            or np.max(np.abs(M_sys @ w - rhs)) > 1e-8:
                        continue
                    if m and np.any(F[:, list(S)] @ w > bounds + BOUNDARY_TOL):
                        continue
                    value = float(util[list(S)] @ w)
                    if value > best_value + 1e-15:
                        best_value, best_w, best_support = value, np.clip(w, 0.0, None), list(S)
    if best_w is None:
        return OracleReport("infeasible", float("nan"), None, checked)
    scheme = SignalingScheme(vertices[best_support], best_w / best_w.sum())
    return OracleReport("optimal", best_value, scheme, checked)


def reference_bisect_boundary(spec: ConstraintSpec, prior: Posterior,
                              q_S: np.ndarray, q_T: np.ndarray):
    """solver._bisect_boundary with one constraint evaluation per level,
    kept as the reference for the batched boundary search."""
    def f(x: np.ndarray) -> float:
        return float(eval_constraint_batch(spec, x[None, :], prior)[0])

    c = spec.bound
    lam_bad, lam_good = 0.0, 1.0
    val_good = f(q_S)
    for _ in range(200):
        mid = 0.5 * (lam_bad + lam_good)
        v = f(mid * q_S + (1.0 - mid) * q_T)
        if v <= c:
            lam_good, val_good = mid, v
        else:
            lam_bad = mid
        if c - val_good <= POOL_TOL and lam_good < 1.0:
            break
        if lam_good - lam_bad < 1e-16:
            break
    return lam_good, lam_good * q_S + (1.0 - lam_good) * q_T


def reference_rank_candidates(lower: np.ndarray, upper: np.ndarray, rank: int,
                              tol) -> np.ndarray:
    """core._rank_candidates by one pair of functionals at a time, kept as
    the reference for its counting over all of them at once."""
    n_f = lower.shape[-1]
    held = np.empty(lower.shape, dtype=bool)
    for a in range(n_f):
        above = sum(lower[..., b] > upper[..., a] + tol for b in range(n_f))
        below = sum(upper[..., b] < lower[..., a] - tol for b in range(n_f))
        held[..., a] = (above < rank) & (below <= n_f - rank)
    held[~held.any(axis=-1)] = True
    return held
