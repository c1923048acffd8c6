"""Simplicial grids over the probability simplex.

The lattice grid at denominator N has vertices {x/N : x nonnegative integers
summing to N} and cells given by the Kuhn/Freudenthal triangulation in
partial-sum coordinates y_i = x_1 + ... + x_i: the simplex maps to the
ordered region 0 <= y_1 <= ... <= y_{k-1} <= N, whose unit cubes split into
staircase simplices, N^(k-1) cells in total, all enumerated by one
whole-array pass (_staircase_cells).  Cells are built lazily; point location
narrows q to the cells of its few candidate cubes by lattice arithmetic, so
huge grids never materialize their cell list.  Triangulation grids (refined
pieces) carry explicit cells.  On both, core.simplices_contain decides
which cells hold a point.

Also provides the Euclidean projection onto the contracted simplex
S_eps = center + (simplex - center) / (1 + eps^2) used by constraint
smoothing: exact, with the sort-based method run only on the rows that
have an entry below the floor of S_eps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (MEMBERSHIP_TOL, ResourceLimitError, ValidationError,
                   reduce_last_axis, simplices_contain)
from .core import cell_volume  # noqa: F401  (part of this module's API)

DEFAULT_VERTEX_CAP = 5_000_000


def lattice_vertex_count(k: int, N: int) -> int:
    return math.comb(N + k - 1, k - 1)


def _lattice_vertices(k: int, N: int) -> np.ndarray:
    """Integer compositions of N into k parts, ordered lexicographically."""
    if k == 1:
        return np.array([[N]], dtype=np.int64)
    if k == 2:
        first = np.arange(N + 1, dtype=np.int64)
        return np.column_stack([first, N - first])
    if k == 3:
        i, j = np.triu_indices(N + 1)
        return np.column_stack([i, j - i, N - j]).astype(np.int64)
    blocks = []
    for first in range(N + 1):
        rest = _lattice_vertices(k - 1, N - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def _rank_table(k: int, N: int) -> np.ndarray:
    """table[j, n] = number of compositions of n into j parts."""
    table = np.zeros((k + 1, N + 1), dtype=np.int64)
    table[1, :] = 1
    for j in range(2, k + 1):
        table[j] = np.cumsum(table[j - 1])
    return table


def composition_rank(x: np.ndarray, N: int, table: np.ndarray) -> np.ndarray:
    """Lexicographic rank of integer compositions (rows of x, summing to N)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    k = x.shape[1]
    rank = np.zeros(x.shape[0], dtype=np.int64)
    remaining = np.full(x.shape[0], N, dtype=np.int64)
    for pos in range(k - 1):
        parts_left = k - pos - 1
        # tail[a] = sum_{b >= a} table[parts_left, b], with tail[N+1] = 0, so the
        # number of compositions preceding x at this position is
        # tail[remaining - x_pos + 1] - tail[remaining + 1].
        tail = np.concatenate([np.cumsum(table[parts_left][::-1])[::-1], [0]])
        lo = np.minimum(remaining - x[:, pos] + 1, N + 1)
        rank += tail[lo] - tail[remaining + 1]
        remaining = remaining - x[:, pos]
    return rank


@dataclass(eq=False)
class SimplexGrid:
    """A triangulated subset of the simplex (usually all of it).

    For lattice grids ``denominator`` is N and cells are computed lazily;
    triangulation grids (piece refinements) carry explicit cells and a
    ``denominator`` of None.
    """

    k: int
    denominator: int | None
    vertices: np.ndarray  # (V, k) float
    measured_max_diameter: float
    _cells: np.ndarray | None = None
    _rank_tab: np.ndarray | None = field(default=None, repr=False)
    _cell_box: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def is_lattice(self) -> bool:
        return self.denominator is not None

    # -- cells ---------------------------------------------------------------
    @property
    def cells(self) -> np.ndarray:
        """(C, k) vertex-index array; built on first access for lattice grids."""
        if self._cells is None:
            if not self.is_lattice:
                raise ValidationError("triangulation grid has no lattice cells to build")
            self._cells = build_grid_cells_for_level(self.k, self.denominator)
        return self._cells

    @property
    def cell_count(self) -> int:
        if self._cells is not None:
            return self._cells.shape[0]
        return self.denominator ** (self.k - 1)

    # -- point location -------------------------------------------------------
    def locate_cells(self, q: np.ndarray) -> list[np.ndarray]:
        """Vertex-index arrays of every cell whose closure contains q."""
        q = np.asarray(q, dtype=float)
        if self.is_lattice:
            return self._locate_lattice(q)
        return list(self.cells[self.cell_mask(q)])

    def cell_mask(self, q: np.ndarray) -> np.ndarray:
        """Which explicit cells contain the probability vector q: one batched
        test over the cells whose bounding box holds q.  With tol =
        MEMBERSHIP_TOL, weights >= -tol that rebuild q within tol sum to 1
        within (k+1) tol, so an accepted q lies within 2(k+1) tol of its
        cell's box: the filter drops no cell."""
        if self._cell_box is None:
            verts = self.vertices[self.cells]
            self._cell_box = (verts.min(axis=1), verts.max(axis=1))
        lo, hi = self._cell_box
        slack = 2 * (self.k + 1) * MEMBERSHIP_TOL
        near = np.flatnonzero(np.all((lo - slack <= q) & (q <= hi + slack), axis=1))
        mask = np.zeros(lo.shape[0], dtype=bool)
        mask[near] = simplices_contain(self.vertices[self.cells[near]], q)[:, 0]
        return mask

    def _locate_lattice(self, q: np.ndarray) -> list[np.ndarray]:
        N = self.denominator
        y = np.cumsum(q[:-1]) * N
        # A containing cube must have z_i <= y_i <= z_i + 1.
        lo = np.maximum(0, np.ceil(y - 1.0 - N * MEMBERSHIP_TOL)).astype(np.int64)
        hi = np.minimum(N - 1, np.floor(y + N * MEMBERSHIP_TOL)).astype(np.int64)
        corners = np.array(list(itertools.product(*map(range, lo, hi + 1))),
                           dtype=np.int64).reshape(-1, self.k - 1)
        chains = _staircase_cells(corners, N).reshape(-1, self.k - 1)
        x = _y_to_x(chains, N).reshape(-1, self.k, self.k)
        x = x[simplices_contain(x / N, q)[:, 0]].reshape(-1, self.k)
        return list(composition_rank(x, N, self._rank_tab).reshape(-1, self.k))


def _staircase_cells(corners: np.ndarray, N: int) -> np.ndarray:
    """Partial-sum vertex chains, shape (C, k, k-1), of the staircase cells
    with base corners ``corners`` (rows of k-1 partial sums).

    Each permutation of the k-1 axes raises a corner by one along one axis
    at a time; a chain is kept when every point stays in
    0 <= y_1 <= ... <= y_{k-1} <= N.  All corners and permutations go
    through one array expression; the chains come out ordered by corner,
    then by permutation in itertools order.
    """
    d = corners.shape[1]
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    # steps[p, j] = sum of the first j unit vectors in permutation p.
    steps = (np.argsort(perms, axis=1)[:, None, :]
             < np.arange(d + 1)[None, :, None]).astype(np.int64)
    chains = corners[:, None, None, :] + steps  # (Z, P, k, d)
    ok = (np.diff(chains, axis=3) >= 0).all(axis=(2, 3)) & (chains[..., -1] <= N).all(axis=2)
    return chains[ok]


def _y_to_x(y_pts: np.ndarray, N: int) -> np.ndarray:
    """Map partial-sum lattice points back to compositions of N."""
    y_pts = np.atleast_2d(y_pts)
    first = y_pts[:, :1]
    mids = np.diff(y_pts, axis=1)
    last = N - y_pts[:, -1:]
    return np.hstack([first, mids, last])


def max_cell_diameter_bound(k: int, N: int) -> float:
    """Certified l1 diameter bound of staircase cells at denominator N.

    A within-cell vertex difference maps to a +-1 pattern with at most
    floor(k/2) blocks, each contributing l1 mass 2/N; the whole simplex has
    l1 diameter 2, which caps the N=1 case.
    """
    return min(2.0, 2.0 * (k // 2) / N)


def _l1_diameter(simplices: np.ndarray) -> float:
    """Largest l1 distance between two vertices of one simplex in a (C, s, k) stack."""
    pairs = np.abs(simplices[:, :, None] - simplices[:, None]).sum(axis=-1)
    return float(pairs.max(initial=0.0))


def build_grid(k: int, max_diameter: float, *, vertex_cap: int | None = None,
               align_multiple: int = 1) -> SimplexGrid:
    """Lattice grid with every cell's l1 diameter <= max_diameter.

    N = ceil(2/max_diameter) suffices for k <= 3; higher k needs
    ceil(2*floor(k/2)/max_diameter) because staircase cells can pair vertices
    at l1 distance 2*floor(k/2)/N.  ``align_multiple`` rounds N up so coarse
    divisor grids stay vertex subsets (used by oracle comparisons).
    """
    if k < 2:
        raise ValidationError("grid needs k >= 2")
    if max_diameter <= 0:
        raise ValidationError("max_diameter must be positive")
    cap = DEFAULT_VERTEX_CAP if vertex_cap is None else int(vertex_cap)
    N = max(1, math.ceil(2.0 * max(1, k // 2) / max_diameter))
    if align_multiple > 1:
        N = ((N + align_multiple - 1) // align_multiple) * align_multiple
    count = lattice_vertex_count(k, N)
    if count > cap:
        raise ResourceLimitError(
            f"grid would need {count} vertices (k={k}, N={N}), cap is {cap}")
    lattice = _lattice_vertices(k, N)
    grid = SimplexGrid(k=k, denominator=N,
                       vertices=lattice.astype(float) / N,
                       measured_max_diameter=max_cell_diameter_bound(k, N),
                       _rank_tab=_rank_table(k, N))
    if grid.measured_max_diameter > max_diameter + 1e-12:
        raise ValidationError(
            f"cell diameter {grid.measured_max_diameter} exceeds requested "
            f"{max_diameter}")  # pragma: no cover - formula guarantees this
    return grid


def triangulation_grid(k: int, vertices: np.ndarray,
                       cells: np.ndarray) -> SimplexGrid:
    """Grid from an explicit triangulation (piecewise-constant refinements)."""
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    return SimplexGrid(k=k, denominator=None, vertices=vertices,
                       measured_max_diameter=_l1_diameter(vertices[cells]),
                       _cells=cells)


def refine_simplex(simplex: np.ndarray, max_diameter: float, *,
                   vertex_cap: int = DEFAULT_VERTEX_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Edgewise subdivision of one simplex into cells of l1 diameter <= bound.

    Returns (vertices, cells); the subdivision maps the staircase cells of
    the standard simplex through barycentric coordinates.  Raises
    ResourceLimitError when it would need more than vertex_cap vertices.
    """
    if max_diameter <= 0:
        raise ValidationError("max_diameter must be positive")
    S = np.atleast_2d(np.asarray(simplex, dtype=float))
    k = S.shape[0]
    diam = _l1_diameter(S[None])
    if diam <= max_diameter:
        return S.copy(), np.arange(k, dtype=np.int64)[None, :]
    # A barycentric l1 difference of b maps to at most (b/2)*diam in x-space;
    # staircase cells have barycentric l1 diameter 2*floor(k/2)/n.
    n = max(1, math.ceil((k // 2) * diam / max_diameter))
    count = lattice_vertex_count(k, n)
    if count > vertex_cap:
        raise ResourceLimitError(
            f"refining a piece would need {count} vertices, cap is {vertex_cap}")
    bary = _lattice_vertices(k, n).astype(float) / n
    sub = build_grid_cells_for_level(k, n)
    return bary @ S, sub


def build_grid_cells_for_level(k: int, n: int) -> np.ndarray:
    """Staircase cells of the standard lattice at denominator n."""
    # Base corners: nondecreasing partial sums in [0, n-1], i.e. the partial
    # sums of the compositions of n-1, in lexicographic order.
    corners = np.cumsum(_lattice_vertices(k, n - 1)[:, :-1], axis=1)
    pts = _y_to_x(_staircase_cells(corners, n).reshape(-1, k - 1), n)
    return composition_rank(pts, n, _rank_table(k, n)).reshape(-1, k)


def simplex_volume(k: int) -> float:
    """Volume of the full probability simplex embedded in R^k."""
    return math.sqrt(k) / math.factorial(k - 1)


# ---------------------------------------------------------------------------
# Contracted-simplex projection
# ---------------------------------------------------------------------------

def project_to_scaled_simplex(V: np.ndarray, z: float) -> np.ndarray:
    """Row-wise Euclidean projection onto {y >= 0, sum y = z} (sort-based)."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, k = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - z
    ind = np.arange(1, k + 1)
    cond = U - css / ind > 0
    rho = np.count_nonzero(cond, axis=1)
    theta = css[np.arange(n), rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0)


def contraction_floor(k: int, eps: float) -> float:
    """Coordinate floor of S_eps = center + (simplex - center)/(1+eps^2)."""
    return (eps * eps) / (k * (1.0 + eps * eps))


def project_to_contraction_batch(Q: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise Euclidean projection onto the contracted simplex S_eps.

    S_eps = {x : x >= lo, sum x = 1} lies in the sum-1 hyperplane, so the
    projection of a row is the projection of its orthogonal shift onto that
    hyperplane; a shifted row with no entry below lo is its own projection.
    Only the other rows (near the simplex boundary) are sorted.
    """
    if eps <= 0:
        raise ValidationError("contraction eps must be positive")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    k = Q.shape[1]
    lo = contraction_floor(k, eps)
    out = Q + ((1.0 - reduce_last_axis(np.add, Q)) / k)[:, None]
    below = np.flatnonzero(reduce_last_axis(np.minimum, out) < lo)
    if below.size:
        out[below] = lo + project_to_scaled_simplex(Q[below] - lo, 1.0 - k * lo)
    return out


def project_to_contraction(q, eps: float):
    """Project one posterior onto S_eps; idempotent on S_eps itself."""
    from .core import Posterior
    w = np.asarray(getattr(q, "weights", q), dtype=float)
    out = project_to_contraction_batch(w[None, :], eps)[0]
    return Posterior(out) if isinstance(q, Posterior) else out
