"""Simplicial grids over the probability simplex.

The lattice grid at denominator N has vertices {x/N : x nonnegative integers
summing to N} and cells given by the Kuhn/Freudenthal triangulation in
partial-sum coordinates y_i = x_1 + ... + x_i: the simplex maps to the
ordered region 0 <= y_1 <= ... <= y_{k-1} <= N, whose unit cubes split into
staircase simplices, N^(k-1) cells in total.  Cells are enumerated lazily;
point location works by lattice arithmetic, so huge grids never materialize
their cell list.

Also provides the Euclidean projection onto the contracted simplex
S_eps = center + (simplex - center) / (1 + eps^2) used by constraint
smoothing, computed by the exact sort-based method.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import ResourceLimitError, ValidationError

DEFAULT_VERTEX_CAP = 5_000_000
BARY_TOL = 1e-9


def _comb(n: int, r: int) -> int:
    return math.comb(n, r) if n >= r >= 0 else 0


def lattice_vertex_count(k: int, N: int) -> int:
    return _comb(N + k - 1, k - 1)


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

    def _vertex_rank(self, lattice_pts: np.ndarray) -> np.ndarray:
        return composition_rank(lattice_pts, self.denominator, self._rank_tab)

    def cell_vertices(self, cell: np.ndarray) -> np.ndarray:
        return self.vertices[np.asarray(cell, dtype=np.int64)]

    # -- point location -------------------------------------------------------
    def locate_cells(self, q: np.ndarray, tol: float = BARY_TOL) -> list[np.ndarray]:
        """Vertex-index arrays of every cell whose closure contains q."""
        q = np.asarray(q, dtype=float)
        if self.is_lattice:
            return self._locate_lattice(q, tol)
        found = []
        for cell in self.cells:
            if self._bary_inside(self.vertices[cell], q, tol):
                found.append(np.asarray(cell, dtype=np.int64))
        return found

    @staticmethod
    def _bary_inside(verts: np.ndarray, q: np.ndarray, tol: float) -> bool:
        try:
            beta = np.linalg.solve(verts.T, q)
        except np.linalg.LinAlgError:
            return False
        return bool(beta.min() >= -tol and np.max(np.abs(verts.T @ beta - q)) <= tol)

    def _locate_lattice(self, q: np.ndarray, tol: float) -> list[np.ndarray]:
        N = self.denominator
        y = np.cumsum(q[:-1]) * N
        ranges = []
        for yi in y:
            # A containing cube must have z_i <= y_i <= z_i + 1.
            lo = max(0, math.ceil(yi - 1.0 - N * tol))
            hi = min(N - 1, math.floor(yi + N * tol))
            ranges.append(range(lo, hi + 1))
        found: list[np.ndarray] = []
        for z in itertools.product(*ranges):
            z = np.array(z, dtype=np.int64)
            if np.any(np.diff(z) < 0):
                continue
            for chain in _staircase_chains(z, N):
                pts = _y_to_x(chain, N)
                if self._bary_inside(pts.astype(float) / N, q, tol):
                    found.append(self._vertex_rank(pts))
        return found


def _staircase_chains(z: np.ndarray, N: int):
    """Partial-sum vertex chains of the staircase cells with base corner z.

    Each permutation of the k-1 axes raises z by one along one axis at a
    time; a chain is kept when every point stays in 0 <= y_1 <= ... <= N.
    """
    for perm in itertools.permutations(range(z.shape[0])):
        chain = [z]
        for axis in perm:
            cur = chain[-1].copy()
            cur[axis] += 1
            if np.any(np.diff(cur) < 0) or cur[-1] > N:
                break
            chain.append(cur)
        else:
            yield np.vstack(chain)


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


def _l1_diameter(simplices) -> float:
    """Largest l1 distance between two vertices of one simplex (rows of an array)."""
    out = 0.0
    for pts in simplices:
        for i in range(1, pts.shape[0]):
            out = max(out, float(np.abs(pts[i:] - pts[i - 1]).sum(axis=1).max()))
    return out


def build_grid(k: int, max_diameter: float, *, vertex_cap: int | None = None,
               align_multiple: int = 1, with_cells: bool = False) -> SimplexGrid:
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
    if with_cells:
        grid.measured_max_diameter = _l1_diameter(grid.vertices[cell]
                                                  for cell in grid.cells)
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
                       measured_max_diameter=_l1_diameter(vertices[cell]
                                                          for cell in cells),
                       _cells=cells)


def refine_simplex(simplex: np.ndarray, max_diameter: float) -> tuple[np.ndarray, np.ndarray]:
    """Edgewise subdivision of one simplex into cells of l1 diameter <= bound.

    Returns (vertices, cells); the subdivision maps the staircase cells of
    the standard simplex through barycentric coordinates.
    """
    S = np.atleast_2d(np.asarray(simplex, dtype=float))
    k = S.shape[0]
    diam = _l1_diameter([S])
    if diam <= max_diameter:
        return S.copy(), np.arange(k, dtype=np.int64)[None, :]
    # A barycentric l1 difference of b maps to at most (b/2)*diam in x-space;
    # staircase cells have barycentric l1 diameter 2*floor(k/2)/n.
    n = max(1, math.ceil((k // 2) * diam / max_diameter))
    bary = _lattice_vertices(k, n).astype(float) / n
    sub = build_grid_cells_for_level(k, n)
    return bary @ S, sub


def build_grid_cells_for_level(k: int, n: int) -> np.ndarray:
    """Staircase cells of the standard lattice at denominator n."""
    table = _rank_table(k, n)
    return np.array([composition_rank(_y_to_x(chain, n), n, table)
                     for z in itertools.combinations_with_replacement(range(n), k - 1)
                     for chain in _staircase_chains(np.array(z, dtype=np.int64), n)],
                    dtype=np.int64)


def cell_volume(verts: np.ndarray) -> float:
    """(k-1)-dimensional volume of a simplex cell embedded in R^k."""
    verts = np.atleast_2d(np.asarray(verts, dtype=float))
    E = verts[1:] - verts[0]
    gram = E @ E.T
    det = float(np.linalg.det(gram))
    d = E.shape[0]
    return math.sqrt(max(det, 0.0)) / math.factorial(d)


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
    """Row-wise Euclidean projection onto the contracted simplex S_eps."""
    if eps <= 0:
        raise ValidationError("contraction eps must be positive")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    k = Q.shape[1]
    lo = contraction_floor(k, eps)
    z = 1.0 - k * lo
    return lo + project_to_scaled_simplex(Q - lo, z)


def project_to_contraction(q, eps: float):
    """Project one posterior onto S_eps; idempotent on S_eps itself."""
    from .core import Posterior
    w = np.asarray(getattr(q, "weights", q), dtype=float)
    out = project_to_contraction_batch(w[None, :], eps)[0]
    return Posterior(out) if isinstance(q, Posterior) else out
