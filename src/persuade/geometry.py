"""Simplicial grids over the probability simplex.

The lattice grid at denominator N has vertices {x/N : x nonnegative integers
summing to N} and cells given by the Kuhn/Freudenthal triangulation in
partial-sum coordinates y_i = x_1 + ... + x_i: the simplex maps to the
ordered region 0 <= y_1 <= ... <= y_{k-1} <= N, whose unit cubes split into
staircase simplices, N^(k-1) cells in total; no cell is ever built.  A
lattice grid stores no array: its vertices come in lexicographic blocks of
at most LATTICE_BLOCK rows (lattice_blocks), so a consumer that reads them
block by block never holds all V of them.  Triangulation grids (refined
pieces) carry explicit vertices, one block, and no cell: refine_simplex
returns a piece simplex's refined vertices and the certified diameter of
their staircase cells.

For lazy pricing of a lattice, the ordered region is covered by dyadic
boxes aligned to their side: split_boxes halves them, box_bounds gives
each box a center vertex with the coordinate range and l1 radius of its
compositions, and stride_sublattice and staircase_cell_at give the
vertices a first master LP starts from.

Also provides the Euclidean projection onto the contracted simplex
S_eps = center + (simplex - center) / (1 + eps^2) used by constraint
smoothing: exact, with the sort-based method run only on the rows that
have an entry below the floor of S_eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ResourceLimitError, ValidationError, frozen, reduce_last_axis

DEFAULT_VERTEX_CAP = 5_000_000
# Rows per lattice block: above the largest grid of the many-small-solves
# benchmark workload (73,153 vertices), so its grids are built in one piece.
LATTICE_BLOCK = 1 << 17


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
    return _unrank_compositions(np.arange(lattice_vertex_count(k, N)), k, N,
                                _rank_table(k, N))


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
        # The compositions preceding x at this position put a < x_pos here
        # and the other remaining - a in the k - pos - 1 parts left: with
        # table[j + 1] = cumsum(table[j]), that is a difference of two
        # entries of row k - pos.
        count = table[k - pos]
        rank += count[remaining] - count[remaining - x[:, pos]]
        remaining = remaining - x[:, pos]
    return rank


def _unrank_compositions(ranks: np.ndarray, k: int, N: int,
                         table: np.ndarray) -> np.ndarray:
    """Compositions of N into k parts at lexicographic ``ranks``, the inverse
    of composition_rank, one pass over the rows per part.

    With n left for p parts, the compositions whose first part is a hold
    the ranks [C(n) - C(n-a), C(n) - C(n-a-1)), C = table[p]; so, counting
    t = C(n) - rank from the end, the rest n - a is the first m with
    C(m) >= t, and the rank within that rest is C(m) - t.  Two parts left
    are (rank, n - rank).
    """
    x = np.empty((ranks.shape[0], k), dtype=np.int64)
    n, rank = N, ranks
    for pos in range(k - 2):
        count = table[k - pos]
        t = count[n] - rank
        rest = np.searchsorted(count, t)
        x[:, pos] = n - rest
        rank, n = count[rest] - t, rest
    x[:, -2] = rank
    x[:, -1] = n - rank
    return x


def lattice_blocks(k: int, N: int):
    """The lattice vertices x/N in lexicographic order, LATTICE_BLOCK rows a
    block, read-only.

    Rows are bit for bit those of _lattice_vertices(k, N) / N.  A lattice
    of at most LATTICE_BLOCK vertices is one block, built by
    _lattice_vertices; a larger one unranks each block's rank range.
    """
    V = lattice_vertex_count(k, N)
    table = _rank_table(k, N) if V > LATTICE_BLOCK else None
    for start in range(0, V, LATTICE_BLOCK):
        block = (_lattice_vertices(k, N) if table is None else _unrank_compositions(
            np.arange(start, min(start + LATTICE_BLOCK, V)), k, N, table)).astype(float)
        block /= N
        yield frozen(block)


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """A triangulated subset of the simplex (usually all of it).

    A lattice grid has ``denominator`` N and holds no array: blocks()
    generates its vertices; its cells are the staircase cells of N.
    A triangulation grid (piece refinements) has a ``denominator`` of None
    and carries its vertices, read-only, as one block, and no cell.
    ``measured_max_diameter`` bounds every cell's l1 diameter.
    """

    k: int
    denominator: int | None
    measured_max_diameter: float
    explicit_vertices: np.ndarray | None = None  # (V, k); None on lattices

    @property
    def vertex_count(self) -> int:
        if self.denominator is None:
            return self.explicit_vertices.shape[0]
        return lattice_vertex_count(self.k, self.denominator)

    def blocks(self):
        """The (rows, k) vertex blocks, in vertex order."""
        if self.denominator is None:
            return iter((self.explicit_vertices,))
        return lattice_blocks(self.k, self.denominator)

    @property
    def vertices(self) -> np.ndarray:
        """(V, k) read-only; a lattice's are generated anew at each access."""
        blocks = list(self.blocks())
        return blocks[0] if len(blocks) == 1 else frozen(np.concatenate(blocks))


def _y_to_x(y_pts: np.ndarray, N: int) -> np.ndarray:
    """Map partial-sum lattice points back to compositions of N."""
    y_pts = np.atleast_2d(y_pts)
    first = y_pts[:, :1]
    mids = np.diff(y_pts, axis=1)
    last = N - y_pts[:, -1:]
    return np.hstack([first, mids, last])


def stride_sublattice(k: int, N: int, stride: int) -> np.ndarray:
    """The compositions of N whose first k-1 partial sums are multiples of
    ``stride``, in lexicographic order."""
    x = _lattice_vertices(k, N // stride) * stride
    x[:, -1] += N % stride
    return x


def split_boxes(lo: np.ndarray, side: int, N: int) -> np.ndarray:
    """Lower corners of the boxes of side side // 2 that tile the boxes
    lo + [0, side)^(k-1) in partial-sum coordinates and meet the ordered
    region 0 <= y_1 <= ... <= y_{k-1} <= N.

    Every box is aligned to its side (a power of two), so it meets the
    region exactly when its lower corner lies in it.  Axes are halved last
    to first, and an upper half is kept only while it stays at or below the
    axis after it (N for the last), so each row built on the way completes
    to a kept box and no array outgrows the result.
    """
    half = side // 2
    kids = np.asarray(lo, dtype=np.int64)
    for i in range(kids.shape[1] - 1, -1, -1):
        up = kids.copy()
        up[:, i] += half
        cap = up[:, i + 1] if i + 1 < up.shape[1] else N
        kids = np.concatenate([kids, up[up[:, i] <= cap]])
    return kids


def box_bounds(lo: np.ndarray, side: int, N: int):
    """(center, x_lo, x_hi, radius) of the aligned partial-sum boxes
    lo + [0, side)^(k-1), each meeting the ordered region, cut at y <= N.

    center is a lattice point of the box, as a composition: halfway along
    each axis of the cut box, which keeps it ordered.  Every composition x
    of the box, and every real point between two of them, has
    x_lo <= x <= x_hi and ||x - center||_1 <= radius.  With d = y - center
    (d_0 = d_k = 0), ||x - center||_1 = sum_i |d_i - d_{i-1}| is convex in
    d, so its largest value over the box is at a corner; a two-state pass
    along the axes finds it.
    """
    hi = np.minimum(lo + (side - 1), N)
    center = lo + (hi - lo) // 2
    x_lo, x_hi = _y_to_x(lo, N), _y_to_x(hi, N)
    x_lo[:, 1:-1], x_hi[:, 1:-1] = np.maximum(lo[:, 1:] - hi[:, :-1], 0), \
        hi[:, 1:] - lo[:, :-1]
    x_lo[:, -1], x_hi[:, -1] = N - hi[:, -1], N - lo[:, -1]
    # reach_*: the largest sum of |d_i' - d_{i'-1}| over i' <= i with d_i
    # at the low or the high end of axis i.
    low = high = reach_low = reach_high = 0
    for i in range(lo.shape[1]):
        a, b = lo[:, i] - center[:, i], hi[:, i] - center[:, i]
        reach_low, reach_high = (
            np.maximum(reach_low + np.abs(a - low), reach_high + np.abs(a - high)),
            np.maximum(reach_low + np.abs(b - low), reach_high + np.abs(b - high)))
        low, high = a, b
    radius = np.maximum(reach_low - low, reach_high + high)
    return _y_to_x(center, N), x_lo, x_hi, radius


def staircase_cell_at(q: np.ndarray, N: int) -> np.ndarray:
    """Compositions of N whose x/N span a staircase cell that holds the
    point q, the vertices q puts no weight on left out.

    With y = N * partial sums of q, base = floor(y) and f = y - base, the
    cell's vertices raise base by one along the axes of largest f first;
    on ties the later axis goes first, so every vertex stays ordered, and
    axes with f = 0 are never raised.
    """
    y = np.minimum(N * np.cumsum(q)[:-1], N)
    base = np.floor(y)
    frac = y - base
    d = y.shape[0]
    order = np.lexsort((-np.arange(d), -frac))[: np.count_nonzero(frac > 0)]
    chain = np.tile(base, (order.shape[0] + 1, 1))
    for t, axis in enumerate(order):
        chain[t + 1:, axis] += 1
    return _y_to_x(chain.astype(np.int64), N)


def staircase_level(k: int, diameter: float, max_diameter: float,
                    align_multiple: int = 1) -> tuple[int, float]:
    """(n, cell diameter): the level n at which the staircase cells of a
    k-vertex simplex of l1 diameter ``diameter`` have l1 diameter at most
    ``max_diameter``, and the certified l1 diameter of those cells.

    A within-cell vertex difference is, in barycentric coordinates, a +-1
    pattern with at most floor(k/2) blocks, each of l1 mass 2/n, and a
    barycentric l1 difference of b maps to at most (b/2) * diameter; so the
    cells have l1 diameter floor(k/2) * diameter / n, and never more than
    the simplex itself.  ``align_multiple`` rounds n up to a multiple.
    """
    n = max(1, math.ceil((k // 2) * diameter / max_diameter))
    if align_multiple > 1:
        n = ((n + align_multiple - 1) // align_multiple) * align_multiple
    return n, min(diameter, (k // 2) * diameter / n)


def _l1_diameter(simplices: np.ndarray) -> float:
    """Largest l1 distance between two vertices of one simplex in a (C, s, k) stack."""
    pairs = np.abs(simplices[:, :, None] - simplices[:, None]).sum(axis=-1)
    return float(pairs.max(initial=0.0))


def build_grid(k: int, max_diameter: float, *, vertex_cap: int | None = None,
               align_multiple: int = 1) -> SimplexGrid:
    """Lattice grid with every cell's l1 diameter <= max_diameter.

    N is the staircase_level of the whole simplex (l1 diameter 2):
    ceil(2*floor(k/2)/max_diameter), since staircase cells can pair vertices
    at l1 distance 2*floor(k/2)/N.  ``align_multiple`` rounds N up so coarse
    divisor grids stay vertex subsets (used by oracle comparisons).
    """
    if k < 2:
        raise ValidationError("grid needs k >= 2")
    if max_diameter <= 0:
        raise ValidationError("max_diameter must be positive")
    cap = DEFAULT_VERTEX_CAP if vertex_cap is None else int(vertex_cap)
    N, diameter = staircase_level(k, 2.0, max_diameter, align_multiple)
    count = lattice_vertex_count(k, N)
    if count > cap:
        raise ResourceLimitError(
            f"grid would need {count} vertices (k={k}, N={N}), cap is {cap}")
    grid = SimplexGrid(k=k, denominator=N, measured_max_diameter=diameter)
    if grid.measured_max_diameter > max_diameter + 1e-12:
        raise ValidationError(
            f"cell diameter {grid.measured_max_diameter} exceeds requested "
            f"{max_diameter}")  # pragma: no cover - formula guarantees this
    return grid


def triangulation_grid(k: int, vertices: np.ndarray,
                       max_diameter: float) -> SimplexGrid:
    """Grid of explicit vertices (piecewise-constant refinements) whose
    cells have l1 diameter at most ``max_diameter``.

    The grid holds a read-only view, so the caller's array stays writeable.
    """
    return SimplexGrid(k=k, denominator=None, measured_max_diameter=max_diameter,
                       explicit_vertices=frozen(np.asarray(vertices, dtype=float).view()))


def refine_simplex(simplex: np.ndarray, max_diameter: float, *,
                   vertex_cap: int = DEFAULT_VERTEX_CAP) -> tuple[np.ndarray, float]:
    """Edgewise subdivision of one simplex into cells of l1 diameter <= bound.

    Returns (vertices, certified cell diameter): at the staircase_level n,
    the lattice points of denominator n in lattice order mapped through
    barycentric coordinates, whose cells (not built) are the staircase
    cells of the lattice at n.  A simplex within the bound is its
    own one cell.  Raises ResourceLimitError past vertex_cap vertices.
    """
    if max_diameter <= 0:
        raise ValidationError("max_diameter must be positive")
    S = np.atleast_2d(np.asarray(simplex, dtype=float))
    k = S.shape[0]
    diam = _l1_diameter(S[None])
    if diam <= max_diameter:
        return S.copy(), diam
    n, cell_diameter = staircase_level(k, diam, max_diameter)
    count = lattice_vertex_count(k, n)
    if count > vertex_cap:
        raise ResourceLimitError(
            f"refining a piece would need {count} vertices, cap is {vertex_cap}")
    bary = _lattice_vertices(k, n).astype(float) / n
    return bary @ S, cell_diameter


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
