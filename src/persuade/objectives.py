"""Piecewise-constant upper approximations of the Sender utility on a grid.

For Lipschitz (max-of-linear) utilities the approximation lives on the
uniform lattice grid; the value over a cell is the vertex maximum plus a
certified slack L_u * diameter, which keeps the object an upper bound while
the grid diameter formula absorbs the slack into the eps budget.

For piecewise-constant utilities the pieces themselves are triangulated and
subdivided, and every sub-cell inherits its parent piece's value, so the
approximation reproduces the utility exactly (upper envelope included) and
the grid vertices are exactly the piece vertices the LP restricts support
to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .core import (UnsupportedKindError, UtilitySpec, ValidationError,
                   eval_utility_batch)


@dataclass(eq=False)
class GriddedUtility:
    """Upper approximation u_eps of the source utility over a grid.

    vertex_values() feeds the LP objective; eval() is the upper-envelope
    evaluation (max over cells whose closure contains the point).
    gap_bound is a certified bound on sup(u_eps - u_source).
    """

    grid: geometry.SimplexGrid
    source: UtilitySpec
    eps: float
    lipschitz_bound: float          # M, the constraint-side constant
    utility_lipschitz: float        # L_u (0 for the piecewise path)
    pad: float                      # additive slack on vertex values
    vertex_base: np.ndarray         # utility at the grid vertices
    gap_bound: float
    cell_values: np.ndarray | None = None  # piecewise path: value per cell

    def vertex_values(self) -> np.ndarray:
        return self.vertex_base + self.pad

    def cell_value(self, cell: np.ndarray) -> float:
        return float(self.vertex_base[np.asarray(cell)].max() + self.pad)

    def eval(self, q) -> float:
        q = np.asarray(getattr(q, "weights", q), dtype=float)
        if self.cell_values is not None:
            best = -math.inf
            for ci, cell in enumerate(self.grid.cells):
                if float(self.cell_values[ci]) > best and \
                        geometry.SimplexGrid._bary_inside(self.grid.vertices[cell], q, geometry.BARY_TOL):
                    best = float(self.cell_values[ci])
            if best == -math.inf:
                raise ValidationError("point not covered by the refined grid")
            return best
        cells = self.grid.locate_cells(q)
        if not cells:
            raise ValidationError("point not covered by the lattice grid")
        return max(self.cell_value(c) for c in cells)


def build_upper_approx(utility: UtilitySpec, eps: float, lipschitz_bound: float,
                       *, vertex_cap: int | None = None,
                       align_multiple: int = 1) -> GriddedUtility:
    """Build u_eps with 0 <= u_eps - u <= eps over the whole simplex.

    The grid diameter is min(eps/max(M,1), eps/(2 L_u)); the second term
    makes the Lipschitz vertex-max-plus-slack rule stay within eps, the
    first keeps constraint perturbations within eps when mass moves to cell
    vertices.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if lipschitz_bound < 0:
        raise ValidationError("lipschitz_bound must be nonnegative")
    if utility.kind in ("auction_welfare", "auction_revenue"):
        from . import auction as _auction
        converted = _auction.to_max_linear(utility.auction,
                                           objective=utility.kind.removeprefix("auction_"))
        gu = build_upper_approx(converted, eps, lipschitz_bound,
                                vertex_cap=vertex_cap, align_multiple=align_multiple)
        gu.source = utility
        return gu
    if utility.kind == "max_linear":
        return _build_lipschitz(utility, eps, lipschitz_bound,
                                vertex_cap=vertex_cap, align_multiple=align_multiple)
    if utility.kind == "piecewise_constant":
        return _build_piecewise(utility, eps, lipschitz_bound)
    raise UnsupportedKindError(
        f"utility kind {utility.kind!r} has no grid approximation")


def _build_lipschitz(utility: UtilitySpec, eps: float, M: float, *,
                     vertex_cap: int | None, align_multiple: int) -> GriddedUtility:
    k = utility.k
    L_u = utility.lipschitz_l1()
    delta = eps / max(M, 1.0)
    if L_u > 0:
        delta = min(delta, eps / (2.0 * L_u))
    grid = geometry.build_grid(k, delta, vertex_cap=vertex_cap,
                               align_multiple=align_multiple)
    pad = L_u * grid.measured_max_diameter
    vertex_base = eval_utility_batch(utility, grid.vertices)
    gap_bound = 2.0 * L_u * grid.measured_max_diameter
    if gap_bound > eps + 1e-12:  # pragma: no cover - delta formula prevents this
        raise ValidationError("certified gap exceeds eps")
    return GriddedUtility(grid=grid, source=utility, eps=eps,
                          lipschitz_bound=M, utility_lipschitz=L_u, pad=pad,
                          vertex_base=vertex_base, gap_bound=gap_bound)


def _triangulate_piece(verts: np.ndarray, k: int) -> list[np.ndarray]:
    """Split a convex piece polytope (vertex list) into nondegenerate simplices."""
    verts = np.atleast_2d(verts)
    v = verts.shape[0]
    if v < k:
        raise UnsupportedKindError(
            "piece polytope is lower-dimensional; the grid approximation "
            "needs full-dimensional pieces")
    if v == k:
        if geometry.cell_volume(verts) <= 1e-14:
            raise UnsupportedKindError("piece polytope is degenerate")
        return [verts]
    if k == 2:
        # 1-D hull: the extreme points in the first coordinate.
        lo = verts[np.argmin(verts[:, 0])]
        hi = verts[np.argmax(verts[:, 0])]
        return [np.vstack([lo, hi])]
    if k == 3:
        # Fan triangulation of the polygon ordered around its centroid.
        center = verts.mean(axis=0)
        ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
        ring = verts[np.argsort(ang)]
        tris = []
        for i in range(1, v - 1):
            tri = np.vstack([ring[0], ring[i], ring[i + 1]])
            if geometry.cell_volume(tri) > 1e-14:
                tris.append(tri)
        if not tris:
            raise UnsupportedKindError("piece polygon is degenerate")
        return tris
    raise UnsupportedKindError(
        "piece polytopes with more vertices than states are only supported "
        "for k <= 3")


def _build_piecewise(utility: UtilitySpec, eps: float, M: float) -> GriddedUtility:
    k = utility.k
    delta = eps / max(M, 1.0)
    key_of = lambda row: tuple(np.round(row, 12))
    vert_index: dict[tuple, int] = {}
    verts_out: list[np.ndarray] = []
    cells_out: list[np.ndarray] = []
    values_out: list[float] = []

    def add_vertex(row: np.ndarray) -> int:
        key = key_of(row)
        idx = vert_index.get(key)
        if idx is None:
            idx = len(verts_out)
            vert_index[key] = idx
            verts_out.append(row)
        return idx

    for piece_verts, value in utility.pieces:
        for simplex in _triangulate_piece(piece_verts, k):
            sub_verts, sub_cells = geometry.refine_simplex(simplex, delta)
            local = [add_vertex(row) for row in sub_verts]
            for cell in sub_cells:
                cells_out.append(np.array([local[i] for i in cell], dtype=np.int64))
                values_out.append(float(value))
    vertices = np.vstack(verts_out)
    cells = np.vstack(cells_out)
    grid = geometry.triangulation_grid(k, vertices, cells)
    if grid.measured_max_diameter > delta + 1e-12:  # pragma: no cover
        raise ValidationError("refinement missed the diameter bound")
    cell_values = np.asarray(values_out)
    vertex_base = np.full(vertices.shape[0], -np.inf)
    for cell, val in zip(cells, cell_values):
        np.maximum.at(vertex_base, cell, val)
    return GriddedUtility(grid=grid, source=utility, eps=eps,
                          lipschitz_bound=M, utility_lipschitz=0.0, pad=0.0,
                          vertex_base=vertex_base, gap_bound=0.0,
                          cell_values=cell_values)
