"""Piecewise-constant upper approximations of the Sender utility on a grid.

For Lipschitz (max-of-linear) utilities the approximation lives on the
uniform lattice grid; the value over a cell is the vertex maximum plus a
certified slack L_u * diameter, which keeps the object an upper bound while
the grid diameter formula absorbs the slack into the eps budget.

For piecewise-constant utilities the simplices that UtilitySpec triangulated
each piece into at construction (core.triangulate_piece) are subdivided, and
every sub-cell inherits its parent piece's value, so the approximation
reproduces the utility exactly (upper envelope included) and the grid
vertices are exactly the piece vertices the LP restricts support to.  The
sub-cells themselves are never built: a vertex's value, the largest value
of a cell at it, is the largest piece value among the refined vertices
merged into it.

The LP reads only the vertex values, block by block (GriddedUtility.blocks,
over the grid's own blocks), so a lattice's values never exist as one
array; nothing here evaluates u_eps at an off-grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .core import (UnsupportedKindError, UtilitySpec, ValidationError,
                   eval_utility_batch, frozen)


@dataclass(frozen=True, eq=False)
class GriddedUtility:
    """Upper approximation u_eps of the source utility over a grid.

    u_eps at a point is the largest value of a cell whose closure holds it:
    the max of its vertex values on a lattice, its piece's value on a piece
    grid (below the max of its vertex values on a piece boundary).  The
    vertex values are the LP objective: the max-linear ``utility`` plus pad
    on a lattice, the largest value of a cell at the vertex on a piece grid
    (``piece_values``).  gap_bound is a certified bound on sup(u_eps - u).
    """

    grid: geometry.SimplexGrid
    pad: float                      # additive slack on vertex values
    gap_bound: float
    utility: UtilitySpec | None = None      # lattice path: max-linear utility
    piece_values: np.ndarray | None = None  # piecewise path: value per vertex

    def blocks(self):
        """(vertices, vertex values) of each grid block in vertex order,
        read-only; a piece grid is one block."""
        if self.piece_values is not None:
            yield self.grid.vertices, self.piece_values
            return
        for points in self.grid.blocks():
            yield points, self.lattice_values(points)

    def lattice_values(self, points: np.ndarray) -> np.ndarray:
        """Vertex values at lattice points (rows): the utility plus pad."""
        values = eval_utility_batch(self.utility, points)
        values += self.pad
        return frozen(values)


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
        utility = _auction.to_max_linear(utility.auction,
                                         objective=utility.kind.removeprefix("auction_"))
    if utility.kind == "max_linear":
        return _build_lipschitz(utility, eps, lipschitz_bound,
                                vertex_cap=vertex_cap, align_multiple=align_multiple)
    if utility.kind == "piecewise_constant":
        return _build_piecewise(utility, eps, lipschitz_bound, vertex_cap=vertex_cap)
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
    gap_bound = 2.0 * L_u * grid.measured_max_diameter
    if gap_bound > eps + 1e-12:  # pragma: no cover - delta formula prevents this
        raise ValidationError("certified gap exceeds eps")
    return GriddedUtility(grid=grid, pad=pad, gap_bound=gap_bound, utility=utility)


def _build_piecewise(utility: UtilitySpec, eps: float, M: float, *,
                     vertex_cap: int | None) -> GriddedUtility:
    k = utility.k
    delta = eps / max(M, 1.0)
    cap = geometry.DEFAULT_VERTEX_CAP if vertex_cap is None else int(vertex_cap)
    verts, values, count, diameter = [], [], 0, 0.0
    for simplices, (_, value) in zip(utility.simplices, utility.pieces):
        if simplices.shape[1] != k:
            raise UnsupportedKindError(
                "piece polytope is lower-dimensional; the grid approximation "
                "needs full-dimensional pieces")
        for simplex in simplices:
            sub, sub_diameter = geometry.refine_simplex(simplex, delta,
                                                        vertex_cap=cap - count)
            verts.append(sub)
            values.append(np.full(len(sub), value))
            count += len(sub)
            diameter = max(diameter, sub_diameter)
    raw = np.vstack(verts)
    # Merge vertices equal after rounding to 12 digits, keeping the first
    # occurrence of each and that order; + 0.0 turns -0.0 into 0.0.
    _, first, inverse = np.unique(np.round(raw, 12) + 0.0, axis=0,
                                  return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    vertex_values = np.full(len(first), -np.inf)
    np.maximum.at(vertex_values, np.argsort(by_first)[inverse.reshape(-1)],
                  np.concatenate(values))
    vertex_values += 0.0  # as a pad of 0.0: -0.0 becomes 0.0
    grid = geometry.triangulation_grid(k, raw[first[by_first]], diameter)
    return GriddedUtility(grid=grid, pad=0.0, gap_bound=0.0,
                          piece_values=frozen(vertex_values))
