import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from persuade import geometry
from persuade.core import ResourceLimitError, ValidationError, cell_volume
from persuade.geometry import (build_grid, composition_rank, contraction_floor,
                               lattice_blocks, lattice_vertex_count,
                               project_to_contraction_batch, refine_simplex,
                               staircase_level, triangulation_grid,
                               _l1_diameter, _lattice_vertices, _rank_table)

from helpers import (cells_containing, grid_cells, lattice_compositions,
                     project_to_contraction, random_fan_utility, refined_pieces,
                     simplex_volume, staircase_cells)


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------

def test_k2_delta1_grid():
    g = build_grid(2, 1.0)
    assert g.denominator == 2
    np.testing.assert_allclose(g.vertices, [[0, 1], [0.5, 0.5], [1, 0]])
    assert grid_cells(g).shape == (2, 2)
    assert _l1_diameter(g.vertices[grid_cells(g)]) == pytest.approx(1.0)


def test_k3_whole_simplex():
    g = build_grid(3, 2.0)
    assert g.denominator == 1
    assert g.vertex_count == 3
    assert grid_cells(g).shape == (1, 3)


def test_k3_n4_vertex_count_and_volumes():
    g = build_grid(3, 0.5)
    assert g.denominator == 4
    # Oracle: direct enumeration of lattice points.
    brute = {tuple(x) for x in itertools.product(range(5), repeat=3)
             if sum(x) == 4}
    assert g.vertex_count == len(brute) == math.comb(6, 2) == 15
    got = {tuple(v) for v in (g.vertices * 4 + 0.5).astype(int)}
    assert got == brute
    # Cells tile the simplex: volumes sum to the full simplex area.
    total = sum(cell_volume(g.vertices[c]) for c in grid_cells(g))
    assert total == pytest.approx(simplex_volume(3), rel=1e-9)
    assert len(grid_cells(g)) == 16  # N^(k-1)


def test_cells_unimodular_in_rational_arithmetic():
    # Exact rational check: every cell has the same (k-1)-volume, so the
    # count alone certifies the tiling.
    g = build_grid(3, 0.5)
    N = g.denominator
    base = None
    for cell in grid_cells(g):
        verts = [[Fraction(int(round(x * N)), N) for x in row]
                 for row in g.vertices[cell]]
        e1 = [a - b for a, b in zip(verts[1], verts[0])]
        e2 = [a - b for a, b in zip(verts[2], verts[0])]
        # Gram determinant in exact arithmetic.
        g11 = sum(x * x for x in e1)
        g12 = sum(x * y for x, y in zip(e1, e2))
        g22 = sum(x * x for x in e2)
        det = g11 * g22 - g12 * g12
        assert det > 0  # affinely independent
        base = base or det
        assert det == base


def test_vertices_are_exact_lattice_multiples():
    g = build_grid(3, 0.21)
    N = g.denominator
    scaled = g.vertices * N
    np.testing.assert_array_equal(scaled, np.round(scaled))
    assert g.vertex_count == lattice_vertex_count(3, N)


def test_measured_diameter_within_requested():
    for k, delta in [(2, 0.3), (3, 0.17), (4, 0.5)]:
        g = build_grid(k, delta)
        measured = _l1_diameter(g.vertices[grid_cells(g)])
        assert measured <= delta + 1e-12
        assert measured == pytest.approx(
            g.measured_max_diameter)


def test_k4_diameter_formula_needs_larger_n():
    # Staircase cells in four states pair vertices at l1 distance 4/N, so
    # N must be ceil(4/delta) rather than ceil(2/delta).
    g = build_grid(4, 0.5)
    assert g.denominator == 8
    assert _l1_diameter(g.vertices[grid_cells(g)]) <= 0.5 + 1e-12


def test_vertex_cap():
    with pytest.raises(ResourceLimitError):
        build_grid(3, 1e-4, vertex_cap=1000)


def test_align_multiple_rounds_up():
    g = build_grid(2, 0.3, align_multiple=12)
    assert g.denominator % 12 == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_lattice_vertices_are_the_compositions(k):
    for N in (0, 1, 2, 7):
        assert np.array_equal(_lattice_vertices(k, N), lattice_compositions(k, N))


def test_composition_rank_matches_enumeration_order():
    for k, N in [(2, 5), (3, 4), (4, 3), (5, 6)]:
        verts = lattice_compositions(k, N)
        table = _rank_table(k, N)
        ranks = composition_rank(verts, N, table)
        np.testing.assert_array_equal(ranks, np.arange(verts.shape[0]))


# ---------------------------------------------------------------------------
# lattice blocks
# ---------------------------------------------------------------------------

# (k, N, block): V = C(N+k-1, k-1) is one below, at and one above a multiple
# of the block size, for each k.
BLOCK_CASES = [(2, 19, 7), (2, 20, 7), (2, 14, 7),
               (3, 9, 7), (3, 5, 7), (3, 4, 7),
               (4, 3, 7), (4, 4, 7), (4, 7, 7),
               (5, 8, 8), (5, 3, 7), (5, 10, 8)]


@pytest.mark.parametrize("k, N, block", BLOCK_CASES)
def test_lattice_blocks_are_the_lattice_rows(monkeypatch, k, N, block):
    V = lattice_vertex_count(k, N)
    assert V % block in (block - 1, 0, 1) and V > 2 * block
    monkeypatch.setattr(geometry, "LATTICE_BLOCK", block)
    blocks = list(lattice_blocks(k, N))
    assert [b.shape for b in blocks] == [(min(block, V - start), k)
                                         for start in range(0, V, block)]
    assert np.array_equal(np.concatenate(blocks), lattice_compositions(k, N) / N)
    assert np.array_equal(build_grid(k, 2.0 * (k // 2) / N).vertices,
                          lattice_compositions(k, N) / N)


def test_lattice_of_at_most_one_block_is_one_block(monkeypatch):
    # The largest grid of the many-small-solves benchmark (k=3, N=381) fits
    # in one block; a lattice of exactly the block size is one block too.
    assert lattice_vertex_count(3, 381) == 73_153 < geometry.LATTICE_BLOCK
    assert len(list(lattice_blocks(3, 381))) == 1
    V = lattice_vertex_count(4, 6)
    for block, count in [(V, 1), (V + 1, 1), (V - 1, 2)]:
        monkeypatch.setattr(geometry, "LATTICE_BLOCK", block)
        assert len(list(lattice_blocks(4, 6))) == count


def test_grid_arrays_are_read_only_and_caller_arrays_stay_writeable():
    g = build_grid(3, 0.5)
    with pytest.raises(ValueError):
        g.vertices[0, 0] = 1.0
    vertices = np.eye(3)
    tri = triangulation_grid(3, vertices, 2.0)
    with pytest.raises(ValueError):
        tri.vertices[0, 0] = 1
    assert vertices.flags.writeable
    vertices[0, 0] = 0.5  # the caller's own array is not frozen


# ---------------------------------------------------------------------------
# Partial-sum boxes and the first master's vertices (lazy grid pricing)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_boxes_tile_the_lattice_and_bound_their_compositions(k):
    # Halving from the root box reaches every lattice point once, as a box
    # of side 1; at every level each box's compositions (brute force) lie
    # in [x_lo, x_hi] and hold the center; the extents are those of the cut
    # box from its center's partial sums.
    # At k = 6 the brute force stays on small lattices (V <= 462).
    for N in (5, 13, 40 // k) if k < 6 else (5, 6):
        lattice = lattice_compositions(k, N)
        y = np.cumsum(lattice, axis=1)[:, :-1]
        lo, side = np.zeros((1, k - 1), dtype=np.int64), 1 << N.bit_length()
        while True:
            center, x_lo, x_hi, e_lo, e_hi = geometry.box_bounds(lo, side, N)
            at_center = np.cumsum(center, axis=1)[:, : k - 1]
            assert np.array_equal(e_lo, lo - at_center)
            assert np.array_equal(e_hi, np.minimum(lo + side - 1, N) - at_center)
            for b in range(lo.shape[0]):
                X = lattice[((y >= lo[b]) & (y < lo[b] + side)).all(axis=1)]
                assert X.shape[0] and (X >= x_lo[b]).all() and (X <= x_hi[b]).all()
                assert (X == center[b]).all(axis=1).any()
            if side == 1:
                break
            lo, side = geometry.split_boxes(lo, side, N), side // 2
        assert sorted(map(tuple, lo)) == sorted(map(tuple, y))


def test_stride_sublattice_and_staircase_cell_at():
    x = geometry.stride_sublattice(3, 70, 32)
    assert x.tolist() == [[0, 0, 70], [0, 32, 38], [0, 64, 6], [32, 0, 38],
                          [32, 32, 6], [64, 0, 6]]
    rng = np.random.default_rng(4)
    for k in (2, 3, 4, 6):
        for q in [*rng.dirichlet(np.ones(k), size=20), np.eye(k)[0], np.full(k, 1 / k)]:
            N = int(rng.integers(3, 50))
            cell = geometry.staircase_cell_at(q, N)
            assert (cell >= 0).all() and (cell.sum(axis=1) == N).all()
            assert np.abs(cell - N * q).max() < 2
            # q is a convex combination of the cell's vertices.
            w = np.linalg.lstsq(np.vstack([cell.T / N, np.ones(len(cell))]),
                                np.append(q, 1.0), rcond=None)[0]
            assert w.min() >= -1e-9
            assert np.allclose(w @ (cell / N), q, atol=1e-12)


# ---------------------------------------------------------------------------
# cell coverage
# ---------------------------------------------------------------------------

def test_union_coverage_random_points():
    rng = np.random.default_rng(11)
    for k, delta in [(2, 0.13), (3, 0.27)]:
        g = build_grid(k, delta)
        Q = rng.dirichlet(np.ones(k), size=10_000)
        covered = cells_containing(g, Q).any(axis=0)
        assert covered.all(), f"uncovered points {Q[~covered]}"


def _cells_containing_brute(grid, q, tol=1e-9):
    """Per-cell barycentric test: weights >= -tol and residual <= tol."""
    found = set()
    for cell in grid_cells(grid):
        V = grid.vertices[cell]
        beta = np.linalg.solve(V.T, q)
        if beta.min() >= -tol and np.max(np.abs(V.T @ beta - q)) <= tol:
            found.add(tuple(sorted(cell.tolist())))
    return found


def test_locate_at_vertices_and_edges():
    g = build_grid(3, 0.5)
    # A grid vertex belongs to every incident cell.
    v = g.vertices[5]
    cells = grid_cells(g)[cells_containing(g, v)[:, 0]]
    assert len(cells) >= 2
    for cell in cells:
        assert any(np.allclose(g.vertices[i], v) for i in cell)
    # The batched test over every cell agrees with a per-cell solve, on the
    # lattice grid and on the refined triangulation of a piecewise utility,
    # at random points, at grid vertices (which sit on cell borders) and at
    # vertices moved by 4e-10, within the tolerance, in the simplex plane.
    rng = np.random.default_rng(5)
    pieces = refined_pieces(random_fan_utility(rng, 5), eps=0.4, lipschitz_bound=1.0)
    for grid in (g, pieces):
        shift = rng.dirichlet(np.ones(3), size=grid.vertex_count) - 1 / 3
        Q = np.vstack([rng.dirichlet(np.ones(3), size=200), grid.vertices[::3],
                       (grid.vertices + 4e-10 * shift)[1::3]])
        for q, inside in zip(Q, cells_containing(grid, Q).T):
            located = {tuple(sorted(c.tolist())) for c in grid_cells(grid)[inside]}
            assert located == _cells_containing_brute(grid, q)


@pytest.mark.parametrize("k,n", [(2, 9), (3, 7), (4, 5), (5, 3)])
def test_staircase_cells_are_n_to_the_k_minus_1_unit_cells(k, n):
    # n^(k-1) cells, each of determinant +-1 in partial-sum coordinates,
    # so each has the volume of one staircase simplex of the unit cube.
    cells = staircase_cells(k, n)
    assert cells.shape == (n ** (k - 1), k)
    y = np.cumsum(lattice_compositions(k, n)[:, :-1], axis=1)[cells]
    dets = np.linalg.det((y[:, 1:] - y[:, :1]).astype(float))
    np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-9)


def test_refine_simplex_diameter():
    # The staircase cells at level n = ceil(2/0.4) = 5, mapped through the
    # barycentric map, stay within the certified diameter 2/5.
    S = np.eye(3)
    verts, diameter = refine_simplex(S, 0.4)
    assert len(verts) == lattice_vertex_count(3, 5) and diameter == 0.4
    for cell in staircase_cells(3, 5):
        pts = verts[cell]
        for i in range(3):
            assert np.abs(pts - pts[i]).sum(axis=1).max() <= diameter + 1e-12
    # A simplex within the bound is its own one cell, of its own diameter.
    small = S * 0.1 + 0.3
    verts, diameter = refine_simplex(small, 0.4)
    assert np.array_equal(verts, small) and diameter == pytest.approx(0.2)


def _grid_level_formula(k, max_diameter, align_multiple):
    """build_grid's N and cell diameter as first written, on their own."""
    N = max(1, math.ceil(2.0 * max(1, k // 2) / max_diameter))
    if align_multiple > 1:
        N = ((N + align_multiple - 1) // align_multiple) * align_multiple
    return N, min(2.0, 2.0 * (k // 2) / N)


def _refine_level_formula(k, diam, max_diameter):
    """refine_simplex's level and cell diameter as first written."""
    n = max(1, math.ceil((k // 2) * diam / max_diameter))
    return n, (k // 2) * diam / n


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_staircase_level_matches_the_grid_and_refinement_formulas(k):
    rng = np.random.default_rng(k)
    deltas = [2.0 ** -20, 0.013, 0.02, 0.1, 1 / 3, 0.4, 0.5, 1.0, 1.999, 2.0,
              2.5, 4.7, *rng.uniform(0.01, 3.0, size=40)]
    for delta in deltas:
        for align in (1, 3, 8, 12):
            expected = _grid_level_formula(k, delta, align)
            assert staircase_level(k, 2.0, delta, align) == expected
            g = build_grid(k, delta, vertex_cap=10 ** 40, align_multiple=align)
            assert (g.denominator, g.measured_max_diameter) == expected
    # Refined pieces: random simplices, with refine_simplex's vertex count
    # fixing its level.
    for _ in range(30):
        S = rng.dirichlet(np.ones(k), size=k)
        diam = _l1_diameter(S[None])
        delta = diam * rng.uniform(0.05 if k <= 4 else 0.3, 1.5)
        verts, cell = refine_simplex(S, delta)
        if diam <= delta:
            assert np.array_equal(verts, S) and cell == diam
            continue
        n, expected = _refine_level_formula(k, diam, delta)
        assert staircase_level(k, diam, delta) == (n, expected)
        assert len(verts) == lattice_vertex_count(k, n) and cell == expected


def test_refine_simplex_guards():
    verts, _ = refine_simplex(np.eye(3), 0.4)
    assert len(refine_simplex(np.eye(3), 0.4, vertex_cap=len(verts))[0]) == len(verts)
    with pytest.raises(ResourceLimitError):
        refine_simplex(np.eye(3), 0.4, vertex_cap=len(verts) - 1)
    with pytest.raises(ValidationError):
        refine_simplex(np.eye(3), 0.0)


# ---------------------------------------------------------------------------
# contraction projection
# ---------------------------------------------------------------------------

def test_projection_fixes_center():
    center = np.full(3, 1 / 3)
    np.testing.assert_allclose(project_to_contraction(center, 0.7), center,
                               atol=1e-15)


def test_projection_idempotent_inside():
    rng = np.random.default_rng(2)
    eps = 0.5
    lo = contraction_floor(3, eps)
    inside = rng.dirichlet(np.ones(3), size=40) * (1 - 3 * lo) + lo
    out = project_to_contraction_batch(inside, eps)
    np.testing.assert_allclose(out, inside, atol=1e-12)


def _sorted_projection(Q, eps):
    """Reference: the sort-based projection onto {x >= lo, sum x = 1},
    applied to every row."""
    n, k = Q.shape
    lo = contraction_floor(k, eps)
    V = Q - lo
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - (1.0 - k * lo)
    rho = np.count_nonzero(U - css / np.arange(1, k + 1) > 0, axis=1)
    theta = css[np.arange(n), rho - 1] / rho
    return lo + np.maximum(V - theta[:, None], 0.0)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_projection_matches_sorted_reference(k):
    rng = np.random.default_rng(40 + k)
    for eps in (0.005, 0.1, 0.7):
        lo = contraction_floor(k, eps)
        inside = rng.dirichlet(np.ones(k), size=200) * (1 - k * lo) + lo
        on_floor = inside.copy()
        on_floor[:, 0] = lo
        on_floor[:, 1:] *= (1 - lo) / on_floor[:, 1:].sum(axis=1, keepdims=True)
        below = rng.dirichlet(np.full(k, 0.3), size=200)
        below[:50, 0] = 0.0
        below[:50] /= below[:50].sum(axis=1, keepdims=True)
        lattice = _lattice_vertices(k, 12) / 12.0
        Q = np.vstack([inside, on_floor, below, lattice])
        off = Q + rng.choice([-1e-15, 1e-15], size=Q.shape) / k
        for rows in (Q, off):
            out = project_to_contraction_batch(rows, eps)
            np.testing.assert_allclose(out, _sorted_projection(rows, eps),
                                       rtol=0, atol=1e-15)
            assert out.min() >= lo - 1e-15


def test_projection_k2_eps1_endpoint():
    # The contracted simplex is the segment [(1/4,3/4), (3/4,1/4)]; the point
    # (1,0) projects to the endpoint (3/4,1/4).  Oracle: dense minimization
    # over the segment parameter.
    out = project_to_contraction(np.array([1.0, 0.0]), 1.0)
    t = np.linspace(0, 1, 20001)[:, None]
    seg = t * np.array([0.25, 0.75]) + (1 - t) * np.array([0.75, 0.25])
    d = np.linalg.norm(seg - np.array([1.0, 0.0]), axis=1)
    oracle = seg[int(np.argmin(d))]
    np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(oracle, [0.75, 0.25], atol=1e-4)


def test_projection_is_1_lipschitz_euclidean():
    rng = np.random.default_rng(3)
    for k in (2, 3, 5):
        A = rng.dirichlet(np.ones(k), size=300)
        B = rng.dirichlet(np.ones(k), size=300)
        pa = project_to_contraction_batch(A, 0.3)
        pb = project_to_contraction_batch(B, 0.3)
        lhs = np.linalg.norm(pa - pb, axis=1)
        rhs = np.linalg.norm(A - B, axis=1)
        assert np.all(lhs <= rhs + 1e-12)


def test_projection_displacement_bound():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        diam = math.sqrt(2.0)  # Euclidean diameter of the simplex
        for eps in (0.1, 0.5, 1.0):
            Q = rng.dirichlet(np.ones(k), size=300)
            P = project_to_contraction_batch(Q, eps)
            disp = np.linalg.norm(Q - P, axis=1)
            assert np.all(disp <= eps * eps * diam + 1e-12)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 1.5), st.integers(2, 5))
def test_projection_properties_hypothesis(seed, eps, k):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(k))
    p = project_to_contraction_batch(q[None, :], eps)[0]
    lo = contraction_floor(k, eps)
    assert p.min() >= lo - 1e-12          # lands in the contracted simplex
    assert abs(p.sum() - 1.0) <= 1e-9
    p2 = project_to_contraction_batch(p[None, :], eps)[0]
    np.testing.assert_allclose(p2, p, atol=1e-9)  # idempotent
    # l1 displacement is at most twice the total raised mass, <= 2 eps^2.
    assert np.abs(q - p).sum() <= 2 * eps * eps + 1e-9
