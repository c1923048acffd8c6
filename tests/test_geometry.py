import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from persuade.core import ResourceLimitError, ValidationError
from persuade.geometry import (build_grid, build_grid_cells_for_level,
                               cell_volume, composition_rank, contraction_floor,
                               lattice_vertex_count, max_cell_diameter_bound,
                               project_to_contraction,
                               project_to_contraction_batch, refine_simplex,
                               simplex_volume, _l1_diameter, _lattice_vertices,
                               _rank_table)
from persuade.objectives import build_upper_approx

from helpers import random_fan_utility


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------

def test_k2_delta1_grid():
    g = build_grid(2, 1.0)
    assert g.denominator == 2
    np.testing.assert_allclose(g.vertices, [[0, 1], [0.5, 0.5], [1, 0]])
    assert g.cells.shape == (2, 2)
    assert _l1_diameter(g.vertices[g.cells]) == pytest.approx(1.0)


def test_k3_whole_simplex():
    g = build_grid(3, 2.0)
    assert g.denominator == 1
    assert g.vertex_count == 3
    assert g.cells.shape == (1, 3)


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
    total = sum(cell_volume(g.vertices[c]) for c in g.cells)
    assert total == pytest.approx(simplex_volume(3), rel=1e-9)
    assert g.cell_count == 16  # N^(k-1)


def test_cells_unimodular_in_rational_arithmetic():
    # Exact rational check: every cell has the same (k-1)-volume, so the
    # count alone certifies the tiling.
    g = build_grid(3, 0.5)
    N = g.denominator
    base = None
    for cell in g.cells:
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
        measured = _l1_diameter(g.vertices[g.cells])
        assert measured <= delta + 1e-12
        assert measured == pytest.approx(
            max_cell_diameter_bound(k, g.denominator))


def test_k4_diameter_formula_needs_larger_n():
    # Staircase cells in four states pair vertices at l1 distance 4/N, so
    # N must be ceil(4/delta) rather than ceil(2/delta).
    g = build_grid(4, 0.5)
    assert g.denominator == 8
    assert _l1_diameter(g.vertices[g.cells]) <= 0.5 + 1e-12


def test_vertex_cap():
    with pytest.raises(ResourceLimitError):
        build_grid(3, 1e-4, vertex_cap=1000)


def test_align_multiple_rounds_up():
    g = build_grid(2, 0.3, align_multiple=12)
    assert g.denominator % 12 == 0


def test_composition_rank_matches_enumeration_order():
    for k, N in [(2, 5), (3, 4), (4, 3)]:
        verts = _lattice_vertices(k, N)
        table = _rank_table(k, N)
        ranks = composition_rank(verts, N, table)
        np.testing.assert_array_equal(ranks, np.arange(verts.shape[0]))


# ---------------------------------------------------------------------------
# point location / coverage
# ---------------------------------------------------------------------------

def test_union_coverage_random_points():
    rng = np.random.default_rng(11)
    for k, delta in [(2, 0.13), (3, 0.27)]:
        g = build_grid(k, delta)
        Q = rng.dirichlet(np.ones(k), size=10_000)
        for q in Q:
            assert g.locate_cells(q), f"uncovered point {q}"


def _cells_containing_brute(grid, q, tol=1e-9):
    """Per-cell barycentric test: weights >= -tol and residual <= tol."""
    found = set()
    for cell in grid.cells:
        V = grid.vertices[cell]
        beta = np.linalg.solve(V.T, q)
        if beta.min() >= -tol and np.max(np.abs(V.T @ beta - q)) <= tol:
            found.add(tuple(sorted(cell.tolist())))
    return found


def test_locate_at_vertices_and_edges():
    g = build_grid(3, 0.5)
    # A grid vertex belongs to every incident cell.
    v = g.vertices[5]
    cells = g.locate_cells(v)
    assert len(cells) >= 2
    for cell in cells:
        assert any(np.allclose(g.vertices[i], v) for i in cell)
    # Brute-force cross-check against the explicit cell list, on the lattice
    # grid and on the refined triangulation of a piecewise utility, at random
    # points, at grid vertices (which sit on cell borders) and at vertices
    # moved by 4e-10, within the tolerance, in the simplex plane.
    rng = np.random.default_rng(5)
    pieces = build_upper_approx(random_fan_utility(rng, 5), eps=0.4,
                                lipschitz_bound=1.0).grid
    for grid in (g, pieces):
        shift = rng.dirichlet(np.ones(3), size=grid.vertex_count) - 1 / 3
        Q = np.vstack([rng.dirichlet(np.ones(3), size=200), grid.vertices[::3],
                       (grid.vertices + 4e-10 * shift)[1::3]])
        for q in Q:
            located = {tuple(sorted(c.tolist())) for c in grid.locate_cells(q)}
            assert located == _cells_containing_brute(grid, q)


def _staircase_cells_per_chain(k, n):
    """Staircase cells by walking each base corner's chains one at a time."""
    index = {tuple(x): i for i, x in enumerate(_lattice_vertices(k, n).tolist())}
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


@pytest.mark.parametrize("k,n", [(2, 9), (3, 7), (4, 5), (5, 3)])
def test_staircase_cells_match_per_chain_reference(k, n):
    cells = build_grid_cells_for_level(k, n)
    np.testing.assert_array_equal(cells, _staircase_cells_per_chain(k, n))
    assert cells.shape == (n ** (k - 1), k)


def test_refine_simplex_diameter():
    S = np.eye(3)
    verts, cells = refine_simplex(S, 0.4)
    for cell in cells:
        pts = verts[cell]
        for i in range(3):
            assert np.abs(pts - pts[i]).sum(axis=1).max() <= 0.4 + 1e-12


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
