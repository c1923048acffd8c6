import numpy as np
import pytest

from persuade.core import (MaxLinearTerm, ResourceLimitError,
                           UnsupportedKindError, UtilitySpec, eval_utility_batch)
from persuade.objectives import build_upper_approx

from helpers import (cells_containing, grid_cells, random_fan_utility,
                     refined_pieces, upper_envelope, vertex_values)


def sample_simplex(rng, k, n):
    return rng.dirichlet(np.ones(k), size=n)


def test_constant_utility_values_everywhere():
    u = UtilitySpec.max_linear(np.full((1, 3), 0.7))
    gu = build_upper_approx(u, eps=0.2, lipschitz_bound=1.0)
    np.testing.assert_allclose(vertex_values(gu), 0.7, atol=1e-12)
    assert upper_envelope(gu, [0.2, 0.3, 0.5])[0] == pytest.approx(0.7)
    assert gu.gap_bound == 0.0


def test_infnorm_k2_cell_value_bounds():
    # eps=0.5, M=1, L_u=1/2: delta = min(0.5, 0.5/1) = 0.5, so N = 4.  The
    # cell next to (1,0) has true sup 1 (oracle: dense sampling); the
    # certified value stays within [sup, sup + eps].
    u = UtilitySpec.max_linear(np.eye(2))
    gu = build_upper_approx(u, eps=0.5, lipschitz_bound=1.0)
    assert gu.grid.denominator == 4
    t = np.linspace(0.75, 1.0, 2001)
    sup_oracle = np.maximum(t, 1 - t).max()
    cell = grid_cells(gu.grid)[cells_containing(gu.grid, [0.9375, 0.0625])[:, 0]]
    assert len(cell)
    val = vertex_values(gu)[cell[0]].max()
    assert sup_oracle <= val <= sup_oracle + 0.5
    assert val == pytest.approx(1.0 + gu.pad)


def test_piecewise_aligned_boundary_envelope():
    u = UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0),
    ])
    gu = refined_pieces(u, eps=0.25, lipschitz_bound=1.0)
    # Exact reproduction: cells refine the pieces, values from parent pieces.
    at = upper_envelope(gu, [[0.6, 0.4], [0.5, 0.5], [0.4, 0.6]])
    assert at[0] == 0.0
    assert at[1] == 1.0  # upper envelope
    assert at[2] == 1.0
    assert gu.gridded.gap_bound == 0.0
    rng = np.random.default_rng(0)
    Q = sample_simplex(rng, 2, 2000)
    vals = upper_envelope(gu, Q)
    np.testing.assert_allclose(vals, eval_utility_batch(u, Q), atol=0)


def test_example1_utility_gridded_at_high_posterior():
    u = UtilitySpec.mixture([MaxLinearTerm(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
    eps = 0.1
    gu = build_upper_approx(u, eps=eps, lipschitz_bound=1.0)
    val = upper_envelope(gu, [0.0, 1.0])[0]  # u_s = 1 there
    assert 1.0 <= val <= 1.0 + eps


@pytest.mark.parametrize("k,eps,M", [(2, 0.3, 1.0), (3, 0.4, 2.0)])
def test_sandwich_on_random_points(k, eps, M):
    rng = np.random.default_rng(42 + k)
    coeffs = rng.uniform(0, 1, size=(3, k))
    u = UtilitySpec.max_linear(coeffs)
    gu = build_upper_approx(u, eps=eps, lipschitz_bound=M)
    Q = sample_simplex(rng, k, 10_000)
    base = eval_utility_batch(u, Q)
    approx = upper_envelope(gu, Q)
    gaps = approx - base
    assert gaps.min() >= -1e-12
    assert gaps.max() <= eps + 1e-12


def test_sandwich_piecewise_exact():
    e = np.eye(3)
    center = np.full(3, 1 / 3)
    u = UtilitySpec.piecewise_constant([
        (np.vstack([e[0], e[1], center]), 0.5),
        (np.vstack([e[1], e[2], center]), 1.5),
        (np.vstack([e[2], e[0], center]), 1.0),
    ])
    gu = refined_pieces(u, eps=0.3, lipschitz_bound=2.0)
    rng = np.random.default_rng(9)
    Q = sample_simplex(rng, 3, 2000)
    base = eval_utility_batch(u, Q)
    approx = upper_envelope(gu, Q)
    np.testing.assert_allclose(approx, base, atol=1e-12)


def test_eval_at_grid_vertex_is_max_over_incident_cells():
    rng = np.random.default_rng(17)
    u = UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, 3)))
    gu = build_upper_approx(u, eps=0.4, lipschitz_bound=1.5)
    grid = gu.grid
    v = grid.vertices[grid.vertex_count // 2]
    incident = grid_cells(grid)[cells_containing(grid, v)[:, 0]]
    assert len(incident) >= 2
    expected = vertex_values(gu)[incident].max()
    assert upper_envelope(gu, v)[0] == pytest.approx(expected, abs=0)


def test_gap_bound_monotone_in_eps():
    u = UtilitySpec.max_linear(np.eye(3))
    gaps = [build_upper_approx(u, eps=e, lipschitz_bound=2.0).gap_bound
            for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b + 1e-15 for a, b in zip(gaps, gaps[1:]))


def test_constant_inside_cells():
    u = UtilitySpec.max_linear(np.array([[0.9, 0.1, 0.4]]))
    gu = build_upper_approx(u, eps=0.3, lipschitz_bound=1.0)
    rng = np.random.default_rng(1)
    grid = gu.grid
    cells = grid_cells(grid)
    for ci in rng.integers(0, len(cells), size=20):
        verts = grid.vertices[cells[ci]]
        w = rng.dirichlet(np.ones(3), size=2) * 0.7 + 0.3 / 3  # interior combos
        pts = w @ verts
        v0, v1 = upper_envelope(gu, pts)
        assert v0 == pytest.approx(v1, abs=0)


def test_rank2_utility_supported():
    u = UtilitySpec.max_linear(np.eye(3), rank=2)
    gu = build_upper_approx(u, eps=0.4, lipschitz_bound=1.0)
    rng = np.random.default_rng(8)
    Q = sample_simplex(rng, 3, 1000)
    gaps = upper_envelope(gu, Q) - eval_utility_batch(u, Q)
    assert gaps.min() >= -1e-12 and gaps.max() <= 0.4 + 1e-12


def test_degenerate_piece_rejected():
    u = UtilitySpec.piecewise_constant([
        (np.eye(2), 0.0),
        (np.array([[0.5, 0.5]]), 1.0),  # point piece: no grid approximation
    ])
    with pytest.raises(UnsupportedKindError):
        build_upper_approx(u, eps=0.2, lipschitz_bound=1.0)


def test_piecewise_refinement_honors_the_vertex_cap():
    # A steep constraint shrinks the cells; the refinement must stop at the
    # cap rather than allocate the vertices.
    u = UtilitySpec.piecewise_constant([(np.eye(3), 1.0)])
    assert build_upper_approx(u, eps=0.2, lipschitz_bound=1.0, vertex_cap=100)
    with pytest.raises(ResourceLimitError, match="cap is 100"):
        build_upper_approx(u, eps=0.2, lipschitz_bound=50.0, vertex_cap=100)
    with pytest.raises(ResourceLimitError):
        build_upper_approx(u, eps=0.2, lipschitz_bound=1e277)


def test_polygon_piece_fan_triangulation():
    # A quadrilateral piece in the 3-state simplex.
    quad = np.array([[0.6, 0.4, 0.0], [0.2, 0.8, 0.0],
                     [0.1, 0.5, 0.4], [0.5, 0.1, 0.4]])
    rest_value = 0.25
    u = UtilitySpec.piecewise_constant([
        (np.eye(3), rest_value),
        (quad, 1.0),
    ])
    gu = refined_pieces(u, eps=0.3, lipschitz_bound=1.0)
    inner = quad.mean(axis=0)
    assert upper_envelope(gu, inner)[0] == 1.0


def test_piecewise_grid_merges_signed_zero_vertices():
    # The shared vertex is written once with a last coordinate of
    # 1 - 0.9 - 0.1 = -2.8e-17, which rounds to -0.0, and once with 0.0;
    # the refined grid keeps one vertex for both.
    e = np.eye(3)
    u = UtilitySpec.piecewise_constant([
        (np.vstack([e[0], [0.9, 0.1, 0.0], e[2]]), 1.0),
        (np.vstack([[0.9, 0.1, 1 - 0.9 - 0.1], e[1], e[2]]), 2.0),
    ])
    pieces = refined_pieces(u, eps=4.0, lipschitz_bound=1.0)
    assert pieces.vertex_count == 4
    np.testing.assert_array_equal(pieces.cells, [[0, 1, 2], [1, 3, 2]])
    np.testing.assert_array_equal(vertex_values(pieces.gridded), [1.0, 2.0, 2.0, 2.0])


def test_gridded_arrays_are_read_only():
    lattice = build_upper_approx(UtilitySpec.max_linear(np.eye(3)), eps=0.2,
                                 lipschitz_bound=1.0)
    pieces = build_upper_approx(UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0)]), eps=0.25, lipschitz_bound=1.0)
    arrays = [vertex_values(lattice), vertex_values(pieces)]
    arrays += [a for gu in (lattice, pieces) for block in gu.blocks() for a in block]
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def _aligned_pieces():
    return UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0)])


@pytest.mark.parametrize("utility, eps, M", [
    pytest.param(_aligned_pieces(), 0.25, 1.0, id="k2-aligned"),
    pytest.param(UtilitySpec.piecewise_constant([(np.eye(3), -0.0)]), 0.3, 1.0,
                 id="k3-negative-zero"),
    *[pytest.param(random_fan_utility(np.random.default_rng(seed), 3 + seed), eps, M,
                   id=f"fan{seed}") for seed, eps, M in [(0, 0.3, 1.0), (1, 0.2, 2.0),
                                                          (2, 0.5, 1.0), (3, 0.07, 1.0)]],
])
def test_piece_vertex_value_is_the_max_over_incident_cells(utility, eps, M):
    # The package merges the refined vertices and takes the largest piece
    # value among them; the rebuilt cells give the same array bit for bit.
    pieces = refined_pieces(utility, eps, M)
    expected = np.full(pieces.vertex_count, -np.inf)
    np.maximum.at(expected, pieces.cells.reshape(-1),
                  np.repeat(pieces.cell_values, utility.k))
    expected += 0.0
    assert vertex_values(pieces.gridded).tobytes() == expected.tobytes()
    assert np.isfinite(expected).all()
