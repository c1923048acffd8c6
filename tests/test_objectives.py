import numpy as np
import pytest

from persuade.core import (MaxLinearTerm, Posterior, UnsupportedKindError,
                           UtilitySpec, eval_utility, eval_utility_batch)
from persuade.objectives import build_upper_approx


def sample_simplex(rng, k, n):
    return rng.dirichlet(np.ones(k), size=n)


def test_constant_utility_values_everywhere():
    u = UtilitySpec.max_linear(np.full((1, 3), 0.7))
    gu = build_upper_approx(u, eps=0.2, lipschitz_bound=1.0)
    np.testing.assert_allclose(gu.vertex_values(), 0.7, atol=1e-12)
    assert gu.eval(Posterior([0.2, 0.3, 0.5])) == pytest.approx(0.7)
    assert gu.gap_bound == 0.0


def test_infnorm_k2_cell_value_bounds():
    # eps=0.5, M=1: delta = min(0.5, 0.5/2) = 0.25, so N = 8.  The cell next
    # to (1,0) has true sup 1 (oracle: dense sampling); the certified value
    # stays within [sup, sup + eps].
    u = UtilitySpec.max_linear(np.eye(2))
    gu = build_upper_approx(u, eps=0.5, lipschitz_bound=1.0)
    assert gu.grid.denominator == 8
    t = np.linspace(0.875, 1.0, 2001)
    sup_oracle = np.maximum(t, 1 - t).max()
    cell = [c for c in gu.grid.locate_cells(np.array([0.9375, 0.0625]))]
    assert cell
    val = gu.cell_value(cell[0])
    assert sup_oracle <= val <= sup_oracle + 0.5
    assert val == pytest.approx(1.0 + gu.pad)


def test_piecewise_aligned_boundary_envelope():
    u = UtilitySpec.piecewise_constant([
        (np.array([[1.0, 0.0], [0.5, 0.5]]), 0.0),
        (np.array([[0.5, 0.5], [0.0, 1.0]]), 1.0),
    ])
    gu = build_upper_approx(u, eps=0.25, lipschitz_bound=1.0)
    # Exact reproduction: cells refine the pieces, values from parent pieces.
    assert gu.eval(Posterior([0.6, 0.4])) == 0.0
    assert gu.eval(Posterior([0.5, 0.5])) == 1.0  # upper envelope
    assert gu.eval(Posterior([0.4, 0.6])) == 1.0
    assert gu.gap_bound == 0.0
    rng = np.random.default_rng(0)
    Q = sample_simplex(rng, 2, 2000)
    vals = np.array([gu.eval(q) for q in Q])
    np.testing.assert_allclose(vals, eval_utility_batch(u, Q), atol=0)


def test_example1_utility_gridded_at_high_posterior():
    u = UtilitySpec.mixture([MaxLinearTerm(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
    eps = 0.1
    gu = build_upper_approx(u, eps=eps, lipschitz_bound=1.0)
    val = gu.eval(Posterior([0.0, 1.0]))  # u_s = 1 there
    assert 1.0 <= val <= 1.0 + eps


@pytest.mark.parametrize("k,eps,M", [(2, 0.3, 1.0), (3, 0.4, 2.0)])
def test_sandwich_on_random_points(k, eps, M):
    rng = np.random.default_rng(42 + k)
    coeffs = rng.uniform(0, 1, size=(3, k))
    u = UtilitySpec.max_linear(coeffs)
    gu = build_upper_approx(u, eps=eps, lipschitz_bound=M)
    Q = sample_simplex(rng, k, 10_000)
    base = eval_utility_batch(u, Q)
    approx = np.array([gu.eval(q) for q in Q])
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
    gu = build_upper_approx(u, eps=0.3, lipschitz_bound=2.0)
    rng = np.random.default_rng(9)
    Q = sample_simplex(rng, 3, 2000)
    base = eval_utility_batch(u, Q)
    approx = np.array([gu.eval(q) for q in Q])
    np.testing.assert_allclose(approx, base, atol=1e-12)


def test_eval_at_grid_vertex_is_max_over_incident_cells():
    rng = np.random.default_rng(17)
    u = UtilitySpec.max_linear(rng.uniform(0, 1, size=(2, 3)))
    gu = build_upper_approx(u, eps=0.4, lipschitz_bound=1.5)
    grid = gu.grid
    v = grid.vertices[grid.vertex_count // 2]
    incident = grid.locate_cells(v)
    assert len(incident) >= 2
    expected = max(gu.cell_value(c) for c in incident)
    assert gu.eval(Posterior(v)) == pytest.approx(expected, abs=0)


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
    cells = grid.cells
    for ci in rng.integers(0, len(cells), size=20):
        verts = grid.vertices[cells[ci]]
        w = rng.dirichlet(np.ones(3), size=2) * 0.7 + 0.3 / 3  # interior combos
        pts = w @ verts
        v0 = gu.eval(pts[0])
        v1 = gu.eval(pts[1])
        assert v0 == pytest.approx(v1, abs=0)


def test_rank2_utility_supported():
    u = UtilitySpec.max_linear(np.eye(3), rank=2)
    gu = build_upper_approx(u, eps=0.4, lipschitz_bound=1.0)
    rng = np.random.default_rng(8)
    Q = sample_simplex(rng, 3, 1000)
    gaps = np.array([gu.eval(q) for q in Q]) - eval_utility_batch(u, Q)
    assert gaps.min() >= -1e-12 and gaps.max() <= 0.4 + 1e-12


def test_degenerate_piece_rejected():
    u = UtilitySpec.piecewise_constant([
        (np.eye(2), 0.0),
        (np.array([[0.5, 0.5]]), 1.0),  # point piece: no grid approximation
    ])
    with pytest.raises(UnsupportedKindError):
        build_upper_approx(u, eps=0.2, lipschitz_bound=1.0)


def test_polygon_piece_fan_triangulation():
    # A quadrilateral piece in the 3-state simplex.
    quad = np.array([[0.6, 0.4, 0.0], [0.2, 0.8, 0.0],
                     [0.1, 0.5, 0.4], [0.5, 0.1, 0.4]])
    rest_value = 0.25
    u = UtilitySpec.piecewise_constant([
        (np.eye(3), rest_value),
        (quad, 1.0),
    ])
    gu = build_upper_approx(u, eps=0.3, lipschitz_bound=1.0)
    inner = quad.mean(axis=0)
    assert gu.eval(Posterior(inner)) == 1.0
