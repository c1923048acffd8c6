import math

import numpy as np
import pytest

from persuade import geometry
from persuade.constraints import (SmoothingPrecisionError, _xlogx_modulus,
                                  smooth_constraint)
from persuade.core import (ConstraintSpec, Posterior, UnsupportedKindError,
                           eval_constraint_batch, uniform_prior)

UNIFORM2 = uniform_prior(2)


def sample_with_vertices(rng, k, n):
    Q = rng.dirichlet(np.ones(k), size=n)
    return np.vstack([np.eye(k), Q])


def test_xlogx_modulus_bound_holds():
    # Dense check of |x ln x - y ln y| <= t (1 - ln t) for |x - y| <= t.
    xs = np.linspace(0, 1, 401)
    phi = np.where(xs > 0, xs * np.log(xs, out=np.zeros_like(xs), where=xs > 0), 0.0)
    for i, x in enumerate(xs):
        diffs = np.abs(phi - phi[i])
        ts = np.abs(xs - x)
        mask = ts > 0
        bound = ts[mask] * (1.0 - np.log(ts[mask]))
        assert np.all(diffs[mask] <= bound + 1e-12)
    assert _xlogx_modulus(0.0) == 0.0


def test_linear_passthrough():
    spec = ConstraintSpec.linear([1.0, 0.0], bound=0.4)
    sm = smooth_constraint(spec, eps=0.3)
    assert sm.contraction is None
    assert sm.lipschitz_constant == pytest.approx(1.0)  # coefficient spread
    q = np.array([[0.2, 0.8]])
    np.testing.assert_allclose(sm.eval_batch(q, UNIFORM2),
                               eval_constraint_batch(spec, q, UNIFORM2))


def test_norm_and_negmin_passthrough_constants():
    sm = smooth_constraint(ConstraintSpec.norm_distance(1, bound=0.2), 0.1)
    assert sm.lipschitz_constant == 1.0
    sm = smooth_constraint(
        ConstraintSpec.neg_min_weighted([0.5, 2.0], bound=0.0), 0.1)
    assert sm.lipschitz_constant == 2.0


def test_kl_center_offset():
    # The center lies inside the contracted simplex, so g = f - eps/2 there.
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, 0.5], bound=0.1)
    eps = 0.2
    sm = smooth_constraint(spec, eps)
    got = sm.eval(UNIFORM2, UNIFORM2)
    f_center = 0.0
    assert got == pytest.approx(f_center - eps / 2)


def test_kl_vertex_example_derived():
    # grouped_kl singleton, b=1, refs=1/2, k=2, eps=0.1 at q=(1,0):
    # g(q) = f(proj(q)) - 0.05 with the sandwich 0 <= f - g <= 0.1.
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, 0.5], bound=0.0)
    eps = 0.1
    sm = smooth_constraint(spec, eps)
    q = np.array([1.0, 0.0])
    projected = geometry.project_to_contraction_batch(q[None, :], sm.contraction)
    f_proj = float(eval_constraint_batch(spec, projected, UNIFORM2)[0])
    got = sm.eval(Posterior(q), UNIFORM2)
    assert got == pytest.approx(f_proj - 0.05, abs=1e-15)
    f_raw = math.log(2)
    assert 0.0 <= f_raw - got <= eps


@pytest.mark.parametrize("k,eps", [(2, 0.1), (2, 0.01), (3, 0.1), (3, 0.01)])
def test_kl_sandwich_and_lipschitz(k, eps):
    rng = np.random.default_rng(100 * k + int(1 / eps))
    prior = rng.dirichlet(np.ones(k)) * 0.5 + 0.5 / k
    partition = [(i,) for i in range(k)]
    spec = ConstraintSpec.grouped_kl(partition, 1.0, prior, bound=0.2)
    sm = smooth_constraint(spec, eps)
    Q = sample_with_vertices(rng, k, 10_000)
    f = eval_constraint_batch(spec, Q, Posterior(prior))
    g = sm.eval_batch(Q, Posterior(prior))
    diff = f - g
    assert diff.min() >= -1e-12
    assert diff.max() <= eps + 1e-12
    A = rng.dirichlet(np.ones(k), size=10_000)
    B = rng.dirichlet(np.ones(k), size=10_000)
    ga = sm.eval_batch(A, Posterior(prior))
    gb = sm.eval_batch(B, Posterior(prior))
    l1 = np.abs(A - B).sum(axis=1)
    assert np.all(np.abs(ga - gb) <= sm.lipschitz_constant * l1 + 1e-12)


def test_negative_scale_reduction():
    # b < 0: "if g fits f, then -eps - g fits -f" collapses to the same
    # projection formula; the sandwich must hold for the negated function.
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], -2.0, [0.5, 0.5], bound=0.0)
    eps = 0.1
    sm = smooth_constraint(spec, eps)
    rng = np.random.default_rng(12)
    Q = sample_with_vertices(rng, 2, 5000)
    f = eval_constraint_batch(spec, Q, UNIFORM2)
    g = sm.eval_batch(Q, UNIFORM2)
    diff = f - g
    assert diff.min() >= -1e-12 and diff.max() <= eps + 1e-12


def test_entropy_reduces_to_singleton_kl():
    spec = ConstraintSpec.entropy(bound=-0.2)
    eps = 0.05
    sm = smooth_constraint(spec, eps, k=3)
    rng = np.random.default_rng(3)
    Q = sample_with_vertices(rng, 3, 5000)
    f = eval_constraint_batch(spec, Q, uniform_prior(3))
    g = sm.eval_batch(Q, uniform_prior(3))
    diff = f - g
    assert diff.min() >= -1e-12 and diff.max() <= eps + 1e-12


def test_validity_preserved_for_random_schemes():
    # E[g] <= E[f]: any scheme feasible for f stays feasible for g.
    rng = np.random.default_rng(21)
    spec = ConstraintSpec.grouped_kl([(0,), (1,), (2,)], 1.0,
                                     [1 / 3, 1 / 3, 1 / 3], bound=0.3)
    sm = smooth_constraint(spec, 0.07)
    prior = uniform_prior(3)
    for _ in range(50):
        Q = rng.dirichlet(np.ones(3), size=4)
        w = rng.dirichlet(np.ones(4))
        ef = float(w @ eval_constraint_batch(spec, Q, prior))
        eg = float(w @ sm.eval_batch(Q, prior))
        assert eg <= ef + 1e-12


def test_bump_has_no_smoothing():
    spec = ConstraintSpec.bump([0.5, 0.5], 0.1, bound=0.2)
    with pytest.raises(UnsupportedKindError):
        smooth_constraint(spec, 0.1)


def test_entropy_needs_dimension():
    from persuade.core import ValidationError
    with pytest.raises(ValidationError):
        smooth_constraint(ConstraintSpec.entropy(bound=0.0), 0.1)


def test_contraction_underflow_reports_precision():
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 1.0, [0.5, 0.5], bound=0.0)
    with pytest.raises(SmoothingPrecisionError):
        smooth_constraint(spec, 1e-160)


def test_zero_scale_kl_is_trivially_lipschitz():
    spec = ConstraintSpec.grouped_kl([(0,), (1,)], 0.0, [0.5, 0.5], bound=0.0)
    sm = smooth_constraint(spec, 0.1)
    assert sm.lipschitz_constant == 0.0
    assert sm.contraction is None
