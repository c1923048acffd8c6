"""Sampled validity and sharpness of the sum-zero Lipschitz constants.

For each utility and constraint kind and k = 2..6, no close pair of simplex
points has |g(x) - g(y)| / ||x - y||_1 above the kind's constant L, and on
at least one instance per kind the largest sampled ratio comes within 1 % of
L.  Most pairs move mass between two states, the direction in which the
sum-zero bound (max a - min a) * ||d||_1 / 2 is attained; the rest move
toward a random point of the simplex.
"""

import numpy as np
import pytest

from helpers import interior_prior, random_max_linear, random_welfare_style
from persuade import geometry
from persuade.constraints import smooth_constraint
from persuade.core import (ConstraintSpec, MaxLinearTerm, UtilitySpec,
                           eval_utility_batch)

KINDS = ("max_linear", "mixture", "linear", "norm_1", "norm_2", "norm_inf",
         "neg_min_weighted", "entropy", "grouped_kl")
INSTANCES = 4   # per kind and k
PAIRS = 20_000  # per instance


def comonotone_mixture(rng, k):
    """A mixture of linear terms that all order the states alike, so their
    spreads add up along the move from the lowest state to the highest."""
    order = rng.permutation(k)
    terms = []
    for w in rng.dirichlet(np.ones(int(rng.integers(1, 4)))):
        coeffs = np.empty(k)
        coeffs[order] = np.sort(rng.uniform(0, 1, size=k))
        terms.append(MaxLinearTerm(coeffs[None, :], weight=float(w)))
    return UtilitySpec.mixture(terms)


def kind_instance(kind, k, rng, i):
    """(g on rows, its constant L, coordinate floor where g is f - eps/2)."""
    if kind in ("max_linear", "mixture"):
        if kind == "max_linear":
            u = random_max_linear(rng, k)
        else:
            u = comonotone_mixture(rng, k) if i % 2 else random_welfare_style(rng, k)
        return (lambda Q: eval_utility_batch(u, Q)), u.lipschitz_l1(), 0.0
    sm, prior = smoothed_instance(kind, k, rng)
    floor = 0.0 if sm.contraction is None else \
        geometry.contraction_floor(k, sm.contraction)
    return (lambda Q: sm.eval_batch(Q, prior)), sm.lipschitz_constant, floor


def smoothed_instance(kind, k, rng):
    """(smoothed constraint of the kind, its prior)."""
    prior = interior_prior(rng, k)
    if kind == "linear":
        spec = ConstraintSpec.linear(rng.uniform(-1, 1, size=k), bound=0.0)
    elif kind.startswith("norm_"):
        spec = ConstraintSpec.norm_distance(float(kind.removeprefix("norm_")), 0.1)
    elif kind == "neg_min_weighted":
        spec = ConstraintSpec.neg_min_weighted(rng.uniform(0.5, 2.0, size=k), 0.0)
    elif kind == "entropy":
        spec = ConstraintSpec.entropy(bound=0.0)
    else:
        cut = np.sort(rng.choice(np.arange(1, k), size=int(rng.integers(1, k)),
                                 replace=False))
        partition = [tuple(c.tolist()) for c in np.split(rng.permutation(k), cut)]
        refs = np.array([prior.weights[list(c)].sum() for c in partition])
        scale = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        spec = ConstraintSpec.grouped_kl(partition, scale, refs, bound=0.0)
    return smooth_constraint(spec, float(rng.choice([0.5, 0.2])), k=k), prior


def close_pairs(rng, k, floor):
    """Close pairs (X, Y) of simplex points.

    Base points spread over the simplex and crowd its faces; with a floor
    (KL kinds) a third of them crowd the faces of the contracted simplex,
    where the gradient spread peaks.  The steps are 1e-3..1e-2 of the floor
    there, else 0.01..0.1: large enough that rounding in g stays far below
    1e-12 of the ratio where it can reach L exactly (piecewise-linear g).
    """
    n = PAIRS // 3
    X = np.vstack([rng.dirichlet(np.ones(k), size=n),
                   rng.dirichlet(np.full(k, 0.1), size=n),
                   floor + (1 - k * floor) * rng.dirichlet(np.full(k, 0.1), size=n)])
    step = 0.01 * floor if floor else 0.1
    h = step * 10 ** rng.uniform(-1, 0, size=len(X))
    Y = X.copy()
    half = len(X) // 2  # mass moves from state j to state i
    i = rng.integers(0, k, size=half)
    j = (i + rng.integers(1, k, size=half)) % k
    Y[np.arange(half), i] += h[:half]
    Y[np.arange(half), j] -= h[:half]
    Z = rng.dirichlet(np.ones(k), size=len(X) - half)  # moves toward Z
    t = h[half:] / np.abs(Z - X[half:]).sum(axis=1)
    Y[half:] += t[:, None] * (Z - X[half:])
    keep = Y.min(axis=1) >= 0.0
    X, Y = X[keep], Y[keep]
    # numpy's Dirichlet rows can sum to 1 +- 1e-13; a pair that is not
    # sum-zero to within an ulp can beat the bound by more than 1e-12.
    return X / X.sum(axis=1)[:, None], Y / Y.sum(axis=1)[:, None]


@pytest.mark.parametrize("kind", KINDS)
def test_sum_zero_constant_is_valid_and_sharp(kind):
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    best = 0.0
    for k in range(2, 7):
        for i in range(INSTANCES):
            g, L, floor = kind_instance(kind, k, rng, i)
            X, Y = close_pairs(rng, k, floor)
            ratio = np.abs(g(X) - g(Y)) / np.abs(X - Y).sum(axis=1)
            assert ratio.max() <= L + 1e-12, (k, i, ratio.max(), L)
            best = max(best, ratio.max() / L)
    assert best >= 0.99, best


def box_pairs(rng, c, h):
    """Close pairs (X, Y) inside the boxes [c - h, c + h] (rows) about
    points c of the simplex, anywhere along a line through c: half move mass
    between two states, out to the corner where the gradient spread of a
    KL constraint peaks, the rest along a random sum-zero direction."""
    n, k = c.shape
    d = np.zeros((n, k))
    half = n // 2
    i = rng.integers(0, k, size=half)
    j = (i + rng.integers(1, k, size=half)) % k
    d[np.arange(half), i], d[np.arange(half), j] = 1.0, -1.0
    u = rng.uniform(-0.5, 0.5, size=(n - half, k))
    d[half:] = u - u.mean(axis=1)[:, None]
    t = rng.uniform(-1, 1, size=(n, 1))
    gap = rng.uniform(0.05, 0.3, size=(n, 1))
    return c + t * h * d, c + np.where(t > 0, t - gap, t + gap) * h * d


@pytest.mark.parametrize("kind", ["entropy", "grouped_kl"])
def test_box_lipschitz_is_valid_on_sampled_boxes(kind):
    # For random boxes and random pairs inside them, |g(x) - g(y)| <=
    # L_box ||x - y||_1, k = 2..5.  Most boxes lie inside the contracted
    # simplex, where their own cell-mass range sets a constant below the
    # global one; the rest straddle its floor and take the global one.
    rng = np.random.default_rng(KINDS.index(kind))
    boxes = local = best = 0
    for k in range(2, 6):
        for _ in range(INSTANCES):
            sm, prior = smoothed_instance(kind, k, rng)
            floor = geometry.contraction_floor(k, sm.contraction)
            c = floor + (1 - k * floor) * rng.dirichlet(np.full(k, 0.5), size=PAIRS)
            h = 10 ** rng.uniform(-2.5, -1, size=(PAIRS, 1))
            L_box = sm.box_lipschitz(np.maximum(c - h, 0.0), np.minimum(c + h, 1.0))
            assert np.all(L_box <= sm.lipschitz_constant)
            boxes, local = boxes + PAIRS, local + np.count_nonzero(
                L_box < sm.lipschitz_constant)
            X, Y = box_pairs(rng, c, h)
            ok = (X.min(axis=1) >= 0) & (Y.min(axis=1) >= 0)
            X, Y = X[ok], Y[ok]
            ratio = np.abs(sm.eval_batch(X, prior) - sm.eval_batch(Y, prior)) \
                / np.abs(X - Y).sum(axis=1)
            assert np.all(ratio <= L_box[ok] + 1e-9), (k, (ratio - L_box[ok]).max())
            best = max(best, (ratio / L_box[ok]).max())
    assert local >= boxes / 2
    assert best >= 0.99, best
