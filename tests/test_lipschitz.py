"""Sampled validity and sharpness of the sum-zero Lipschitz constants.

For each utility and constraint kind and k = 2..6, no close pair of simplex
points has |g(x) - g(y)| / ||x - y||_1 above the kind's constant L, and on
at least one instance per kind the largest sampled ratio comes within 1 % of
L.  Most pairs move mass between two states, the direction in which the
sum-zero bound (max a - min a) * ||d||_1 / 2 is attained; the rest move
toward a random point of the simplex.  On boxes inside the contracted
simplex, the KL gradient ranges of SmoothedConstraint.box_gradient give a
box-local constant by the same rule.  The box slopes of the lazy grid LP,
which bound a reduced cost from its (super)gradient ranges over a box, are
checked the same way on the boxes of its dyadic descent.
"""

import numpy as np
import pytest

from helpers import (interior_prior, lattice_compositions, random_max_linear,
                     random_welfare_style, reference_rank_candidates)
from persuade import geometry
from persuade.constraints import smooth_constraint
from persuade.core import (ConstraintSpec, MaxLinearTerm, UtilitySpec,
                           _rank_candidates, _TermGroup, eval_utility_batch)
from persuade.solver import _box_gradient, _box_reach

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


def box_lipschitz(sm, center, q_lo, q_hi, prior):
    """(B,) l1 Lipschitz constants of a KL-family g on the boxes, by the
    sum-zero rule on the gradient ranges box_gradient gives the convex one
    of +g and -g."""
    weight = 1.0 if sm.source.kind == "entropy" else float(np.sign(sm.source.scale))
    lo, hi = sm.box_gradient(weight, prior)(center, q_lo, q_hi)
    return (hi.max(axis=1) - lo.min(axis=1)) / 2.0


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
            L_box = box_lipschitz(sm, c, np.maximum(c - h, 0.0),
                                  np.minimum(c + h, 1.0), prior)
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


SLOPE_KINDS = ("linear", "norm_1", "norm_2", "norm_inf", "neg_min_weighted",
               "entropy", "grouped_kl")


def slope_utility(rng, k, i):
    """A mixture of a rank-1 max, a middle rank and a min, or (every fourth
    instance) one linear functional, on which the slope bound is exact."""
    if i % 4 == 0:
        return UtilitySpec.max_linear(rng.uniform(0, 1, size=(1, k)))
    n_min = int(rng.integers(2, 4))
    shapes = ((int(rng.integers(2, 4)), 1), (int(rng.integers(3, 5)), 2), (n_min, n_min))
    return UtilitySpec.mixture([
        MaxLinearTerm(rng.uniform(0, 1, size=(n, k)), rank=r,
                      weight=float(rng.uniform(0.2, 1.0))) for n, r in shapes])


def sampled_boxes(rng, k, N, per_level=48):
    """(lo, side) of aligned partial-sum boxes of every side, drawn level by
    level from the dyadic descent the lazy grid LP runs."""
    lo, side, out = np.zeros((1, k - 1), dtype=np.int64), 1 << N.bit_length(), []
    while side > 1:
        out.append((lo, side))
        lo, side = geometry.split_boxes(lo, side, N), side // 2
        lo = lo[rng.permutation(lo.shape[0])[:per_level]]
    return out


def test_box_slope_is_valid_and_sharp_on_sampled_boxes():
    # The reduced cost r = u - y_bary.q - sum lambda_i g_i of a grid LP, for
    # random mixtures (rank 1, a middle rank, a min), every smoothed kind,
    # random barycenter duals and lambdas of either sign, k = 2..5: at no
    # lattice point of a box, and at no real point between some of them,
    # does r exceed r(center) + _box_reach.  KL boxes lie inside
    # and outside the contracted simplex.  On a linear r the bound is
    # attained, so some box must come within 1 % of it.
    rng = np.random.default_rng(20)
    best, inside, outside = 0.0, 0, 0
    for k in range(2, 6):
        N = {2: 60, 3: 24, 4: 14, 5: 10}[k]
        lattice = lattice_compositions(k, N)
        partial = np.cumsum(lattice, axis=1)[:, :-1]
        for i in range(8):
            u = slope_utility(rng, k, i)
            kinds = [SLOPE_KINDS[(i + j) % len(SLOPE_KINDS)] for j in range(1 + i % 3)]
            if i % 4 == 0:
                kinds = ["linear"]
            pairs = [smoothed_instance(kind, k, rng) for kind in kinds]
            smoothed, prior = [sm for sm, _ in pairs], pairs[0][1]
            y = np.concatenate([rng.uniform(-1, 1, size=k),
                                rng.uniform(-0.5, 2.0, size=len(smoothed))])

            def reduced(Q):
                r = eval_utility_batch(u, Q) - Q[:, : k - 1] @ y[: k - 1]
                for lam, sm in zip(y[k:], smoothed):
                    r -= lam * sm.eval_batch(Q, prior)
                return r
            r_lattice = reduced(lattice / N)
            for lo, side in sampled_boxes(rng, k, N):
                center, x_lo, x_hi, e_lo, e_hi = geometry.box_bounds(lo, side, N)
                hi = np.minimum(lo + side - 1, N)
                gradients = [sm.box_gradient(w, prior) for sm, w in zip(smoothed, -y[k:])]
                g_lo, g_hi = _box_gradient(u.box_gradient(), gradients, y[: k - 1],
                                           center / N, x_lo / N, x_hi / N, e_lo / N, e_hi / N)
                reach = _box_reach(g_lo, g_hi, e_lo / N, e_hi / N)
                bound = reduced(center / N) + reach
                member = ((partial[None] >= lo[:, None]) & (partial[None] <= hi[:, None])
                          ).all(axis=2)  # (B, V)
                assert np.all(np.where(member, r_lattice, -np.inf).max(axis=1)
                              <= bound + 1e-10)
                # Real points: mixtures of two lattice points of one box.
                b, j = np.nonzero(member)
                a = rng.integers(0, b.shape[0], size=4 * b.shape[0])
                count = member.sum(axis=1)
                mate = j[(np.cumsum(count) - count)[b[a]]
                         + (rng.uniform(size=a.shape[0]) * count[b[a]]).astype(int)]
                t = rng.uniform(0, 1, size=(a.shape[0], 1))
                X = (t * lattice[j[a]] + (1 - t) * lattice[mate]) / N
                assert np.all(reduced(X) <= bound[b[a]] + 1e-10)
                gain = np.where(member, r_lattice, -np.inf).max(axis=1) - (bound - reach)
                ok = reach > 1e-9
                best = max(best, (gain[ok] / reach[ok]).max(initial=0.0))
                for sm in smoothed:
                    if sm.contraction is not None:
                        floor = geometry.contraction_floor(k, sm.contraction)
                        inside += np.count_nonzero(x_lo.min(axis=1) / N >= floor)
                        outside += np.count_nonzero(x_lo.min(axis=1) / N < floor)
    assert best >= 0.99, best
    assert inside and outside
    # Rounding can leave a functional's lower bound above its own upper
    # bound; when that leaves no functional a candidate, all of them are.
    lower, upper = np.array([[1.0 + 1e-9, 0.0]]), np.array([[1.0, 0.5]])
    assert _rank_candidates(lower, upper, 1, 1e-12).all()


@pytest.mark.parametrize("k", range(2, 7))
def test_functional_extents_hold_and_are_attained_on_sampled_boxes(k):
    # Each functional's range over a box, from its value at the center and
    # the box's partial-sum extents, holds at every lattice point of the
    # box and at real points between two of them, and both of its ends are
    # attained on some box.
    rng = np.random.default_rng(30 + k)
    N = {2: 60, 3: 24, 4: 14, 5: 10, 6: 8}[k]
    lattice = lattice_compositions(k, N)
    partial = np.cumsum(lattice, axis=1)[:, :-1]
    group = _TermGroup([MaxLinearTerm(rng.uniform(-1, 1, size=(4, k)), rank=2)
                        for _ in range(3)])
    values = lattice / N @ group.flat  # (V, T * n_f)
    top = bottom = np.full(group.flat.shape[1], np.inf)
    for lo, side in sampled_boxes(rng, k, N):
        center, _, _, e_lo, e_hi = geometry.box_bounds(lo, side, N)
        lower, upper = (a.reshape(lo.shape[0], -1)
                        for a in group.extents(center / N, e_lo / N, e_hi / N))
        hi = np.minimum(lo + side - 1, N)
        member = ((partial[None] >= lo[:, None]) & (partial[None] <= hi[:, None])
                  ).all(axis=2)  # (B, V)
        for b in range(lo.shape[0]):
            X = lattice[member[b]]
            mates = X[rng.integers(0, X.shape[0], size=(4 * X.shape[0], 2))]
            t = rng.uniform(0, 1, size=(mates.shape[0], 1))
            reals = (t * mates[:, 0] + (1 - t) * mates[:, 1]) / N @ group.flat
            for v in (values[member[b]], reals):
                assert np.all(v >= lower[b] - 1e-12) and np.all(v <= upper[b] + 1e-12)
            top = np.minimum(top, upper[b] - values[member[b]].max(axis=0))
            bottom = np.minimum(bottom, values[member[b]].min(axis=0) - lower[b])
    assert np.all(top <= 1e-12) and np.all(bottom <= 1e-12), (top, bottom)


@pytest.mark.parametrize("n_f", range(1, 7))
def test_rank_candidates_match_the_pairwise_count(n_f):
    # Bounds on a coarse grid of values, so that many pairs tie exactly at
    # the tolerance of their term, and lower bounds that may exceed their
    # own upper bound by a rounding error; every rank, mask for mask.
    rng = np.random.default_rng(n_f)
    B, T = 500, 3
    tol = np.array([0.0, 0.25, 0.5])
    lower = rng.integers(0, 8, size=(B, T, n_f)) / 4.0
    upper = lower + rng.integers(0, 3, size=lower.shape) / 4.0
    lower[rng.uniform(size=lower.shape) < 0.1] += 1e-12
    assert (lower > upper).any()
    assert (lower[:, :, :, None] == upper[:, :, None, :] + tol[:, None, None]).any()
    for rank in range(1, n_f + 1):
        ours = _rank_candidates(lower, upper, rank, tol)
        assert ours.dtype == bool
        assert np.array_equal(ours, reference_rank_candidates(lower, upper, rank, tol))
