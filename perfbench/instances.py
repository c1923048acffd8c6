"""Seeded instance generators owned by the benchmark.

The logic follows the package's test generators, copied here so the
workloads stay fixed when the test suite changes.  Every function draws from
the numpy Generator it is given, so one seed always yields the same inputs.
Constraint bounds are set relative to the no-revelation scheme, which makes
each instance's Slater margin known by construction.
"""

from __future__ import annotations

import math

import numpy as np

from persuade.auction import AuctionSpec, BidderType, to_max_linear
from persuade.core import (ConstraintSpec, Posterior, ProblemInstance,
                           UtilitySpec)

KINDS = ("linear", "norm_distance", "grouped_kl")


def interior_prior(rng: np.random.Generator, k: int) -> Posterior:
    """A prior bounded away from the simplex boundary."""
    w = rng.dirichlet(np.ones(k)) * 0.6 + 0.4 / k
    return Posterior(w / w.sum())


def random_max_linear(rng: np.random.Generator, k: int) -> UtilitySpec:
    n_f = int(rng.integers(1, 4))
    coeffs = rng.uniform(0.0, 1.0, size=(n_f, k))
    rank = 1 if n_f == 1 else int(rng.integers(1, 3))
    return UtilitySpec.max_linear(coeffs, rank=rank)


def grouped_kl(k: int, prior: Posterior, bound: float,
               partition=None) -> ConstraintSpec:
    """KL divergence from the prior, over the cells of ``partition``."""
    partition = partition or [(i,) for i in range(k)]
    refs = np.array([prior.weights[list(cell)].sum() for cell in partition])
    return ConstraintSpec.grouped_kl(partition, 1.0, refs, bound=bound)


def random_constraint(rng: np.random.Generator, k: int, prior: Posterior,
                      kind: str, slack: float) -> ConstraintSpec:
    """An ex-ante constraint whose no-revelation slack is exactly ``slack``."""
    if kind == "linear":
        coeffs = rng.uniform(0, 1, size=k)
        return ConstraintSpec.linear(coeffs, bound=float(coeffs @ prior.weights) + slack)
    if kind == "norm_distance":
        order = [1, 2, float("inf")][int(rng.integers(0, 3))]
        return ConstraintSpec.norm_distance(order, bound=slack)
    if kind == "grouped_kl":
        partition = None
        if k >= 3 and rng.uniform() < 0.4:
            merged = sorted(rng.choice(k, size=2, replace=False).tolist())
            partition = [tuple(merged)] + [(i,) for i in range(k) if i not in merged]
        return grouped_kl(k, prior, slack, partition)
    raise ValueError(kind)


def random_instance(rng: np.random.Generator, k: int, kinds: tuple[str, ...],
                    slack_range=(0.12, 0.3)) -> tuple[ProblemInstance, float]:
    """Max-of-linear instance with one ex-ante constraint per entry of
    ``kinds``, plus its certified no-revelation Slater margin."""
    prior = interior_prior(rng, k)
    utility = random_max_linear(rng, k)
    slacks = rng.uniform(*slack_range, size=len(kinds))
    cons = tuple(random_constraint(rng, k, prior, kind, float(s))
                 for kind, s in zip(kinds, slacks))
    return ProblemInstance(k, prior, utility, cons), float(slacks.min())


def kl_instance(rng: np.random.Generator, m: int) -> ProblemInstance:
    """k=3 instance under m KL constraints from the uniform prior: the
    first over single states, the second over a random merged pair and a
    single state.  The Sender's utility is the largest posterior entry.

    Only the bounds and the merged pair are drawn.  The grid depends only on
    the prior and the partitions, so every instance solves on the same grid,
    and the fixed utility keeps the simplex pivot count alike across
    instances: with random utilities the solve time of one instance ranged
    over a factor of two.
    """
    prior = Posterior(np.full(3, 1.0 / 3.0))
    merged = sorted(rng.choice(3, size=2, replace=False).tolist())
    partitions = [None, [tuple(merged)] + [(i,) for i in range(3) if i not in merged]]
    cons = tuple(grouped_kl(3, prior, float(rng.uniform(0.12, 0.3)), partitions[j])
                 for j in range(m))
    return ProblemInstance(3, prior, UtilitySpec.max_linear(np.eye(3)), cons)


def auction_instance(rng: np.random.Generator, objective: str,
                     lipschitz: float) -> ProblemInstance:
    """Second-price auction over 2 bidders x 3 types (k=4) under one ex-ante
    l1 distance constraint.

    Bidder values are scaled so the utility's l1 Lipschitz constant equals
    ``lipschitz``; that constant sets the grid denominator, so every seed
    solves on the same grid size.
    """
    bidders = []
    for _ in range(2):
        w = rng.dirichlet(np.ones(3))
        bidders.append([(float(w[t]), float(rng.uniform(0, 1)),
                         float(rng.uniform(0, 2))) for t in range(3)])
    raw = AuctionSpec(bidders=tuple(tuple(BidderType(*t) for t in b)
                                    for b in bidders))
    scale = lipschitz / to_max_linear(raw, objective).lipschitz_l1()
    spec = AuctionSpec(
        bidders=tuple(tuple(BidderType(w, lo * scale, hi * scale)
                            for w, lo, hi in b) for b in bidders),
        objective=objective)
    utility = (UtilitySpec.auction_welfare(spec) if objective == "welfare"
               else UtilitySpec.auction_revenue(spec))
    prior = interior_prior(rng, 4)
    cons = (ConstraintSpec.norm_distance(1, bound=float(rng.uniform(0.12, 0.3))),)
    return ProblemInstance(4, prior, utility, cons)


# Orthonormal basis of {x : sum x = 0}, the directions within the k=3 simplex.
PLANE = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) \
    / np.array([[math.sqrt(2.0)], [math.sqrt(6.0)]])


def _angle(vec: np.ndarray) -> float:
    x, y = PLANE @ vec
    return math.atan2(y, x) % (2.0 * math.pi)


def _ray_exit(center: np.ndarray, theta: float) -> np.ndarray:
    """Where the ray from ``center`` at angle theta leaves the simplex."""
    d = math.cos(theta) * PLANE[0] + math.sin(theta) * PLANE[1]
    neg = d < -1e-15
    t = float(np.min(-center[neg] / d[neg]))
    out = np.clip(center + t * d, 0.0, None)
    return out / out.sum()


def fan_pieces(rng: np.random.Generator, n_pieces: int) -> list[np.ndarray]:
    """Convex polygons that tile the k=3 simplex, fanned around one
    interior point.  The rays are evenly spaced up to a jitter of a fifth of
    a step, so every piece spans an angle below pi and is convex."""
    center = np.asarray(interior_prior(rng, 3).weights)
    step = 2.0 * math.pi / n_pieces
    cuts = (rng.uniform(0.0, 2.0 * math.pi) + step * np.arange(n_pieces)
            + rng.uniform(-0.2, 0.2, size=n_pieces) * step) % (2.0 * math.pi)
    cuts.sort()
    corners = [(_angle(e - center), e) for e in np.eye(3)]
    pieces = []
    for i in range(n_pieces):
        lo, hi = cuts[i], cuts[(i + 1) % n_pieces]
        span = (hi - lo) % (2.0 * math.pi)
        inside = sorted((((a - lo) % (2.0 * math.pi), e) for a, e in corners
                         if 0.0 < (a - lo) % (2.0 * math.pi) < span),
                        key=lambda pair: pair[0])
        pieces.append(np.vstack([center, _ray_exit(center, lo)]
                                + [e for _, e in inside]
                                + [_ray_exit(center, hi)]))
    return pieces


def piecewise_instance(rng: np.random.Generator,
                       n_pieces: int) -> ProblemInstance:
    """k=3 piecewise-constant utility on ``n_pieces`` fan pieces with values
    in [0, 2], under one linear ex-ante constraint."""
    pieces = fan_pieces(rng, n_pieces)
    utility = UtilitySpec.piecewise_constant(
        [(p, float(rng.uniform(0.0, 2.0))) for p in pieces])
    prior = interior_prior(rng, 3)
    coeffs = rng.uniform(0, 1, size=3)
    bound = float(coeffs @ prior.weights) + float(rng.uniform(0.12, 0.3))
    return ProblemInstance(3, prior, utility,
                           (ConstraintSpec.linear(coeffs, bound=bound),))
