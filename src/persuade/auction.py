"""Second-price ad-auction Sender utilities over Omega = {0,1}^n.

State s encodes targeting bits: bidder i's bit is (s >> i) & 1.  Bidders bid
their expected value under the posterior's marginal for their own bit, so
welfare at a posterior is E over type profiles of the highest expected value
and revenue is the expectation of the second highest (0 with one bidder).

Type distributions are finite and the expectation over profiles is exact up
to a configurable profile cap; beyond the cap a seeded Monte Carlo estimate
is used (the seed is required so runs stay reproducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EX_POST, InfeasibleError, MaxLinearTerm, ResourceLimitError,
                   SignalingScheme, UtilitySpec, ValidationError, check_finite,
                   eval_utility_batch)

DEFAULT_PROFILE_CAP = 10 ** 6
MC_SAMPLES = 100_000


@dataclass(frozen=True, eq=False)
class BidderType:
    """One type: probability weight and the values v(bit=0), v(bit=1)."""

    weight: float
    low_value: float
    high_value: float

    def __post_init__(self):
        check_finite("type weight", float(self.weight))
        check_finite("bidder values", np.array([self.low_value, self.high_value], dtype=float))
        if self.weight < 0:
            raise ValidationError("type weight must be nonnegative")
        if self.low_value < 0 or self.high_value < 0:
            raise ValidationError("bidder values must be nonnegative")


@dataclass(frozen=True, eq=False)
class AuctionSpec:
    """Finite-type second-price auction: per-bidder type lists and objective."""

    bidders: tuple[tuple[BidderType, ...], ...]
    objective: str = "welfare"  # welfare | revenue
    profile_cap: int = DEFAULT_PROFILE_CAP
    mc_seed: int | None = None

    def __post_init__(self):
        if self.objective not in ("welfare", "revenue"):
            raise ValidationError(f"unknown auction objective {self.objective!r}")
        if self.mc_seed is not None and not (isinstance(self.mc_seed, (int, np.integer))
                                             and self.mc_seed >= 0):
            raise ValidationError("mc_seed must be a nonnegative integer")
        bidders = tuple(tuple(types) for types in self.bidders)
        if not bidders or any(len(t) == 0 for t in bidders):
            raise ValidationError("every bidder needs at least one type")
        for types in bidders:
            total = sum(t.weight for t in types)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(
                    f"type weights sum to {total!r}, expected 1")
        object.__setattr__(self, "bidders", bidders)

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def k(self) -> int:
        return 2 ** self.n

    @property
    def profile_count(self) -> int:
        return math.prod(len(t) for t in self.bidders)


def state_bit(states: np.ndarray, bidder: int) -> np.ndarray:
    return (states >> bidder) & 1


def marginals(spec: AuctionSpec, Q: np.ndarray) -> np.ndarray:
    """P[bit_i = 1] per posterior row: shape (rows, n)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[1] != spec.k:
        raise ValidationError(f"posterior dimension {Q.shape[1]} != 2^n = {spec.k}")
    states = np.arange(spec.k)
    mask = np.stack([state_bit(states, i) for i in range(spec.n)], axis=1)  # (k, n)
    return Q @ mask.astype(float)


def _profile_arrays(spec: AuctionSpec):
    """(weights, v0, v1) over the full type-profile product, each (profiles, n)."""
    idx_grids = np.meshgrid(*[np.arange(len(t)) for t in spec.bidders],
                            indexing="ij")
    idx = np.stack([g.reshape(-1) for g in idx_grids], axis=1)  # (profiles, n)
    w = np.ones(idx.shape[0])
    v0 = np.empty_like(w, shape=idx.shape)
    v1 = np.empty_like(v0)
    for i, types in enumerate(spec.bidders):
        tw = np.array([t.weight for t in types])
        tl = np.array([t.low_value for t in types])
        th = np.array([t.high_value for t in types])
        w *= tw[idx[:, i]]
        v0[:, i] = tl[idx[:, i]]
        v1[:, i] = th[idx[:, i]]
    return w, v0, v1


def _objective_values(x: np.ndarray, objective: str) -> np.ndarray:
    """Per-profile welfare (max) or revenue (second max) along the last axis."""
    if objective == "welfare":
        return x.max(axis=-1)
    if x.shape[-1] == 1:
        return np.zeros(x.shape[:-1])  # one bidder: no second bid
    part = np.partition(x, -2, axis=-1)
    return part[..., -2]


def auction_utility_batch(spec: AuctionSpec, Q: np.ndarray,
                          objective: str | None = None) -> np.ndarray:
    """Vectorized auction utility over posterior rows."""
    objective = objective or spec.objective
    m = marginals(spec, Q)  # (rows, n)
    if spec.profile_count <= spec.profile_cap:
        w, v0, v1 = _profile_arrays(spec)
        # x[r, p, i] = (1 - m) v0 + m v1
        x = (1.0 - m[:, None, :]) * v0[None, :, :] + m[:, None, :] * v1[None, :, :]
        return _objective_values(x, objective) @ w
    if spec.mc_seed is None:
        raise ResourceLimitError(
            f"{spec.profile_count} type profiles exceed the cap "
            f"{spec.profile_cap}; provide mc_seed for Monte Carlo")
    est, _ = auction_utility_mc_batch(spec, Q, objective=objective)
    return est


def auction_utility_mc_batch(spec: AuctionSpec, Q: np.ndarray,
                             objective: str | None = None):
    """Seeded Monte Carlo estimate from MC_SAMPLES draws; returns (estimates,
    standard errors)."""
    objective = objective or spec.objective
    rng = np.random.default_rng(spec.mc_seed)
    m = marginals(spec, Q)
    draws_v0 = np.empty((MC_SAMPLES, spec.n))
    draws_v1 = np.empty((MC_SAMPLES, spec.n))
    for i, types in enumerate(spec.bidders):
        tw = np.array([t.weight for t in types])
        pick = rng.choice(len(types), size=MC_SAMPLES, p=tw / tw.sum())
        draws_v0[:, i] = np.array([t.low_value for t in types])[pick]
        draws_v1[:, i] = np.array([t.high_value for t in types])[pick]
    x = (1.0 - m[:, None, :]) * draws_v0[None, :, :] + m[:, None, :] * draws_v1[None, :, :]
    vals = _objective_values(x, objective)  # (rows, MC_SAMPLES)
    est = vals.mean(axis=1)
    stderr = vals.std(axis=1, ddof=1) / math.sqrt(MC_SAMPLES)
    return est, stderr


def to_max_linear(spec: AuctionSpec, objective: str | None = None) -> UtilitySpec:
    """Expand the profile expectation into a weighted sum of rank-max terms.

    Each profile contributes one term: the bidders' expected values are
    linear in the posterior with coefficients v_i(bit_i(s), t_i), and the
    objective takes their max (welfare) or second max (revenue).  Feeds the
    grid approximation with a certified Lipschitz constant.
    """
    objective = objective or spec.objective
    if spec.profile_count > spec.profile_cap:
        raise ResourceLimitError(
            f"{spec.profile_count} profiles exceed the cap {spec.profile_cap}")
    w, v0, v1 = _profile_arrays(spec)
    states = np.arange(spec.k)
    bits = np.stack([state_bit(states, i) for i in range(spec.n)], axis=0)  # (n, k)
    terms = []
    for p in range(w.shape[0]):
        if w[p] == 0.0:
            continue
        coeffs = np.where(bits == 1, v1[p][:, None], v0[p][:, None])  # (n, k)
        if objective == "revenue" and spec.n == 1:
            terms.append(MaxLinearTerm(np.zeros((1, spec.k)), rank=1,
                                       weight=float(w[p])))
            continue
        rank = 1 if objective == "welfare" else 2
        terms.append(MaxLinearTerm(coeffs, rank=rank, weight=float(w[p])))
    return UtilitySpec.mixture(terms)


def certify_factor_two(utility: UtilitySpec) -> bool:
    """True when the relaxed-Jensen factor M=2 is certified structurally:
    every term is a rank-max of nonnegative linear functionals."""
    if utility.kind != "max_linear":
        return False
    return all(np.all(t.coeffs >= 0) for t in utility.terms)


@dataclass(frozen=True)
class JensenReport:
    max_ratio: float
    factor: float
    trials: int
    passed: bool
    worst: tuple  # (lambda, q1, q2) achieving max_ratio


def verify_jensen_factor(utility, trials: int = 10_000, seed: int = 0,
                         factor: float = 2.0) -> JensenReport:
    """Sample the relaxed-Jensen ratio and compare against the factor.

    Accepts a UtilitySpec or an AuctionSpec.  Deterministic probes over all
    simplex-vertex pairs at lambda = 1/2 run first (they realize the
    equality case of the max-of-linear bound), then uniform samples.
    Ratios with mixture utility below 1e-12 are ignored.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if isinstance(utility, AuctionSpec):
        spec = UtilitySpec.auction_welfare(utility) if utility.objective == "welfare" \
            else UtilitySpec.auction_revenue(utility)
    else:
        spec = utility
    k = spec.k
    rng = np.random.default_rng(seed)
    lam = rng.uniform(size=trials)
    Q1 = rng.dirichlet(np.ones(k), size=trials)
    Q2 = rng.dirichlet(np.ones(k), size=trials)
    # Deterministic vertex probes.
    eye = np.eye(k)
    pairs = [(0.5, eye[i], eye[j]) for i in range(k) for j in range(k) if i < j]
    if pairs:
        lam = np.concatenate([[p[0] for p in pairs], lam])
        Q1 = np.vstack([[p[1] for p in pairs], Q1])
        Q2 = np.vstack([[p[2] for p in pairs], Q2])
    u1 = eval_utility_batch(spec, Q1)
    u2 = eval_utility_batch(spec, Q2)
    mix = lam[:, None] * Q1 + (1.0 - lam)[:, None] * Q2
    umix = eval_utility_batch(spec, mix)
    lhs = lam * u1 + (1.0 - lam) * u2
    ok = umix > 1e-12
    ratios = np.where(ok, lhs / np.where(ok, umix, 1.0), -np.inf)
    idx = int(np.argmax(ratios))
    max_ratio = float(ratios[idx])
    return JensenReport(max_ratio=max_ratio, factor=factor,
                        trials=int(lam.shape[0]),
                        passed=max_ratio <= factor + 1e-9,
                        worst=(float(lam[idx]), Q1[idx].copy(), Q2[idx].copy()))


def example2_scheme(instance) -> SignalingScheme:
    """The unique Bayes-plausible scheme on the vertices of the simplex cut
    out by a single ex-post neg-min-weighted constraint.

    The constraint -min_w b_w q[w] <= c restricts posteriors to
    q[w] >= -c/b_w; the restricted region is again a simplex whose vertex
    scheme is pinned down by Bayes plausibility.
    """
    specs = [c for c in instance.constraints
             if c.kind == "neg_min_weighted" and c.mode == EX_POST]
    if len(specs) != 1 or len(instance.constraints) != 1:
        raise ValidationError(
            "example2_scheme needs exactly one ex-post neg_min_weighted constraint")
    spec = specs[0]
    k = instance.k
    lo = np.maximum(-spec.bound / spec.weights, 0.0)
    slack = 1.0 - float(lo.sum())
    prior = instance.prior.weights
    if slack < -1e-12:
        raise InfeasibleError("restricted simplex is empty")
    if np.any(prior < lo - 1e-9):
        raise InfeasibleError("prior lies outside the restricted simplex")
    if slack <= 1e-12:
        # Degenerate: the region is the single point lo = prior.
        return SignalingScheme(prior[None], [1.0])
    vertices = lo[None, :] + slack * np.eye(k)
    probs = (prior - lo) / slack
    probs = np.clip(probs, 0.0, None)
    keep = probs > 1e-12
    return SignalingScheme(vertices[keep], probs[keep] / probs[keep].sum())
