"""Domain types for constrained signaling problems.

A problem is a prior over k states of nature, a Sender utility defined on
posteriors, and a list of constraint functions with bounds, each enforced
either in expectation over the scheme (ex ante) or pointwise on every support
posterior (ex post).  A signaling scheme is represented by the distribution
over posteriors it induces, an (s, k) support array and a mass vector; the
barycenter of that distribution must equal the prior (Bayes plausibility).

Piecewise-constant utilities are triangulated once, when the UtilitySpec is
built (triangulate_piece), and piece membership goes through one batched
barycentric kernel, simplices_contain.

All types are immutable after construction and all operations are pure
functions, so shared instances are safe under concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Iterable

import numpy as np

SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
MERGE_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9
# "Surely above" margin of _rank_candidates, relative to the largest
# coefficient: far above the rounding of a length-k dot product.
RANK_TOL = 1e-12

EX_ANTE = "ex_ante"
EX_POST = "ex_post"

CONSTRAINT_KINDS = ("linear", "norm_distance", "entropy", "grouped_kl",
                    "neg_min_weighted", "bump")
# Kinds usable by the pooling conversion (convex constraint functions).
CONVEX_KINDS = ("linear", "norm_distance", "entropy", "grouped_kl",
                "neg_min_weighted")
UTILITY_KINDS = ("max_linear", "piecewise_constant", "auction_welfare",
                 "auction_revenue")


class PersuasionError(Exception):
    """Base class for all package errors."""


class ValidationError(PersuasionError):
    """Invalid input data (bad probabilities, malformed specs, ...)."""


class DimensionMismatch(ValidationError):
    """Vector/matrix dimensions do not agree with the state count."""


class UnsupportedKindError(PersuasionError):
    """A constraint/utility kind outside what the operation supports."""


class InfeasibleError(PersuasionError):
    """No scheme satisfies the (possibly relaxed) constraints."""


class ResourceLimitError(PersuasionError):
    """A configurable resource guard (grid size, profile count) tripped."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``a``; the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` with its writeable flag cleared.  Only for arrays the package
    allocated: a caller's array is frozen through a view, frozen(a.view())."""
    a.flags.writeable = False
    return a


def check_finite(name: str, a):
    """``a`` (a float or an array) unchanged; ValidationError naming
    ``name`` if any entry is NaN or infinite."""
    if not (math.isfinite(a) if isinstance(a, float) else np.isfinite(a).all()):
        raise ValidationError(f"{name} must be finite")
    return a


def _finite_vector(name: str, a) -> np.ndarray:
    """A read-only float copy of the 1-d array ``a``; ValidationError naming
    ``name`` for any other shape or a non-finite entry."""
    a = _as_readonly(a)
    if a.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    return check_finite(name, a)


# ---------------------------------------------------------------------------
# Posteriors and schemes
# ---------------------------------------------------------------------------

def _simplex_rows(a: np.ndarray, name: str) -> np.ndarray:
    """The rows of the 2-d array ``a`` as points of the probability simplex,
    in a new float array.

    Entries in [-ENTRY_TOL, 0) are clamped to zero and each row divided by
    its sum, so solver output noise cannot produce invalid probabilities.
    An empty row, an entry that is not finite or is below -ENTRY_TOL, or a
    row sum off 1 by more than SUM_TOL raises ValidationError naming
    ``name``.  Posterior is the one-row case.
    """
    if a.shape[1] < 1:
        raise ValidationError(f"{name} are empty")
    check_finite(name, a)
    if a.min() < -ENTRY_TOL:
        raise ValidationError(f"{name} include {a.min():.3e}, below -{ENTRY_TOL:g}")
    totals = a.sum(axis=1)
    off = np.abs(totals - 1.0) > SUM_TOL
    if off.any():
        raise ValidationError(f"{name} sum to {float(totals[off][0])!r}, "
                              f"expected 1 within {SUM_TOL:g}")
    a = np.maximum(a, 0.0)
    a /= a.sum(axis=1, keepdims=True)
    return a


@dataclass(frozen=True, eq=False)
class Posterior:
    """A point of the probability simplex over the k states of nature, the
    one-row case of _simplex_rows: entries in [-1e-12, 0) clamp to zero and
    the vector is renormalized; lower entries or a sum off 1 by > 1e-9 fail."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(1, -1)
        object.__setattr__(self, "weights",
                           frozen(_simplex_rows(w, "posterior entries")[0]))

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:
        return f"Posterior({np.array2string(self.weights, precision=6)})"


def uniform_prior(k: int) -> Posterior:
    return Posterior(np.full(k, 1.0 / k))


@dataclass(frozen=True, eq=False)
class SignalingScheme:
    """A finitely supported distribution over posteriors.

    ``support`` is a read-only (s, k) float array, one posterior per row,
    and ``probs`` the read-only mass vector of its rows.  The rows and the
    masses are each validated and normalized by _simplex_rows; then, in
    support order, a row within MERGE_TOL in l-infinity of a kept row is
    merged into it (merge_row) with its mass added, so grid/pooling output
    never carries near duplicates.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.support, dtype=float, order="C")
        probs = np.asarray(self.probs, dtype=float).reshape(1, -1)
        if pts.ndim != 2:
            raise ValidationError("support must be an (s, k) array of posteriors")
        if pts.shape[0] != probs.shape[1]:
            raise ValidationError("support and probs lengths differ")
        if pts.shape[0] == 0:
            raise ValidationError("scheme needs at least one support point")
        pts = _simplex_rows(pts, "posterior entries")
        probs = _simplex_rows(probs, "scheme probabilities")[0]
        # Kept rows move to the front in place; pts[:n] holds them.
        n = 0
        for i in range(pts.shape[0]):
            j = merge_row(pts[:n], pts[i])
            if j is None:
                pts[n], probs[n] = pts[i], probs[i]
                n += 1
            else:
                probs[j] += probs[i]
        object.__setattr__(self, "support", frozen(pts[:n]))
        object.__setattr__(self, "probs", frozen(probs[:n]))

    @property
    def k(self) -> int:
        return self.support.shape[1]

    @property
    def size(self) -> int:
        return self.support.shape[0]

    def support_matrix(self) -> np.ndarray:
        """The (s, k) support array itself, not a copy."""
        return self.support

    def barycenter(self) -> np.ndarray:
        return self.probs @ self.support


def merge_row(points: np.ndarray, q: np.ndarray) -> int | None:
    """Where the support point q merges: the first row of ``points`` within
    MERGE_TOL of q in l-infinity, or None when there is none.

    SignalingScheme and the pooling conversion add support points this way:
    q's mass joins that row, and q is kept only when there is none.
    """
    near = np.flatnonzero(abs(points - q).max(axis=1) <= MERGE_TOL)
    return int(near[0]) if near.size else None


def full_revelation(prior: Posterior) -> SignalingScheme:
    """Point masses on the unit vectors, weighted by the prior."""
    keep = prior.weights > 0
    return SignalingScheme(np.eye(prior.k)[keep], prior.weights[keep])


def no_revelation(prior: Posterior) -> SignalingScheme:
    return SignalingScheme(prior.weights[None], [1.0])


def _bayes_deviation(support: np.ndarray, probs: np.ndarray,
                     prior: Posterior) -> float:
    """l-infinity distance of the barycenter probs @ support from the prior."""
    return float(np.max(np.abs(probs @ support - prior.weights)))


def check_bayes_plausible(scheme: SignalingScheme,
                          prior: Posterior) -> tuple[bool, float]:
    """True iff the scheme barycenter matches the prior in l-infinity <= SUM_TOL.

    Returns (plausible, deviation).
    """
    if scheme.k != prior.k:
        raise DimensionMismatch(f"scheme k={scheme.k} vs prior k={prior.k}")
    deviation = _bayes_deviation(scheme.support, scheme.probs, prior)
    return deviation <= SUM_TOL, deviation


# ---------------------------------------------------------------------------
# Constraint specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstraintSpec:
    """A constraint function f, a bound c, and a mode (ex ante / ex post).

    Kinds:
      linear            f(q) = coeffs . q
      norm_distance     f(q) = ||q - prior||_order, order in {1, 2, inf}
      entropy           f(q) = sum q ln q            (0 ln 0 := 0)
      grouped_kl        f(q) = b * sum_j S_j ln(S_j / b_j),  S_j = sum of q
                        over partition cell j (0 ln 0 := 0)
      neg_min_weighted  f(q) = -min_w b_w q[w]
      bump              f(q) = max(0, 1 - ||q - center||_1 / radius)
                        (non-convex; used by the support-size fixture only)

    A grouped_kl spec derives its (cells, k) 0/1 cell indicator once, at
    construction, into ``indicator``; it stays None when the partition does
    not cover the states 0..k-1 for any k, which check_dimension rejects.
    """

    kind: str
    bound: float
    mode: str
    coeffs: np.ndarray | None = None
    order: float | None = None
    partition: tuple[tuple[int, ...], ...] | None = None
    scale: float | None = None
    refs: np.ndarray | None = None
    weights: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    indicator: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        if self.mode not in (EX_ANTE, EX_POST):
            raise ValidationError(f"unknown constraint mode {self.mode!r}")
        object.__setattr__(self, "bound", check_finite("constraint bound", float(self.bound)))
        if self.kind == "linear":
            if self.coeffs is None:
                raise ValidationError("linear constraint needs coeffs")
            object.__setattr__(self, "coeffs", _finite_vector("linear coeffs", self.coeffs))
        elif self.kind == "norm_distance":
            if self.order not in (1, 2, float("inf")):
                raise ValidationError("norm_distance order must be 1, 2 or inf")
        elif self.kind == "grouped_kl":
            if self.partition is None or self.scale is None or self.refs is None:
                raise ValidationError("grouped_kl needs partition, scale and refs")
            if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       for cell in self.partition for i in cell):
                raise ValidationError("grouped_kl partition entries must be integers")
            cells = tuple(tuple(int(i) for i in cell) for cell in self.partition)
            refs = _finite_vector("grouped_kl refs", self.refs)
            check_finite("grouped_kl scale", float(self.scale))
            if len(cells) != refs.shape[0]:
                raise ValidationError("grouped_kl refs must match partition cells")
            if any(len(cell) == 0 for cell in cells):
                raise ValidationError("grouped_kl partition cells must be nonempty")
            flat = [i for cell in cells for i in cell]
            if len(flat) != len(set(flat)):
                raise ValidationError("grouped_kl partition cells must be disjoint")
            if np.any(refs <= 0):
                raise ValidationError("grouped_kl refs must be positive")
            object.__setattr__(self, "partition", cells)
            object.__setattr__(self, "refs", refs)
            if sorted(flat) == list(range(len(flat))):
                indicator = np.zeros((len(cells), len(flat)))
                for j, cell in enumerate(cells):
                    indicator[j, list(cell)] = 1.0
                object.__setattr__(self, "indicator", _as_readonly(indicator))
        elif self.kind == "neg_min_weighted":
            if self.weights is None:
                raise ValidationError("neg_min_weighted needs weights")
            w = _finite_vector("neg_min_weighted weights", self.weights)
            if np.any(w <= 0):
                raise ValidationError("neg_min_weighted weights must be positive")
            object.__setattr__(self, "weights", w)
        elif self.kind == "bump":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ValidationError("bump needs a center and positive radius")
            check_finite("bump radius", float(self.radius))
            object.__setattr__(self, "center", _finite_vector("bump center", self.center))

    # -- constructors -------------------------------------------------------
    @classmethod
    def linear(cls, coeffs, bound, mode=EX_ANTE):
        return cls(kind="linear", bound=bound, mode=mode, coeffs=coeffs)

    @classmethod
    def norm_distance(cls, order, bound, mode=EX_ANTE):
        return cls(kind="norm_distance", bound=bound, mode=mode, order=float(order))

    @classmethod
    def entropy(cls, bound, mode=EX_ANTE):
        return cls(kind="entropy", bound=bound, mode=mode)

    @classmethod
    def grouped_kl(cls, partition, scale, refs, bound, mode=EX_ANTE):
        return cls(kind="grouped_kl", bound=bound, mode=mode,
                   partition=tuple(tuple(c) for c in partition),
                   scale=float(scale), refs=refs)

    @classmethod
    def neg_min_weighted(cls, weights, bound, mode=EX_ANTE):
        return cls(kind="neg_min_weighted", bound=bound, mode=mode, weights=weights)

    @classmethod
    def bump(cls, center, radius, bound, mode=EX_ANTE):
        return cls(kind="bump", bound=bound, mode=mode, center=center,
                   radius=float(radius))

    # -- structure ----------------------------------------------------------
    @property
    def is_convex(self) -> bool:
        return self.kind in CONVEX_KINDS

    def check_dimension(self, k: int):
        if self.kind == "linear" and self.coeffs.shape[0] != k:
            raise DimensionMismatch("linear coeffs length != k")
        if self.kind == "grouped_kl" and (self.indicator is None
                                          or self.indicator.shape[1] != k):
            raise DimensionMismatch("grouped_kl partition must cover all states")
        if self.kind == "neg_min_weighted" and self.weights.shape[0] != k:
            raise DimensionMismatch("neg_min_weighted weights length != k")
        if self.kind == "bump" and self.center.shape[0] != k:
            raise DimensionMismatch("bump center length != k")

    def with_bound(self, bound: float) -> "ConstraintSpec":
        return replace(self, bound=bound)

    def with_mode(self, mode: str) -> "ConstraintSpec":
        return replace(self, mode=mode)


def reduce_last_axis(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, bit for bit.

    numpy reduces a short last axis far more slowly than it combines whole
    columns, so many rows of 2 to 7 entries are folded one column at a time
    into one output array.  numpy also reduces rows that short in order,
    left to right, so both ways give the same bits.  Below 256 entries one
    call is kept: on one Xeon core it reduces a single row in 1.5 us against
    3 to 10 us folded, and the fold only pulls ahead somewhere between 20
    rows (min, k = 3) and 250 rows (sum, k = 7), where either way takes a
    few microseconds.
    """
    k = a.shape[-1]
    if not (1 < k < 8 and a.size >= 256):
        return ufunc.reduce(a, axis=-1)
    out = ufunc(a[..., 0], a[..., 1])
    for i in range(2, k):
        ufunc(out, a[..., i], out=out)
    return out


def _xlogx(s: np.ndarray) -> np.ndarray:
    """x ln x with the 0 ln 0 := 0 continuous extension."""
    out = np.zeros_like(s)
    np.log(s, out=out, where=s > 0)
    out *= s
    return out


def eval_constraint_batch(spec: ConstraintSpec, Q: np.ndarray,
                          prior: Posterior | np.ndarray) -> np.ndarray:
    """Vectorized f(q) over rows of Q (shape (n, k))."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    p = np.asarray(getattr(prior, "weights", prior), dtype=float)
    if Q.shape[1] != p.shape[0]:
        raise DimensionMismatch("posterior dimension != prior dimension")
    spec.check_dimension(Q.shape[1])
    if spec.kind == "linear":
        return Q @ spec.coeffs
    if spec.kind == "norm_distance":
        diff = Q - p
        if spec.order == 1:
            return reduce_last_axis(np.add, np.abs(diff))
        if spec.order == 2:
            return np.sqrt(reduce_last_axis(np.add, diff * diff))
        return reduce_last_axis(np.maximum, np.abs(diff))
    if spec.kind == "entropy":
        return reduce_last_axis(np.add, _xlogx(Q))
    if spec.kind == "grouped_kl":
        S = Q @ spec.indicator.T
        return spec.scale * (reduce_last_axis(np.add, _xlogx(S))
                             - S @ np.log(spec.refs))
    if spec.kind == "neg_min_weighted":
        return -reduce_last_axis(np.minimum, Q * spec.weights)
    if spec.kind == "bump":
        dist = reduce_last_axis(np.add, np.abs(Q - spec.center))
        return np.maximum(0.0, 1.0 - dist / spec.radius)
    raise UnsupportedKindError(spec.kind)  # pragma: no cover


# ---------------------------------------------------------------------------
# Utility specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MaxLinearTerm:
    """weight * (rank-th largest of the linear functionals coeffs @ q)."""

    coeffs: np.ndarray  # (n_functionals, k)
    rank: int = 1
    weight: float = 1.0

    def __post_init__(self):
        coeffs = check_finite("term coeffs",
                              np.atleast_2d(np.asarray(self.coeffs, dtype=float)))
        object.__setattr__(self, "rank", int(self.rank))
        object.__setattr__(self, "weight", check_finite("term weight", float(self.weight)))
        if not (1 <= self.rank <= coeffs.shape[0]):
            raise ValidationError(
                f"rank {self.rank} out of range for {coeffs.shape[0]} functionals")
        if self.weight < 0:
            raise ValidationError("term weight must be nonnegative")
        object.__setattr__(self, "coeffs", _as_readonly(coeffs))

    @property
    def k(self) -> int:
        return self.coeffs.shape[1]

    def lipschitz_l1(self) -> float:
        """Half the largest coefficient spread: the sum-zero l1 bound on the rank-th max."""
        with np.errstate(over="ignore"):  # inf, rejected by UtilitySpec.lipschitz_l1
            spread = self.coeffs.max(axis=1) - self.coeffs.min(axis=1)
        return self.weight * float(spread.max()) / 2.0


def _rank_candidates(lower: np.ndarray, upper: np.ndarray, rank: int,
                     tol) -> np.ndarray:
    """(..., n_f) mask of the functionals that can be rank-th largest on a
    box, from (..., n_f) bounds on each functional over the box; ``tol``
    broadcasts against the leading axes.

    Functional b is surely above a when lower[b] > upper[a] + tol; a can
    hold the rank when fewer than ``rank`` functionals are surely above it
    and at most n_f - rank surely below.  Rounding can leave a lower bound
    above its own upper bound; a box where that leaves no candidate counts
    every functional as one.

    Fewer than ``rank`` lower bounds exceed upper[a] + tol exactly when the
    rank-th largest does not, and at most n_f - rank upper bounds fall
    below lower[a] - tol exactly when the rank-th largest does not; so two
    order statistics and one comparison per functional and side give the
    pairwise count's mask, ties included.
    """
    n_f = lower.shape[-1]
    lower_rank, upper_rank = _rank_max(lower, rank), _rank_max(upper, rank)
    held = np.empty(lower.shape, dtype=bool)
    for a in range(n_f):
        # One functional at a time: numpy combines a short last axis slowly
        # (see reduce_last_axis).
        held[..., a] = (lower_rank <= upper[..., a] + tol) & \
            (upper_rank >= lower[..., a] - tol)
    held[~reduce_last_axis(np.logical_or, held)] = True
    return held


class _TermGroup:
    """The max-linear terms of one shape and rank, stacked once for
    UtilitySpec.box_gradient, with the parts of its bounds that depend on
    the coefficients and weights alone."""

    def __init__(self, terms):
        C = np.stack([t.coeffs for t in terms])  # (T, n_f, k)
        T, self.n_f, k = C.shape
        self.rank = terms[0].rank
        self.coeffs, self.flat = C, C.reshape(-1, k).T
        self.weights = w = np.array([t.weight for t in terms])[:, None]
        self.rows = np.arange(T)
        self.base = base = C.min(axis=2)  # (T, n_f)
        self.half_spread = (C.max(axis=2) - base) / 2.0
        self.shifted = (C - base[:, :, None]).reshape(-1, k).T
        self.tol = RANK_TOL * np.maximum(abs(C).max(axis=(1, 2)), 1.0)
        c_lo, c_hi = C.min(axis=1), C.max(axis=1)  # (T, k)
        self.lo, self.hi = w[:, 0] @ c_lo, w[:, 0] @ c_hi
        self.lo_step = (w[:, :, None] * (C - c_lo[:, None])).reshape(-1, k)
        self.hi_step = (w[:, :, None] * (C - c_hi[:, None])).reshape(-1, k)


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """Sender utility on posteriors.

    max_linear holds a weighted sum of rank-th-max-of-linear-functionals
    terms (a single max is the one-term case; auction conversion produces
    longer mixtures).  piecewise_constant holds (polytope vertices, value)
    pieces evaluated as the upper envelope over closed pieces, which keeps
    the function upper semi-continuous; each piece is triangulated once, at
    construction, into ``simplices`` (see triangulate_piece), which both the
    evaluation and the grid refinement use.  Auction kinds delegate to the
    auction module.
    """

    kind: str
    terms: tuple[MaxLinearTerm, ...] = ()
    pieces: tuple[tuple[np.ndarray, float], ...] = ()
    auction: object | None = None
    simplices: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.kind not in UTILITY_KINDS:
            raise ValidationError(f"unknown utility kind {self.kind!r}")
        if self.kind == "max_linear":
            if not self.terms:
                raise ValidationError("max_linear needs at least one term")
            k = self.terms[0].k
            if any(t.k != k for t in self.terms):
                raise DimensionMismatch("max_linear terms have mixed dimensions")
            # The utility must be nonnegative where we can check cheaply:
            # at every simplex vertex.
            vertex_vals = eval_utility_batch(self, np.eye(k))
            if np.any(vertex_vals < -ENTRY_TOL):
                raise ValidationError(
                    "max_linear utility negative at a simplex vertex")
        elif self.kind == "piecewise_constant":
            if not self.pieces:
                raise ValidationError("piecewise_constant needs pieces")
            pieces = []
            k = None
            for verts, value in self.pieces:
                verts = check_finite("piece vertices", np.atleast_2d(_as_readonly(verts)))
                if np.any(verts < -MEMBERSHIP_TOL) or \
                        np.any(np.abs(verts.sum(axis=1) - 1.0) > SUM_TOL):
                    raise ValidationError(
                        "piece vertices must lie in the probability simplex")
                value = check_finite("piece value", float(value))
                if k is None:
                    k = verts.shape[1]
                elif verts.shape[1] != k:
                    raise DimensionMismatch("piece vertices have mixed dimensions")
                if value < 0:
                    raise ValidationError("piece values must be nonnegative")
                pieces.append((verts, value))
            object.__setattr__(self, "pieces", tuple(pieces))
            object.__setattr__(self, "simplices", tuple(
                _as_readonly(triangulate_piece(verts)) for verts, _ in pieces))
        else:
            if self.auction is None:
                raise ValidationError(f"{self.kind} needs an auction spec")

    # -- constructors -------------------------------------------------------
    @classmethod
    def max_linear(cls, coeffs, rank: int = 1) -> "UtilitySpec":
        return cls(kind="max_linear", terms=(MaxLinearTerm(coeffs, rank=rank),))

    @classmethod
    def mixture(cls, terms: Iterable[MaxLinearTerm]) -> "UtilitySpec":
        return cls(kind="max_linear", terms=tuple(terms))

    @classmethod
    def piecewise_constant(cls, pieces) -> "UtilitySpec":
        return cls(kind="piecewise_constant", pieces=tuple(pieces))

    @classmethod
    def auction_welfare(cls, auction) -> "UtilitySpec":
        return cls(kind="auction_welfare", auction=auction)

    @classmethod
    def auction_revenue(cls, auction) -> "UtilitySpec":
        return cls(kind="auction_revenue", auction=auction)

    # -- structure ----------------------------------------------------------
    @property
    def k(self) -> int | None:
        if self.kind == "max_linear":
            return self.terms[0].k
        if self.kind == "piecewise_constant":
            return self.pieces[0][0].shape[1]
        if self.auction is not None:
            return 2 ** self.auction.n
        return None

    def check_dimension(self, k: int):
        mine = self.k
        if mine is not None and mine != k:
            raise DimensionMismatch(f"utility dimension {mine} != k={k}")

    def lipschitz_l1(self) -> float:
        """Certified l1 Lipschitz constant (max_linear only)."""
        if self.kind != "max_linear":
            raise UnsupportedKindError(
                f"no Lipschitz constant for utility kind {self.kind!r}")
        return float(check_finite("utility Lipschitz constant",
                                  sum(t.lipschitz_l1() for t in self.terms)))

    @cached_property
    def term_groups(self) -> tuple[_TermGroup, ...]:
        """The max-linear terms stacked by shape and rank for box_gradient.
        Built at the first call: only the lazy grid LP bounds boxes, and a
        utility that never reaches it keeps no copy of its coefficients."""
        groups = {}
        for t in self.terms:
            groups.setdefault((t.coeffs.shape[0], t.rank), []).append(t)
        return tuple(_TermGroup(g) for g in groups.values())

    def box_gradient(self, center: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray,
                     radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), each (B, k), max_linear only: per box, a coordinate
        range that holds a g with u(x) - u(center) <= g . (x - center) at
        every point x of the box {q in the simplex : q_lo <= q <= q_hi,
        ||q - center||_1 <= radius}; the sum of one such range per term.

        A min (rank n_functionals) is concave, so its term takes its
        supergradient at the center: the coefficients of a functional
        smallest there.  Any other rank finds the functionals that can hold
        that rank somewhere in the box (_rank_candidates), each bounded over
        the box by the coordinate ranges (shifted by its smallest
        coefficient, since q sums to 1) and by its value at the center plus
        half its spread times the radius; along any segment in the box the
        term's slope is one of theirs.  A term with one candidate takes its
        coefficients, any other the range of all its functionals (for two
        functionals, the candidates' range).  Terms of one shape and rank
        are taken together, stacked once per utility (term_groups).
        """
        B, k = center.shape
        lo, hi = np.zeros((B, k)), np.zeros((B, k))
        for g in self.term_groups:
            vals = (center @ g.flat).reshape(B, g.rows.size, g.n_f)
            if g.rank == g.n_f:
                grad = (g.coeffs[g.rows, np.argmin(vals, axis=2)] * g.weights).sum(axis=1)
                lo += grad
                hi += grad
                continue
            shape = vals.shape
            reach = radius[:, None, None] * g.half_spread
            upper = np.minimum(g.base + (q_hi @ g.shifted).reshape(shape), vals + reach)
            lower = np.maximum(g.base + (q_lo @ g.shifted).reshape(shape), vals - reach)
            held = _rank_candidates(lower, upper, g.rank, g.tol)
            one = reduce_last_axis(np.add, held.astype(np.intp)) == 1
            only = (held & one[:, :, None]).reshape(B, -1)
            lo += g.lo + only @ g.lo_step
            hi += g.hi + only @ g.hi_step
        return lo, hi


def _rank_max(values: np.ndarray, rank: int) -> np.ndarray:
    """rank-th largest along the last axis (rank=1 is the max)."""
    n_f = values.shape[-1]
    if n_f == 1:
        return values[..., 0]
    if rank in (1, n_f):
        # No partition needed; numpy partitions along a short axis slowly.
        return reduce_last_axis(np.maximum if rank == 1 else np.minimum, values)
    return np.partition(values, -rank, axis=-1)[..., -rank]


# Below this (m-1)-volume, m <= 3 vertices count as affinely dependent.
DEGENERATE_VOLUME = 1e-14
# Below this ratio of the smallest to the largest singular value of the edge
# matrix, m >= 4 vertices count as affinely dependent.
DEGENERATE_RCOND = 1e-12


def cell_volume(verts: np.ndarray) -> float | np.ndarray:
    """(m-1)-dimensional volume of the simplex spanned by m points in R^k,
    batched over any leading axes of ``verts``."""
    verts = np.atleast_2d(np.asarray(verts, dtype=float))
    E = verts[..., 1:, :] - verts[..., :1, :]
    det = np.linalg.det(E @ np.swapaxes(E, -1, -2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(E.shape[-2])


def _affinely_independent(verts: np.ndarray) -> bool:
    """Whether the m rows of ``verts`` are affinely independent.

    A point, a segment or a triangle is independent when its volume exceeds
    DEGENERATE_VOLUME.  A volume threshold does not carry to higher
    dimensions: the standard simplex in R^k has volume sqrt(k)/(k-1)!, which
    is below 1e-14 from k = 19.  From four vertices on, the edge matrix must
    have full rank instead, a test free of scale and of dimension.
    """
    if len(verts) <= 3:
        return bool(cell_volume(verts) > DEGENERATE_VOLUME)
    s = np.linalg.svd(verts[1:] - verts[:1], compute_uv=False)
    return bool(s[-1] > DEGENERATE_RCOND * s[0])


def triangulate_piece(verts: np.ndarray) -> np.ndarray:
    """(s, m, k) simplices whose union is the closed convex piece ``verts``.

    A point or up to k affinely independent vertices are one simplex; for
    k = 2 a longer list is the segment between its extremes, for k = 3 a
    convex polygon is fan-triangulated (degenerate triangles dropped).
    Anything else raises UnsupportedKindError.
    """
    m, k = verts.shape
    if m <= k and _affinely_independent(verts):
        return verts[None]
    if k == 2:
        # 1-D hull: the extreme points in the first coordinate.
        ext = verts[[np.argmin(verts[:, 0]), np.argmax(verts[:, 0])]]
        return (ext if cell_volume(ext) > DEGENERATE_VOLUME else ext[:1])[None]
    if k == 3 and m >= 3:
        center = verts.mean(axis=0)
        ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
        ring = verts[np.argsort(ang)]
        # Counter-clockwise in the (q0, q1) chart: no right turn if convex.
        e = np.diff(ring[:, :2], axis=0, append=ring[:1, :2])
        f = np.vstack([e[1:], e[:1]])
        turns = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
        i = np.arange(1, m - 1)
        tris = ring[np.column_stack([np.zeros_like(i), i, i + 1])]
        tris = tris[cell_volume(tris) > DEGENERATE_VOLUME]
        if len(tris) and turns.min() >= -DEGENERATE_VOLUME:
            return tris
        raise UnsupportedKindError("piece polygon is collinear or not convex")
    raise UnsupportedKindError(
        f"piece with {m} vertices in k={k} states is neither a simplex "
        "(affinely independent vertices) nor a k <= 3 polygon")


def simplices_contain(simplices: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(s, n) mask: whether row j of Q lies in the closed simplex i.

    ``simplices`` is an (s, m, k) stack of affinely independent vertex sets.
    Full-dimensional ones (m = k) solve V^T beta = q; lower-dimensional ones
    (points, segments) take the least-squares beta of [V^T; 1] beta = [q; 1].
    q is inside when every beta_i >= -MEMBERSHIP_TOL and V^T beta is within
    MEMBERSHIP_TOL of q in l-infinity.  This is the one point-in-simplex
    test of the package.
    """
    S = np.asarray(simplices, dtype=float)
    Qt = np.atleast_2d(np.asarray(Q, dtype=float)).T
    VT = np.swapaxes(S, 1, 2)
    if S.shape[1] == S.shape[2]:
        beta = np.linalg.solve(VT, Qt[None])
    else:
        ones = np.ones((S.shape[0], 1, S.shape[1]))
        rhs = np.vstack([Qt, np.ones((1, Qt.shape[1]))])
        beta = np.linalg.pinv(np.concatenate([VT, ones], axis=1)) @ rhs
    return ((beta.min(axis=1) >= -MEMBERSHIP_TOL)
            & (np.abs(VT @ beta - Qt).max(axis=1) <= MEMBERSHIP_TOL))


def polytope_contains(simplices: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Whether each row of Q lies in the closed piece triangulated by
    ``simplices`` (one entry of ``UtilitySpec.simplices``)."""
    return simplices_contain(simplices, Q).any(axis=0)


def eval_utility_batch(spec: UtilitySpec, Q: np.ndarray) -> np.ndarray:
    """Vectorized utility over rows of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    spec.check_dimension(Q.shape[1])
    if spec.kind == "max_linear":
        out = np.zeros(Q.shape[0])
        for term in spec.terms:
            vals = Q @ term.coeffs.T
            out += term.weight * _rank_max(vals, term.rank)
        return out
    if spec.kind == "piecewise_constant":
        out = np.full(Q.shape[0], -np.inf)
        for simplices, (_, value) in zip(spec.simplices, spec.pieces):
            inside = polytope_contains(simplices, Q)
            out[inside] = np.maximum(out[inside], value)
        if np.any(np.isneginf(out)):
            bad = Q[np.isneginf(out)][0]
            raise ValidationError(
                f"posterior {bad} not covered by any piece closure")
        return out
    if spec.kind in ("auction_welfare", "auction_revenue"):
        from . import auction as _auction
        return _auction.auction_utility_batch(spec.auction, Q,
                                              objective=spec.kind.removeprefix("auction_"))
    raise UnsupportedKindError(spec.kind)  # pragma: no cover


# ---------------------------------------------------------------------------
# Problem instances and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """State count, prior, Sender utility, and the constraint list."""

    k: int
    prior: Posterior
    utility: UtilitySpec
    constraints: tuple[ConstraintSpec, ...] = ()

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("need at least two states of nature")
        if self.prior.k != self.k:
            raise DimensionMismatch(f"prior has dimension {self.prior.k}, k={self.k}")
        self.utility.check_dimension(self.k)
        constraints = tuple(self.constraints)
        for spec in constraints:
            spec.check_dimension(self.k)
        object.__setattr__(self, "constraints", constraints)

    def ex_ante(self) -> tuple[ConstraintSpec, ...]:
        return tuple(c for c in self.constraints if c.mode == EX_ANTE)

    def ex_post(self) -> tuple[ConstraintSpec, ...]:
        return tuple(c for c in self.constraints if c.mode == EX_POST)

    def with_modes(self, mode: str) -> "ProblemInstance":
        return ProblemInstance(self.k, self.prior, self.utility,
                               tuple(c.with_mode(mode) for c in self.constraints))


@dataclass(frozen=True)
class ConstraintReport:
    kind: str
    mode: str
    value: float
    bound: float
    violation: float


@dataclass(frozen=True)
class VerifyReport:
    plausibility_deviation: float
    constraints: tuple[ConstraintReport, ...]
    utility: float
    valid: bool
    tol: float

    def as_dict(self) -> dict:
        return {**asdict(self),
                "constraints": [asdict(c) for c in self.constraints]}


def verify_scheme(instance: ProblemInstance, scheme: SignalingScheme,
                  tol: float = SUM_TOL) -> VerifyReport:
    """Check a scheme against an instance.

    Ex-ante constraints are scored by the expectation of f over the scheme,
    ex-post constraints by the max of f over the support; violation is
    max(0, value - bound).  Valid means every violation and the Bayes
    plausibility deviation are within tol, which must be finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    if scheme.k != instance.k:
        raise DimensionMismatch(f"scheme k={scheme.k} vs instance k={instance.k}")
    pts = scheme.support
    return score_scheme(instance, pts, scheme.probs,
                        [eval_constraint_batch(spec, pts, instance.prior)
                         for spec in instance.constraints],
                        eval_utility_batch(instance.utility, pts), tol)


def score_scheme(instance: ProblemInstance, support: np.ndarray, probs: np.ndarray,
                 constraint_values, utility_values: np.ndarray,
                 tol: float = SUM_TOL) -> VerifyReport:
    """verify_scheme's report for the mass vector ``probs`` on the (s, k)
    ``support`` array, from the values of each constraint and of the utility
    at the support rows, so masses on one support are scored on one
    evaluation of those values."""
    deviation = _bayes_deviation(support, probs, instance.prior)
    reports = []
    for spec, vals in zip(instance.constraints, constraint_values):
        value = float(probs @ vals) if spec.mode == EX_ANTE else float(vals.max())
        reports.append(ConstraintReport(kind=spec.kind, mode=spec.mode,
                                        value=value, bound=spec.bound,
                                        violation=max(0.0, value - spec.bound)))
    utility = float(probs @ utility_values)
    valid = deviation <= tol and all(r.violation <= tol for r in reports)
    return VerifyReport(plausibility_deviation=deviation,
                        constraints=tuple(reports), utility=utility,
                        valid=valid, tol=tol)
