"""Domain types for constrained signaling problems.

A problem is a prior over k states of nature, a Sender utility defined on
posteriors, and a list of constraint functions with bounds, each enforced
either in expectation over the scheme (ex ante) or pointwise on every support
posterior (ex post).  A signaling scheme is represented by the distribution
over posteriors it induces; the barycenter of that distribution must equal
the prior (Bayes plausibility).

Piecewise-constant utilities are triangulated once, when the UtilitySpec is
built (triangulate_piece), and every point-in-simplex question -- piece
membership, grid-cell location in geometry, the gridded piecewise utility in
objectives -- goes through one batched barycentric kernel, simplices_contain.

All types are immutable after construction and all operations are pure
functions, so shared instances are safe under concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
MERGE_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9

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


def check_finite(name: str, a):
    """``a`` (a float or an array) unchanged; ValidationError naming
    ``name`` if any entry is NaN or infinite."""
    if not (math.isfinite(a) if isinstance(a, float) else np.isfinite(a).all()):
        raise ValidationError(f"{name} must be finite")
    return a


# ---------------------------------------------------------------------------
# Posteriors and schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Posterior:
    """A point of the probability simplex over the k states of nature.

    Entries in [-1e-12, 0) are clamped to zero and the vector renormalized,
    so solver output noise cannot produce invalid probabilities.  Entries
    below -1e-12 or a total mass off by more than 1e-9 are rejected.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size < 1:
            raise ValidationError("posterior needs at least one entry")
        check_finite("posterior entries", w)
        if np.any(w < -ENTRY_TOL):
            raise ValidationError(
                f"posterior entry {w.min():.3e} below -{ENTRY_TOL:g}")
        total = float(w.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(
                f"posterior entries sum to {total!r}, expected 1 within {SUM_TOL:g}")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        object.__setattr__(self, "weights", _as_readonly(w))

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

    Support points closer than 1e-12 in l-infinity are merged with their
    probabilities summed, so grid/pooling output never carries near
    duplicates.
    """

    support: tuple[Posterior, ...]
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if len(support) != probs.shape[0]:
            raise ValidationError("support and probs lengths differ")
        if len(support) == 0:
            raise ValidationError("scheme needs at least one support point")
        k = support[0].k
        if any(p.k != k for p in support):
            raise DimensionMismatch("support posteriors have mixed dimensions")
        if np.any(probs < -ENTRY_TOL):
            raise ValidationError("scheme probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(
                f"scheme probabilities sum to {total!r}, expected 1 within {SUM_TOL:g}")
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        merged_pts: list[Posterior] = []
        merged_probs: list[float] = []
        for pt, pr in zip(support, probs):
            for i, existing in enumerate(merged_pts):
                if np.max(np.abs(existing.weights - pt.weights)) <= MERGE_TOL:
                    merged_probs[i] += pr
                    break
            else:
                merged_pts.append(pt)
                merged_probs.append(float(pr))
        object.__setattr__(self, "support", tuple(merged_pts))
        object.__setattr__(self, "probs", _as_readonly(np.array(merged_probs)))

    @classmethod
    def from_points(cls, points: np.ndarray | Sequence[Sequence[float]],
                    probs: Sequence[float]) -> "SignalingScheme":
        pts = np.asarray(points, dtype=float)
        return cls(tuple(Posterior(row) for row in pts), np.asarray(probs, dtype=float))

    @property
    def k(self) -> int:
        return self.support[0].k

    @property
    def size(self) -> int:
        return len(self.support)

    def support_matrix(self) -> np.ndarray:
        return np.vstack([p.weights for p in self.support])

    def barycenter(self) -> np.ndarray:
        return self.probs @ self.support_matrix()

    def prune(self, threshold: float = 1e-12) -> "SignalingScheme":
        keep = self.probs > threshold
        if np.all(keep):
            return self
        return SignalingScheme(tuple(p for p, k_ in zip(self.support, keep) if k_),
                               self.probs[keep])


def full_revelation(prior: Posterior) -> SignalingScheme:
    """Point masses on the unit vectors, weighted by the prior."""
    k = prior.k
    keep = prior.weights > 0
    pts = np.eye(k)[keep]
    return SignalingScheme.from_points(pts, prior.weights[keep])


def no_revelation(prior: Posterior) -> SignalingScheme:
    return SignalingScheme((prior,), np.array([1.0]))


def check_bayes_plausible(scheme: SignalingScheme, prior: Posterior,
                          tol: float = SUM_TOL) -> tuple[bool, float]:
    """True iff the scheme barycenter matches the prior in l-infinity <= tol.

    Returns (plausible, deviation).
    """
    if scheme.k != prior.k:
        raise DimensionMismatch(f"scheme k={scheme.k} vs prior k={prior.k}")
    deviation = float(np.max(np.abs(scheme.barycenter() - prior.weights)))
    return deviation <= tol, deviation


def scheme_expectation(scheme: SignalingScheme,
                       fn: Callable[[Posterior], float]) -> float:
    """Expectation of fn over the scheme's posterior distribution."""
    return float(sum(pr * fn(pt) for pt, pr in zip(scheme.support, scheme.probs)))


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

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")
        if self.mode not in (EX_ANTE, EX_POST):
            raise ValidationError(f"unknown constraint mode {self.mode!r}")
        object.__setattr__(self, "bound", check_finite("constraint bound", float(self.bound)))
        if self.kind == "linear":
            if self.coeffs is None:
                raise ValidationError("linear constraint needs coeffs")
            object.__setattr__(self, "coeffs",
                               check_finite("linear coeffs", _as_readonly(self.coeffs)))
        elif self.kind == "norm_distance":
            if self.order not in (1, 2, float("inf")):
                raise ValidationError("norm_distance order must be 1, 2 or inf")
        elif self.kind == "grouped_kl":
            if self.partition is None or self.scale is None or self.refs is None:
                raise ValidationError("grouped_kl needs partition, scale and refs")
            cells = tuple(tuple(int(i) for i in cell) for cell in self.partition)
            refs = check_finite("grouped_kl refs", np.asarray(self.refs, dtype=float))
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
            object.__setattr__(self, "refs", _as_readonly(refs))
        elif self.kind == "neg_min_weighted":
            if self.weights is None:
                raise ValidationError("neg_min_weighted needs weights")
            w = check_finite("neg_min_weighted weights", np.asarray(self.weights, dtype=float))
            if np.any(w <= 0):
                raise ValidationError("neg_min_weighted weights must be positive")
            object.__setattr__(self, "weights", _as_readonly(w))
        elif self.kind == "bump":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise ValidationError("bump needs a center and positive radius")
            check_finite("bump radius", float(self.radius))
            object.__setattr__(self, "center",
                               check_finite("bump center", _as_readonly(self.center)))

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
        if self.kind == "grouped_kl":
            flat = sorted(i for cell in self.partition for i in cell)
            if flat != list(range(k)):
                raise DimensionMismatch("grouped_kl partition must cover all states")
        if self.kind == "neg_min_weighted" and self.weights.shape[0] != k:
            raise DimensionMismatch("neg_min_weighted weights length != k")
        if self.kind == "bump" and self.center.shape[0] != k:
            raise DimensionMismatch("bump center length != k")

    def with_bound(self, bound: float) -> "ConstraintSpec":
        return replace(self, bound=bound)

    def with_mode(self, mode: str) -> "ConstraintSpec":
        return replace(self, mode=mode)


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
            return np.abs(diff).sum(axis=1)
        if spec.order == 2:
            return np.sqrt((diff * diff).sum(axis=1))
        return np.abs(diff).max(axis=1)
    if spec.kind == "entropy":
        return _xlogx(Q).sum(axis=1)
    if spec.kind == "grouped_kl":
        indicator = np.zeros((len(spec.partition), Q.shape[1]))
        for j, cell in enumerate(spec.partition):
            indicator[j, list(cell)] = 1.0
        S = Q @ indicator.T
        return spec.scale * (_xlogx(S).sum(axis=1) - S @ np.log(spec.refs))
    if spec.kind == "neg_min_weighted":
        return -(Q * spec.weights).min(axis=1)
    if spec.kind == "bump":
        dist = np.abs(Q - spec.center).sum(axis=1)
        return np.maximum(0.0, 1.0 - dist / spec.radius)
    raise UnsupportedKindError(spec.kind)  # pragma: no cover


def eval_constraint(spec: ConstraintSpec, q: Posterior,
                    prior: Posterior) -> float:
    """f(q) for a single posterior; see ConstraintSpec for the formulas."""
    return float(eval_constraint_batch(spec, q.weights[None, :], prior)[0])


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
        """Coefficient spread, an l1 Lipschitz bound for the rank-th max."""
        with np.errstate(over="ignore"):  # inf, rejected by UtilitySpec.lipschitz_l1
            spread = self.coeffs.max(axis=1) - self.coeffs.min(axis=1)
        return self.weight * float(spread.max())


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
            vertex_vals = eval_utility_batch(self, np.eye(k), _validated=True)
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


def _rank_max(values: np.ndarray, rank: int) -> np.ndarray:
    """rank-th largest along the last axis (rank=1 is the max)."""
    n_f = values.shape[-1]
    if n_f == 1:
        return values[..., 0]
    if rank in (1, n_f):
        # Running max/min over the few columns: numpy reduces a short last
        # axis, and partitions along it, far more slowly.
        return functools.reduce(np.maximum if rank == 1 else np.minimum,
                                values.T).T
    return np.partition(values, -rank, axis=-1)[..., -rank]


# Below this (m-1)-volume, m vertices count as affinely dependent.
DEGENERATE_VOLUME = 1e-14


def cell_volume(verts: np.ndarray) -> float | np.ndarray:
    """(m-1)-dimensional volume of the simplex spanned by m points in R^k,
    batched over any leading axes of ``verts``."""
    verts = np.atleast_2d(np.asarray(verts, dtype=float))
    E = verts[..., 1:, :] - verts[..., :1, :]
    det = np.linalg.det(E @ np.swapaxes(E, -1, -2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(E.shape[-2])


def triangulate_piece(verts: np.ndarray) -> np.ndarray:
    """(s, m, k) simplices whose union is the closed convex piece ``verts``.

    A point or up to k affinely independent vertices are one simplex; for
    k = 2 a longer list is the segment between its extremes, for k = 3 a
    convex polygon is fan-triangulated (degenerate triangles dropped).
    Anything else raises UnsupportedKindError.
    """
    m, k = verts.shape
    if m <= k and cell_volume(verts) > DEGENERATE_VOLUME:
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


def simplices_contain(simplices: np.ndarray, Q: np.ndarray,
                      tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """(s, n) mask: whether row j of Q lies in the closed simplex i.

    ``simplices`` is an (s, m, k) stack of affinely independent vertex sets.
    Full-dimensional ones (m = k) solve V^T beta = q; lower-dimensional ones
    (points, segments) take the least-squares beta of [V^T; 1] beta = [q; 1].
    q is inside when every beta_i >= -tol and V^T beta is within tol of q in
    l-infinity.  This is the one point-in-simplex test of the package.
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
    return (beta.min(axis=1) >= -tol) & (np.abs(VT @ beta - Qt).max(axis=1) <= tol)


def polytope_contains(simplices: np.ndarray, Q: np.ndarray,
                      tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Whether each row of Q lies in the closed piece triangulated by
    ``simplices`` (one entry of ``UtilitySpec.simplices``)."""
    return simplices_contain(simplices, Q, tol).any(axis=0)


def eval_utility_batch(spec: UtilitySpec, Q: np.ndarray,
                       _validated: bool = False) -> np.ndarray:
    """Vectorized utility over rows of Q."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if not _validated:
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


def eval_utility(spec: UtilitySpec, q: Posterior) -> float:
    """Utility at one posterior (upper envelope on piece boundaries)."""
    return float(eval_utility_batch(spec, q.weights[None, :])[0])


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
        return {
            "plausibility_deviation": self.plausibility_deviation,
            "constraints": [asdict(c) for c in self.constraints],
            "utility": self.utility,
            "valid": self.valid,
            "tol": self.tol,
        }


def verify_scheme(instance: ProblemInstance, scheme: SignalingScheme,
                  tol: float = SUM_TOL) -> VerifyReport:
    """Check a scheme against an instance.

    Ex-ante constraints are scored by the expectation of f over the scheme,
    ex-post constraints by the max of f over the support; violation is
    max(0, value - bound).  Valid means every violation and the Bayes
    plausibility deviation are within tol.
    """
    if scheme.k != instance.k:
        raise DimensionMismatch(f"scheme k={scheme.k} vs instance k={instance.k}")
    _, deviation = check_bayes_plausible(scheme, instance.prior)
    pts = scheme.support_matrix()
    reports = []
    for spec in instance.constraints:
        vals = eval_constraint_batch(spec, pts, instance.prior)
        value = float(scheme.probs @ vals) if spec.mode == EX_ANTE else float(vals.max())
        reports.append(ConstraintReport(kind=spec.kind, mode=spec.mode,
                                        value=value, bound=spec.bound,
                                        violation=max(0.0, value - spec.bound)))
    utility = float(scheme.probs @ eval_utility_batch(instance.utility, pts))
    valid = deviation <= tol and all(r.violation <= tol for r in reports)
    return VerifyReport(plausibility_deviation=deviation,
                        constraints=tuple(reports), utility=utility,
                        valid=valid, tol=tol)
