"""Lipschitz smoothing of constraint functions.

Every l1 Lipschitz constant compares two simplex points, whose difference
d sums to zero, so |a . d| <= (max a - min a) ||d||_1 / 2 for any vector a.
By this sum-zero rule a linear constraint (and core.MaxLinearTerm) takes
half its coefficient spread, -min_w b_w q[w] takes max(b)/2, and
||q - prior||_p takes ||(1/2, -1/2)||_p = 2^(1/p - 1); these kinds pass
through unchanged.  Entropy and grouped-KL constraints blow up near the
simplex boundary, so they are replaced by

    g(q) = f(proj(q)) - eps/2,

where proj is the Euclidean projection onto the contracted simplex S_c at a
contraction parameter c chosen by halving search: the largest value in
{eps, eps/2, eps/4, ...} whose certified drift bound stays within eps/2.
The drift bound uses the exact l1 displacement of the projection (at most
2 c^2) and the modulus of continuity of x ln x, so the sandwich
0 <= f - g <= eps holds at every point, not just asymptotically.  The
projection maps a sum-zero d to d_A - mean(d_A) 1_A on its active set A,
again sum-zero and of l1 norm <= ||d_A||_1 + |sum of d off A| <= ||d||_1,
so g takes half the spread of grad f over S_c.  For the KL family that
spread is taken between two distinct cells (a one-cell f is constant), from
the range of each cell's mass (_kl_gradient_spread).  On a box of the
simplex that lies inside S_c, where g = f - eps/2, the lazy grid LP reads
the gradient of g itself over the box (SmoothedConstraint.box_gradient).

Entropy reduces to grouped KL with singleton cells and unit references; a
negative scale b reduces literally via "if g fits f then -eps-g fits -f",
which collapses to the same projection formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .core import (ConstraintSpec, PersuasionError, UnsupportedKindError,
                   ValidationError, check_finite, eval_constraint_batch,
                   reduce_last_axis)


class SmoothingPrecisionError(PersuasionError):
    """The halving search for the contraction parameter underflowed."""


def _xlogx_modulus(t: float) -> float:
    """Upper bound on |x ln x - y ln y| for x, y in [0,1] with |x-y| <= t."""
    if t <= 0:
        return 0.0
    t = min(t, 1.0)
    return t * (1.0 - math.log(t))


def _drift_bound(eps_c: float, n_cells: int, scale_abs: float,
                 max_abs_log_ref: float) -> float:
    """Certified bound on |f(q) - f(proj(q))| over the simplex.

    The projection onto S_c moves q by at most t = 2 c^2 in l1; cell masses
    move by amounts summing to at most t, and the x ln x modulus is concave,
    so the worst split is even across cells.
    """
    t = min(2.0 * eps_c * eps_c, 2.0)
    if t <= 0:
        return 0.0
    per_cell = t / n_cells
    return scale_abs * (n_cells * _xlogx_modulus(per_cell) + t * max_abs_log_ref)


@dataclass(frozen=True, eq=False)
class SmoothedConstraint:
    """A function g with 0 <= f - g <= eps and a certified l1 Lipschitz
    constant; evaluation composes the source f with the projection."""

    source: ConstraintSpec
    eps: float
    lipschitz_constant: float
    contraction: float | None  # None for pass-through kinds
    offset: float              # subtracted after evaluation (eps/2 for KL kinds)

    def __post_init__(self):
        check_finite(f"{self.source.kind} constraint Lipschitz constant",
                     self.lipschitz_constant)

    def eval_batch(self, Q: np.ndarray, prior,
                   projections: dict | None = None) -> np.ndarray:
        """g on the rows of Q.  ``projections`` maps a contraction to the
        projection of this same Q onto it; passing one dict to several
        constraints projects Q once per distinct contraction."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        if self.contraction is None:
            vals = eval_constraint_batch(self.source, Q, prior)
        else:
            projections = {} if projections is None else projections
            if self.contraction not in projections:
                projections[self.contraction] = \
                    geometry.project_to_contraction_batch(Q, self.contraction)
            vals = eval_constraint_batch(self.source, projections[self.contraction],
                                         prior)
        return vals - self.offset

    def box_gradient(self, weight: float, prior):
        """The box gradient of h = weight * this g: a function of (center,
        q_lo, q_hi), each (B, k), returning (lo, hi), each broadcastable to
        (B, k): per box, a coordinate range that holds a g with
        h(x) - h(center) <= g . (x - center) for every point x of the box
        {q in the simplex : q_lo <= q <= q_hi}.  Which case below applies,
        and what it needs of the weight, is settled once per weight.

        Linear h is its own coefficients.  Concave h (weight <= 0 on an l1
        distance or a neg_min_weighted constraint, weight * scale <= 0 on a
        KL-family box inside the contracted simplex, where the smoothing is
        f - eps/2) takes its supergradient at the center; a convex KL box
        inside that simplex the range of its gradient over the box's cell
        masses.  Every other box takes the global constant L as [-L, L] in
        each coordinate, which the bound along the box's partial-sum axes
        (solver._box_reach) turns into 2L sum_i max(e_hi_i, -e_lo_i).
        """
        spec = self.source
        p = getattr(prior, "weights", prior)
        k = p.shape[0]
        if spec.kind == "linear":
            g = weight * spec.coeffs
            return lambda center, q_lo, q_hi: (g, g)
        if weight <= 0 and spec.kind == "norm_distance" and spec.order == 1:
            def supergradient(center, q_lo, q_hi):
                g = weight * np.sign(center - p)
                return g, g
            return supergradient
        if weight <= 0 and spec.kind == "neg_min_weighted":
            def supergradient(center, q_lo, q_hi):
                at = np.argmin(center * spec.weights, axis=1)
                g = np.zeros(center.shape)
                g[np.arange(center.shape[0]), at] = -weight * spec.weights[at]
                return g, g
            return supergradient
        L = abs(weight) * self.lipschitz_constant
        if self.contraction is None:
            lo, hi = np.full(k, -L), np.full(k, L)
            return lambda center, q_lo, q_hi: (lo, hi)
        # Entropy is the case of singleton cells and unit references.
        entropy = spec.kind == "entropy"
        signed = weight * (1.0 if entropy else float(spec.scale))
        member = np.eye(k) if entropy else spec.indicator.T  # (k, cells)
        refs = np.ones(k) if entropy else spec.refs
        floor = geometry.contraction_floor(k, self.contraction)

        # d f / d q_w = scale (ln(S_j / r_j) + 1) for w in cell j; the +1 is
        # the same in every coordinate, which adds nothing to g . (x - center)
        # since x - center sums to zero.
        def kl_range(center, q_lo, q_hi, rows):
            if signed <= 0:
                g = signed * np.log((center[rows] @ member) / refs) @ member.T
                return g, g
            return (signed * np.log((q_lo[rows] @ member) / refs) @ member.T,
                    signed * np.log(np.minimum(q_hi[rows] @ member, 1.0) / refs) @ member.T)

        def gradient(center, q_lo, q_hi):
            inside = np.flatnonzero(q_lo.min(axis=1) >= floor)
            if inside.size == center.shape[0]:
                return kl_range(center, q_lo, q_hi, slice(None))
            lo, hi = np.full(center.shape, -L), np.full(center.shape, L)
            if inside.size:
                lo[inside], hi[inside] = kl_range(center, q_lo, q_hi, inside)
            return lo, hi
        return gradient


def smooth_constraint(spec: ConstraintSpec, eps: float,
                      k: int | None = None) -> SmoothedConstraint:
    """Smooth one constraint at accuracy eps.

    k is required for the entropy kind (its dimension is not carried by the
    spec); grouped_kl reads the dimension off its partition.
    """
    if eps <= 0:
        raise ValidationError("smoothing eps must be positive")
    if spec.kind == "linear":
        with np.errstate(over="ignore"):  # inf, rejected by SmoothedConstraint
            spread = float(spec.coeffs.max() - spec.coeffs.min())
        return SmoothedConstraint(spec, eps, lipschitz_constant=spread / 2.0,
                                  contraction=None, offset=0.0)
    if spec.kind == "norm_distance":
        return SmoothedConstraint(spec, eps, lipschitz_constant=2 ** (1 / spec.order - 1),
                                  contraction=None, offset=0.0)
    if spec.kind == "neg_min_weighted":
        return SmoothedConstraint(spec, eps, lipschitz_constant=float(spec.weights.max()) / 2,
                                  contraction=None, offset=0.0)
    if spec.kind == "entropy" and k is None:
        raise ValidationError("entropy smoothing needs the state count k")
    if spec.kind == "grouped_kl" and float(spec.scale) == 0.0:
        return SmoothedConstraint(spec, eps, lipschitz_constant=0.0,
                                  contraction=None, offset=0.0)
    if spec.kind in ("entropy", "grouped_kl"):
        return _smooth_kl(spec, eps, k)
    raise UnsupportedKindError(
        f"constraint kind {spec.kind!r} has no smoothing (not in the "
        "Lipschitz/entropy/KL family)")


def _kl_cells(spec: ConstraintSpec, k: int | None):
    """(cells, cell references, |scale|) of a KL-family spec; entropy is the
    case of singleton cells and unit references."""
    if spec.kind == "entropy":
        return tuple((i,) for i in range(k)), np.ones(k), 1.0
    return spec.partition, spec.refs, abs(float(spec.scale))


def _kl_gradient_spread(s_max: np.ndarray, s_min: np.ndarray,
                        refs: np.ndarray) -> np.ndarray:
    """max over distinct cells a != c of ln(s_max[a] / r_a) - ln(s_min[c] / r_c),
    row by row, and 0 for one cell.

    df/dq_w = b (ln(S_j / r_j) + 1) for w in cell j, so states of one cell
    share a partial derivative, the +1 cancels, and where each S_j lies in
    [s_min[j], s_max[j]] this bounds the spread of grad f over |b|.
    """
    n = refs.shape[0]
    hi, lo = np.log(s_max / refs), np.log(s_min / refs)
    pairs = hi[:, :, None] - lo[:, None, :]
    pairs[:, np.eye(n, dtype=bool)] = -np.inf  # a == c
    return np.maximum(reduce_last_axis(np.maximum, pairs.reshape(-1, n * n)), 0.0)


def _smooth_kl(spec: ConstraintSpec, eps: float, k: int | None) -> SmoothedConstraint:
    """KL-family smoothing: the largest contraction within the drift budget
    and the sum-zero constant over the contracted simplex, where each cell's
    mass lies in [|cell| lo, 1]."""
    cells, refs, scale_abs = _kl_cells(spec, k)
    sizes = np.array([len(c) for c in cells], dtype=float)
    k, n_cells = int(sizes.sum()), len(cells)
    max_abs_log_ref = float(np.abs(np.log(refs)).max())
    eps_c = eps
    for _ in range(200):
        if _drift_bound(eps_c, n_cells, scale_abs, max_abs_log_ref) <= eps / 2.0:
            break
        eps_c *= 0.5
    else:
        raise SmoothingPrecisionError(
            f"smoothing at eps={eps:g} needs a contraction below "
            f"{eps * 0.5 ** 200:g}; increase eps")
    if eps_c * eps_c <= 1e-300:
        raise SmoothingPrecisionError(
            f"contraction parameter {eps_c:g} underflows at eps={eps:g}")
    lo = geometry.contraction_floor(k, eps_c)
    spread = _kl_gradient_spread(np.ones((1, n_cells)), sizes[None, :] * lo, refs)
    return SmoothedConstraint(spec, eps, lipschitz_constant=scale_abs * float(spread[0]) / 2.0,
                              contraction=eps_c, offset=eps / 2.0)
