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
so g takes half the spread of grad f over S_c.

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
                   ValidationError, check_finite, eval_constraint_batch)


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

    def eval(self, q, prior) -> float:
        w = np.asarray(getattr(q, "weights", q), dtype=float)
        return float(self.eval_batch(w[None, :], prior)[0])


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
    if spec.kind == "entropy":
        if k is None:
            raise ValidationError("entropy smoothing needs the state count k")
        return _smooth_kl(spec, eps, scale_abs=1.0, cell_sizes=np.ones(k),
                          refs=np.ones(k))
    if spec.kind == "grouped_kl":
        scale_abs = abs(float(spec.scale))
        if scale_abs == 0.0:
            return SmoothedConstraint(spec, eps, lipschitz_constant=0.0,
                                      contraction=None, offset=0.0)
        return _smooth_kl(spec, eps, scale_abs=scale_abs,
                          cell_sizes=np.array([len(c) for c in spec.partition],
                                              dtype=float),
                          refs=np.asarray(spec.refs, dtype=float))
    raise UnsupportedKindError(
        f"constraint kind {spec.kind!r} has no smoothing (not in the "
        "Lipschitz/entropy/KL family)")


def _smooth_kl(spec: ConstraintSpec, eps: float, *, scale_abs: float,
               cell_sizes: np.ndarray, refs: np.ndarray) -> SmoothedConstraint:
    """KL-family smoothing; entropy is the case of singleton cells, unit refs."""
    k, n_cells = int(cell_sizes.sum()), len(cell_sizes)
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
    # df/dq_w = b (ln(S_j / b_j) + 1) with S_j confined to [|cell_j| lo, 1]
    # on the contracted simplex; half the spread of that range over all
    # cells is the sum-zero constant, and the +1 cancels in the spread.
    spread = float(np.log(1.0 / refs).max() - np.log(cell_sizes * lo / refs).min())
    return SmoothedConstraint(spec, eps, lipschitz_constant=scale_abs * spread / 2.0,
                              contraction=eps_c, offset=eps / 2.0)
