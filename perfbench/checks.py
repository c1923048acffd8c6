"""Untimed correctness checks on each op's output.

Constraint and utility values are recomputed here from the instance data,
not through the package's evaluators, so a fault in those evaluators cannot
hide itself.  Each check returns a list of failure messages; an empty list
means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from instances import PLANE

TOL = 1e-9


def constraint_values(spec, Q: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """f(q) for every row of Q, for the convex kinds the workloads use."""
    if spec.kind == "linear":
        return Q @ np.asarray(spec.coeffs)
    if spec.kind == "norm_distance":
        return np.linalg.norm(Q - prior, ord=spec.order, axis=1)
    if spec.kind == "grouped_kl":
        S = np.column_stack([Q[:, list(cell)].sum(axis=1) for cell in spec.partition])
        with np.errstate(divide="ignore", invalid="ignore"):
            xlogx = np.where(S > 0, S * np.log(S), 0.0)
        return spec.scale * (xlogx.sum(axis=1) - S @ np.log(np.asarray(spec.refs)))
    raise ValueError(f"no reference evaluator for constraint kind {spec.kind!r}")


def _auction_values(spec, objective: str, Q: np.ndarray) -> np.ndarray:
    """Expected welfare (highest bid) or revenue (second-highest bid) over
    every type profile; bidder i bids its value mixed by P[bit i = 1]."""
    k = Q.shape[1]
    bits = (np.arange(k)[:, None] >> np.arange(spec.n)[None, :]) & 1
    marg = Q @ bits
    out = np.zeros(Q.shape[0])
    for profile in np.ndindex(*(len(types) for types in spec.bidders)):
        types = [spec.bidders[i][t] for i, t in enumerate(profile)]
        weight = math.prod(t.weight for t in types)
        bids = np.column_stack([(1.0 - marg[:, i]) * t.low_value + marg[:, i] * t.high_value
                                for i, t in enumerate(types)])
        bids.sort(axis=1)
        out += weight * (bids[:, -1] if objective == "welfare" else bids[:, -2])
    return out


def _in_polygon(verts: np.ndarray, q: np.ndarray) -> bool:
    """Whether the k=3 point q lies in the closed convex hull of verts."""
    pts = verts @ PLANE.T
    x = PLANE @ q
    c = pts.mean(axis=0)
    ring = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]
    for a, b in zip(ring, np.roll(ring, -1, axis=0)):
        edge = b - a
        length = math.hypot(*edge)
        if length > 0 and (edge[0] * (x[1] - a[1]) - edge[1] * (x[0] - a[0])) / length < -TOL:
            return False
    return True


def utility_values(utility, Q: np.ndarray) -> np.ndarray:
    """Sender utility at every row of Q (upper envelope on piece borders)."""
    if utility.kind == "max_linear":
        out = np.zeros(Q.shape[0])
        for term in utility.terms:
            vals = np.sort(Q @ np.asarray(term.coeffs).T, axis=1)
            out += term.weight * vals[:, -term.rank]
        return out
    if utility.kind in ("auction_welfare", "auction_revenue"):
        return _auction_values(utility.auction, utility.kind.removeprefix("auction_"), Q)
    if utility.kind == "piecewise_constant":
        return np.array([max(v for verts, v in utility.pieces if _in_polygon(verts, q))
                         for q in Q])
    raise ValueError(f"no reference evaluator for utility kind {utility.kind!r}")


def scheme_value(instance, scheme) -> float:
    return float(scheme.probs @ utility_values(instance.utility, scheme.support_matrix()))


def _plausibility(instance, scheme) -> list[str]:
    dev = float(np.max(np.abs(scheme.probs @ scheme.support_matrix()
                              - instance.prior.weights)))
    return [] if dev <= TOL else [f"Bayes deviation {dev:.3g}"]


def check_solve(instance, report, violation_tol: float) -> list[str]:
    """A SolveReport: Bayes plausibility, ex-ante violations within
    ``violation_tol``, the k+m support bound, the reported value, and
    value >= lp_value - eps."""
    scheme = report.scheme
    Q, w = scheme.support_matrix(), scheme.probs
    p = instance.prior.weights
    errors = _plausibility(instance, scheme)
    ex_ante = instance.ex_ante()
    for j, spec in enumerate(ex_ante):
        excess = float(w @ constraint_values(spec, Q, p)) - spec.bound
        if excess > violation_tol + TOL:
            errors.append(f"ex-ante constraint {j} violated by {excess:.3g}")
    if scheme.size > instance.k + len(ex_ante):
        errors.append(f"support {scheme.size} > k+m = {instance.k + len(ex_ante)}")
    value = scheme_value(instance, scheme)
    if abs(value - report.value) > TOL * max(1.0, abs(value)):
        errors.append(f"reported value {report.value!r} != recomputed {value!r}")
    if value < report.lp_value - report.eps - TOL:
        errors.append(f"value {value:.6g} < lp_value - eps = "
                      f"{report.lp_value - report.eps:.6g}")
    return errors


def check_pooled(instance, scheme_in, scheme_out, factor_two: bool) -> list[str]:
    """Pooling output: ex-post feasible at TOL and, when the relaxed-Jensen
    factor 2 is certified, worth at least 2^-m of the input scheme."""
    Q = scheme_out.support_matrix()
    errors = _plausibility(instance, scheme_out)
    for j, spec in enumerate(instance.ex_ante()):
        worst = float(constraint_values(spec, Q, instance.prior.weights).max())
        if worst > spec.bound + TOL:
            errors.append(f"pooled support violates constraint {j} ex post by "
                          f"{worst - spec.bound:.3g}")
    if factor_two:
        v_in = scheme_value(instance, scheme_in)
        v_out = scheme_value(instance, scheme_out)
        m = len(instance.ex_ante())
        if v_out < v_in / 2 ** m - TOL:
            errors.append(f"pooled value {v_out:.6g} < 2^-{m} x {v_in:.6g}")
    return errors
