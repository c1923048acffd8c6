"""Executable constructions of the gap and tightness instances.

Each fixture builds a ProblemInstance together with its closed-form
reference values (and reference scheme where one exists), and verify_fixture
re-derives those values by running the relevant solver or conversion and
comparing at tight tolerances.  They serve as regression anchors for the
whole pipeline.

Fixture ids:
  example1:<eps0>   two states, linear cap on p[1]; ex-ante optimum 1/2 vs
                    ex-post optimum 2 eps0 / (1 + 2 eps0)
  prop3:<k>,<m>     support-size tightness: the unique optimum has value 3/4
                    and support exactly k+m
  appE1:<m>         hypercube pooling: converting full revelation loses
                    exactly the factor 2^-m
  appE2:<M>         single constraint, gap exactly M between ex ante and
                    ex post
  appE3:<m>         k = m+1 states, gap exactly m+1
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, solver
from .core import (ConstraintSpec, MaxLinearTerm, Posterior, ProblemInstance,
                   ResourceLimitError, SignalingScheme, UtilitySpec, ValidationError,
                   eval_constraint_batch, eval_utility_batch, full_revelation,
                   no_revelation, score_scheme, uniform_prior, verify_scheme)

HYPERCUBE_MAX_M = 4


@dataclass(frozen=True)
class FixtureId:
    kind: str
    params: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.kind}:" + ",".join(f"{p:g}" for p in self.params)


# The parameters of each fixture kind, in order, with their types.
FIXTURE_PARAMS = {"example1": {"eps0": float}, "prop3": {"k": int, "m": int},
                  "appE1": {"m": int}, "appE2": {"M": float}, "appE3": {"m": int}}


def parse_fixture_id(text: str) -> FixtureId:
    """``kind:p1,...`` with the kind's parameters, each finite and k and m
    integral; ResourceLimitError past DEFAULT_VERTEX_CAP k x k entries."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in FIXTURE_PARAMS:
        raise ValidationError(f"unknown fixture id {text!r}")
    names = FIXTURE_PARAMS[kind]
    parts = rest.split(",") if rest.strip() else []
    if len(parts) != len(names):
        raise ValidationError(f"fixture id {text!r} does not match "
                              f"{kind}:{','.join(names)}")
    params = []
    for (name, kind_of), part in zip(names.items(), parts):
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        integral = kind_of is int
        if not (math.isfinite(value) and (value.is_integer() or not integral)):
            raise ValidationError(f"fixture {kind}: {name} must be a finite "
                                  f"{'integer' if integral else 'number'}, got {part.strip()!r}")
        params.append(value)
    k = {"prop3": params[0], "appE3": params[-1] + 1}.get(kind, 2.0)
    if k * k > geometry.DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(f"fixture {kind} with {k:g} states needs {k:g} x {k:g} "
                                 f"arrays, cap is {geometry.DEFAULT_VERTEX_CAP} entries")
    return FixtureId(kind, tuple(params))


@dataclass(frozen=True)
class Fixture:
    id: FixtureId
    instance: ProblemInstance
    references: dict
    reference_scheme: SignalingScheme | None = None


@dataclass(frozen=True)
class FixtureVerification:
    id: FixtureId
    passed: bool
    checks: tuple[tuple[str, bool, str], ...]  # (name, ok, detail)

    def as_dict(self) -> dict:
        return {"id": str(self.id), "passed": self.passed,
                "checks": [{"name": n, "ok": ok, "detail": d}
                           for n, ok, d in self.checks]}


def build_fixture(fid: FixtureId) -> Fixture:
    builders = {"example1": _example1, "prop3": _prop3, "appE1": _app_e1,
                "appE2": _app_e2, "appE3": _app_e3}
    if fid.kind not in builders:
        raise ValidationError(f"unknown fixture kind {fid.kind!r}")
    kinds = FIXTURE_PARAMS[fid.kind].values()
    return builders[fid.kind](*(kind_of(p) for kind_of, p in
                                zip(kinds, fid.params, strict=True)))


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _example1(eps0: float) -> Fixture:
    if not 0.0 < eps0 < 0.5:
        raise ValidationError("example1 needs eps0 in (0, 1/2)")
    # Utility 0 on p[1] <= 1/2 and 2 p[1] - 1 above: max(0, p[1] - p[0]).
    utility = UtilitySpec.mixture(
        [MaxLinearTerm(np.array([[0.0, 0.0], [-1.0, 1.0]]))])
    c = 0.5 + eps0
    instance = ProblemInstance(
        k=2, prior=uniform_prior(2), utility=utility,
        constraints=(ConstraintSpec.linear([0.0, 1.0], bound=c, mode="ex_ante"),))
    post_opt = 2.0 * eps0 / (1.0 + 2.0 * eps0)
    # Ex-post optimum: mass 1/(2c) at p[1] = c, the rest at p[1] = 0.
    scheme = SignalingScheme([[1.0, 0.0], [1.0 - c, c]], [1.0 - 0.5 / c, 0.5 / c])
    return Fixture(FixtureId("example1", (eps0,)), instance,
                   references={"ex_ante_opt": 0.5, "ex_post_opt": post_opt},
                   reference_scheme=scheme)


def _prop3(k: int, m: int) -> Fixture:
    if k < 2 or m < 1:
        raise ValidationError("prop3 needs k >= 2 and m >= 1")
    if m > k:
        raise ValidationError(
            "prop3 placement uses one coordinate direction per interior "
            "point, so m <= k")
    center = np.full(k, 1.0 / k)
    rho = 1.0 / (2.0 * k)
    dirs = np.eye(k)[:m]
    q_pts = center + rho * (dirs - dirs.mean(axis=0))
    e_pts = np.eye(k)
    # Radius: half the minimum pairwise l1 distance among {q_i} u {e_j}.
    # Two unit vectors are exactly 2.0 apart; each q_i is measured against
    # every later point.
    pool = np.vstack([q_pts, e_pts])
    radius = 0.5 * min(2.0, *(np.abs(pool[i + 1:] - pool[i]).sum(axis=1).min()
                              for i in range(m)))
    if radius <= 0:
        raise ValidationError("prop3 interior points collide")
    pieces = [(e_pts, 0.0)]
    pieces += [(q[None, :], 1.0) for q in q_pts]
    pieces += [(e[None, :], 0.5) for e in e_pts]
    utility = UtilitySpec.piecewise_constant(pieces)
    cons = tuple(ConstraintSpec.bump(center=q, radius=radius, bound=1.0 / (2 * m),
                                     mode="ex_ante") for q in q_pts)
    instance = ProblemInstance(k=k, prior=Posterior(center), utility=utility,
                               constraints=cons)
    scheme = SignalingScheme(
        pool, np.concatenate([np.full(m, 1.0 / (2 * m)), np.full(k, 1.0 / (2 * k))]))
    return Fixture(FixtureId("prop3", (k, m)), instance,
                   references={"opt": 0.75, "support_size": k + m},
                   reference_scheme=scheme)


def _hypercube_constraints(m: int) -> tuple[ConstraintSpec, ...]:
    states = np.arange(2 ** m)
    cons = []
    for i in range(m):
        coeffs = ((states >> i) & 1).astype(float)
        cons.append(ConstraintSpec.linear(coeffs, bound=0.5, mode="ex_ante"))
    return tuple(cons)


def _app_e1(m: int) -> Fixture:
    if not 1 <= m <= HYPERCUBE_MAX_M:
        raise ValidationError(f"appE1 supports 1 <= m <= {HYPERCUBE_MAX_M}")
    k = 2 ** m
    instance = ProblemInstance(
        k=k, prior=uniform_prior(k), utility=UtilitySpec.max_linear(np.eye(k)),
        constraints=_hypercube_constraints(m))
    return Fixture(FixtureId("appE1", (m,)), instance,
                   references={"full_revelation_value": 1.0,
                               "post_pooling_value": 2.0 ** -m},
                   reference_scheme=full_revelation(uniform_prior(k)))


def _app_e2(M: float) -> Fixture:
    if M < 1.0:
        raise ValidationError("appE2 needs M >= 1")
    # u = 1/M + |p[1] - 1/2| * 2(M-1)/M, a max of two linear functionals.
    a = (2.0 - M) / M
    utility = UtilitySpec.mixture(
        [MaxLinearTerm(np.array([[a, 1.0], [1.0, a]]))])
    instance = ProblemInstance(
        k=2, prior=uniform_prior(2), utility=utility,
        constraints=(ConstraintSpec.linear([0.0, 1.0], bound=0.5, mode="ex_ante"),))
    return Fixture(FixtureId("appE2", (M,)), instance,
                   references={"ex_ante_opt": 1.0, "ex_post_opt": 1.0 / M,
                               "gap": M})


def _app_e3(m: int) -> Fixture:
    if m < 1:
        raise ValidationError("appE3 needs m >= 1")
    k = m + 1
    cons = tuple(ConstraintSpec.linear(np.eye(k)[i], bound=1.0 / k, mode="ex_ante")
                 for i in range(m))
    instance = ProblemInstance(
        k=k, prior=uniform_prior(k), utility=UtilitySpec.max_linear(np.eye(k)),
        constraints=cons)
    return Fixture(FixtureId("appE3", (m,)), instance,
                   references={"ex_ante_opt": 1.0, "ex_post_opt": 1.0 / k,
                               "gap": float(k)})


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_fixture(fixture: Fixture | FixtureId, tol: float = 1e-9) -> FixtureVerification:
    """Check a built fixture, or build the one an id names and check it."""
    fixture = build_fixture(fixture) if isinstance(fixture, FixtureId) else fixture
    fid = fixture.id
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, bool(ok), detail))

    if fid.kind == "example1":
        _verify_example1(fixture, check, tol)
    elif fid.kind == "prop3":
        _verify_prop3(fixture, check, tol)
    elif fid.kind == "appE1":
        _verify_app_e1(fixture, check, tol)
    elif fid.kind in ("appE2", "appE3"):
        _verify_gap_fixture(fixture, check, tol)
    passed = all(ok for _, ok, _ in checks)
    return FixtureVerification(id=fid, passed=passed, checks=tuple(checks))


def _verify_example1(fixture: Fixture, check, tol: float):
    inst = fixture.instance
    eps0 = fixture.id.params[0]
    fr = full_revelation(inst.prior)
    rep = verify_scheme(inst, fr, tol=tol)
    check("ex_ante_full_revelation_valid", rep.valid,
          f"utility={rep.utility:.12g}")
    check("ex_ante_value", abs(rep.utility - 0.5) <= tol,
          f"{rep.utility} vs 0.5")
    # The ex-post optimum on the natural 4-point grid in p[1].
    post = inst.with_modes("ex_post")
    q1 = np.array([0.0, 0.5, 0.5 + eps0, 1.0])
    natural = np.column_stack([1.0 - q1, q1])
    orep = solver.oracle_solve(post, natural)
    ref = fixture.references["ex_post_opt"]
    check("ex_post_oracle", orep.status == "optimal"
          and abs(orep.value - ref) <= tol, f"{orep.value} vs {ref}")
    sref = verify_scheme(post, fixture.reference_scheme, tol=tol)
    check("reference_scheme_valid", sref.valid, "")
    check("reference_scheme_value", abs(sref.utility - ref) <= tol,
          f"{sref.utility} vs {ref}")


def _verify_prop3(fixture: Fixture, check, tol: float):
    inst = fixture.instance
    scheme = fixture.reference_scheme
    # The reference and every perturbation of its weights share the support
    # (its points are pairwise farther apart than MERGE_TOL), so the values
    # there are computed once.
    pts = scheme.support
    constraint_values = [eval_constraint_batch(spec, pts, inst.prior)
                         for spec in inst.constraints]
    utility_values = eval_utility_batch(inst.utility, pts)

    def score(w: np.ndarray):
        return score_scheme(inst, pts, w, constraint_values, utility_values, tol)
    rep = score(scheme.probs)
    check("reference_valid", rep.valid,
          f"plaus={rep.plausibility_deviation:.2e}")
    check("value", abs(rep.utility - 0.75) <= 1e-12, f"{rep.utility} vs 0.75")
    check("support_size", scheme.size == fixture.references["support_size"],
          f"{scheme.size}")
    # Perturbing any single weight breaks validity or strictly lowers value.
    all_degrade = True
    for i in range(scheme.size):
        for delta in (1e-3, -1e-3):
            w = np.array(scheme.probs)
            w[i] = max(w[i] + delta, 0.0)
            prep = score(w / w.sum())
            if prep.valid and prep.utility >= rep.utility - 1e-12:
                all_degrade = False
    check("perturbations_degrade", all_degrade, "")


def _verify_app_e1(fixture: Fixture, check, tol: float):
    inst = fixture.instance
    m = int(fixture.id.params[0])
    fr = fixture.reference_scheme
    out, trace = solver.ex_ante_to_ex_post(fr, inst.constraints, inst.prior,
                                           trace=True)
    v_in = verify_scheme(inst, fr, tol=tol).utility
    post_rep = verify_scheme(inst.with_modes("ex_post"), out, tol=tol)
    v_out = post_rep.utility
    check("input_value", abs(v_in - 1.0) <= tol, f"{v_in}")
    check("ratio", abs(v_out / v_in - 2.0 ** -m) <= tol,
          f"{v_out / v_in} vs {2.0 ** -m}")
    check("ends_at_no_revelation",
          out.size == 1 and np.max(np.abs(out.support[0] - inst.prior.weights)) <= tol, "")
    check("ex_post_valid", post_rep.valid, "")
    check("step_budget",
          all(len(trace.steps_for(j)) <= max(1, trace.entry_support_sizes[j]) - 1
              for j in range(m)), "")
    # After the i-th run every support posterior has f_i = 1/2: replay the
    # runs one constraint at a time and check pointwise tightness.
    ok = True
    replay = fr
    for spec in inst.constraints:
        replay = solver.ex_ante_to_ex_post(replay, [spec], inst.prior)
        fvals = eval_constraint_batch(spec, replay.support, inst.prior)
        ok &= bool(np.max(np.abs(fvals - 0.5)) <= tol)
    check("tight_after_each_run", ok, "")


def _verify_gap_fixture(fixture: Fixture, check, tol: float):
    inst = fixture.instance
    ante_ref = fixture.references["ex_ante_opt"]
    post_ref = fixture.references["ex_post_opt"]
    fr = full_revelation(inst.prior)
    rep = verify_scheme(inst, fr, tol=tol)
    check("full_revelation_valid", rep.valid, "")
    check("ex_ante_value", abs(rep.utility - ante_ref) <= tol,
          f"{rep.utility} vs {ante_ref}")
    post = inst.with_modes("ex_post")
    nr = no_revelation(inst.prior)
    prep = verify_scheme(post, nr, tol=tol)
    check("no_revelation_ex_post_valid", prep.valid, "")
    check("ex_post_value", abs(prep.utility - post_ref) <= tol,
          f"{prep.utility} vs {post_ref}")
    # The ex-post feasible set pins the scheme to the prior: confirm with the
    # oracle on a grid containing the prior (k <= 3 instances).
    if inst.k <= 3:
        grid = geometry.build_grid(inst.k, 2.0 / inst.k)
        orep = solver.oracle_solve(post, grid)
        check("ex_post_oracle", orep.status == "optimal"
              and abs(orep.value - post_ref) <= 1e-6,
              f"{orep.value} vs {post_ref}")
    gap = rep.utility / prep.utility
    check("gap", abs(gap - fixture.references["gap"]) <= 1e-6,
          f"{gap} vs {fixture.references['gap']}")
