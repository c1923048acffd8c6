"""The benchmark's workloads: seeded lists of ops, each with its check.

An op is one timed call into the package plus an untimed check of its
output.  Ops reach the solvers as ``solver.<fn>`` module attributes, never
through the names the package ``__init__`` binds, so a traced run executes
the same calls as an untraced one.

Why each workload exists:

large_solves      seconds-long solves.  k=3 solves under KL constraints at
                  eps=0.02 (V ~ 2.4M, contracted-simplex projection) and k=4
                  auctions (V ~ 0.7M, mixture-utility evaluation, no
                  projection) are the only ops whose cost grows with the
                  lattice size V; a k=3 piecewise-constant solve is the only
                  op where Python-level cell refinement dominates.
small_pipeline    many small solves (V < 70k) where per-call overhead
                  dominates: simplex, pooling loop and the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import instances
from persuade import auction, geometry, solver

ALIGN = {2: 8, 3: 3}          # denominators the oracle's coarse grid divides
BI_EPS = {2: 0.02, 3: 0.1}
SINGLE_EPS = {2: 0.05, 3: 0.2}
ORACLE_EVERY = 10
KL_EPS = 0.02
AUCTION_EPS = 0.1
AUCTION_LIPSCHITZ = 1.0       # fixes the k=4 grid at N=160, V=708,561
PIECEWISE_EPS = 0.05
# Enough inputs for a run at the benchmark's length; a faster program
# cycles through them again.
LARGE_CYCLES = 12
PIPELINE_INSTANCES = 1200


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _bi_op(kind, inst, eps, **kwargs) -> Op:
    return Op(kind, lambda: solver.bi_criteria_solve(inst, eps, **kwargs),
              lambda rep: checks.check_solve(inst, rep, eps))


def large_solves(rng: np.random.Generator) -> list[Op]:
    """Per cycle: two KL solves with one constraint, one with two, an
    auction solve and a piecewise-constant solve.  The one-constraint KL
    solves are two fifths of the ops and sit in the middle of the latency
    range, so the median op is one of them.  Auctions alternate welfare and
    revenue; the piece count cycles through 3-6."""
    ops = []
    for i in range(LARGE_CYCLES):
        for m in (1, 1, 2):
            ops.append(_bi_op("kl", instances.kl_instance(rng, m), KL_EPS))
        objective = "welfare" if i % 2 == 0 else "revenue"
        ops.append(_bi_op("auction", instances.auction_instance(
            rng, objective, AUCTION_LIPSCHITZ), AUCTION_EPS))
        ops.append(_bi_op("piecewise", instances.piecewise_instance(rng, 3 + i % 4),
                          PIECEWISE_EPS))
    return ops


def _pipeline_ops(inst, margin: float, with_oracle: bool) -> list[Op]:
    k = inst.k
    bi = _bi_op("bi", inst, BI_EPS[k], align_multiple=ALIGN[k])
    seen = {}

    def check_bi(rep):
        seen["bi_value"] = checks.scheme_value(inst, rep.scheme)
        return bi.check(rep)

    def single_then_pool():
        rep = solver.single_criteria_solve(inst, SINGLE_EPS[k], margin)
        return rep, solver.ex_ante_to_ex_post(rep.scheme, inst.ex_ante(), inst.prior)

    def check_single(result):
        rep, pooled = result
        return (checks.check_solve(inst, rep, 0.0)
                + checks.check_pooled(inst, rep.scheme, pooled,
                                      auction.certify_factor_two(inst.utility)))

    ops = [Op("bi", bi.run, check_bi), Op("single_pool", single_then_pool, check_single)]
    if with_oracle:
        def oracle():
            return solver.oracle_solve(inst, geometry.build_grid(k, 2.0 / ALIGN[k]))

        def check_oracle(orep):
            if orep.status == "optimal" and "bi_value" in seen \
                    and seen["bi_value"] < orep.value - checks.TOL:
                return [f"bi-criteria value {seen['bi_value']:.9g} below the "
                        f"oracle's {orep.value:.9g}"]
            return []
        ops.append(Op("oracle", oracle, check_oracle))
    return ops


# Every (k, constraint kinds) pair with k in {2, 3} and 1-3 constraints, in
# one fixed shuffled order.  Cycling through it gives every seed the same
# mix of cheap and expensive solves; drawing k, m and the kinds at random
# moved ops_per_s by 14 % between seeds.
STRATA = [(k, kinds) for m in (1, 2, 3)
          for kinds in itertools.product(instances.KINDS, repeat=m) for k in (2, 3)]
STRATA = [STRATA[i] for i in np.random.default_rng(0).permutation(len(STRATA))]


def small_pipeline(rng: np.random.Generator) -> list[Op]:
    """Per instance: a bi-criteria solve, a single-criteria solve followed by
    pooling, and on every tenth instance the oracle on the coarse grid."""
    ops = []
    for i in range(PIPELINE_INSTANCES):
        k, kinds = STRATA[i % len(STRATA)]
        inst, margin = instances.random_instance(rng, k, kinds)
        ops.extend(_pipeline_ops(inst, margin, i % ORACLE_EVERY == 0))
    return ops


WORKLOADS = {
    "large_solves": large_solves,
    "small_pipeline": small_pipeline,
}
