"""Command-line front end and the JSON file formats.

Instance files:
    {"k": int, "prior": [...], "utility": {...},
     "constraints": [{"kind": ..., "params": {...}, "bound": ..., "mode": ...}]}

Utility objects:
    {"kind": "max_linear", "terms": [{"weight": w, "rank": j, "coeffs": [[...]]}]}
      (single-term shorthand: {"kind": "max_linear", "rank": j, "coeffs": [[...]]})
    {"kind": "piecewise_constant", "pieces": [{"vertices": [[...]], "value": v}]}
    {"kind": "auction_welfare" | "auction_revenue",
     "auction": {"bidders": [[{"weight": w, "v0": x, "v1": y}, ...], ...],
                 "profile_cap": int?, "mc_seed": int?}}

Scheme files:
    {"support": [[...]], "probs": [...], "value": real?, "report": {...}?}

Floats are serialized with repr (shortest exact form), so load(save(x))
round-trips bit-exactly.  Exit codes: 0 success; 1 input error (including a
non-finite or non-positive eps or Slater margin), resource limit, or LP or
numeric failure; 2 infeasible or invalid.  The environment variable
PERSUADE_GRID_CAP overrides the grid vertex cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures as _fixtures
from . import solver as _solver
from .auction import AuctionSpec, BidderType
from .core import (ConstraintSpec, InfeasibleError, MaxLinearTerm,
                   PersuasionError, Posterior, ProblemInstance,
                   SignalingScheme, UtilitySpec, ValidationError,
                   verify_scheme)
from .lp import LpError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


class InputError(PersuasionError):
    """Input file error, with the offending field in the message."""


def _ctx(field: str, exc: Exception) -> InputError:
    return InputError(f"{field}: {exc}")


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

def _floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def utility_to_dict(u: UtilitySpec) -> dict:
    if u.kind == "max_linear":
        return {"kind": "max_linear",
                "terms": [{"weight": t.weight, "rank": t.rank,
                           "coeffs": _floats(t.coeffs)} for t in u.terms]}
    if u.kind == "piecewise_constant":
        return {"kind": "piecewise_constant",
                "pieces": [{"vertices": _floats(v), "value": val}
                           for v, val in u.pieces]}
    return {"kind": u.kind, "auction": auction_to_dict(u.auction)}


def auction_to_dict(a: AuctionSpec) -> dict:
    out = {"bidders": [[{"weight": t.weight, "v0": t.low_value, "v1": t.high_value}
                        for t in types] for types in a.bidders]}
    if a.profile_cap != 10 ** 6:
        out["profile_cap"] = a.profile_cap
    if a.mc_seed is not None:
        out["mc_seed"] = a.mc_seed
    return out


def auction_from_dict(d: dict, field: str, seed: int | None = None) -> AuctionSpec:
    try:
        bidders = tuple(tuple(BidderType(weight=float(t["weight"]),
                                         low_value=float(t["v0"]),
                                         high_value=float(t["v1"]))
                              for t in types)
                        for types in d["bidders"])
        return AuctionSpec(bidders=bidders,
                           profile_cap=int(d.get("profile_cap", 10 ** 6)),
                           mc_seed=d.get("mc_seed", seed))
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise _ctx(field, exc) from exc


def utility_from_dict(d: dict, field: str = "utility",
                      seed: int | None = None) -> UtilitySpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError(f"{field}: expected an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "max_linear":
            if "terms" in d:
                terms = [MaxLinearTerm(coeffs=np.asarray(t["coeffs"], dtype=float),
                                       rank=int(t.get("rank", 1)),
                                       weight=float(t.get("weight", 1.0)))
                         for t in d["terms"]]
                return UtilitySpec.mixture(terms)
            return UtilitySpec.max_linear(np.asarray(d["coeffs"], dtype=float),
                                          rank=int(d.get("rank", 1)))
        if kind == "piecewise_constant":
            pieces = [(np.asarray(p["vertices"], dtype=float), float(p["value"]))
                      for p in d["pieces"]]
            return UtilitySpec.piecewise_constant(pieces)
        if kind == "auction_welfare":
            return UtilitySpec.auction_welfare(
                auction_from_dict(d["auction"], field + ".auction", seed))
        if kind == "auction_revenue":
            return UtilitySpec.auction_revenue(
                auction_from_dict(d["auction"], field + ".auction", seed))
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise _ctx(field, exc) from exc
    raise InputError(f"{field}.kind: unknown utility kind {kind!r}")


def constraint_to_dict(c: ConstraintSpec) -> dict:
    params: dict = {}
    if c.kind == "linear":
        params["coeffs"] = _floats(c.coeffs)
    elif c.kind == "norm_distance":
        params["order"] = "inf" if c.order == float("inf") else c.order
    elif c.kind == "grouped_kl":
        params["partition"] = [list(cell) for cell in c.partition]
        params["scale"] = c.scale
        params["refs"] = _floats(c.refs)
    elif c.kind == "neg_min_weighted":
        params["weights"] = _floats(c.weights)
    elif c.kind == "bump":
        params["center"] = _floats(c.center)
        params["radius"] = c.radius
    return {"kind": c.kind, "params": params, "bound": c.bound, "mode": c.mode}


def constraint_from_dict(d: dict, field: str) -> ConstraintSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError(f"{field}: expected an object with a 'kind'")
    kind = d["kind"]
    params = d.get("params", {})
    try:
        bound = float(d["bound"])
        mode = d.get("mode", "ex_ante")
        if kind == "linear":
            return ConstraintSpec.linear(np.asarray(params["coeffs"], dtype=float),
                                         bound, mode)
        if kind == "norm_distance":
            order = params.get("order", 1)
            order = float("inf") if order in ("inf", "Inf") else float(order)
            return ConstraintSpec.norm_distance(order, bound, mode)
        if kind == "entropy":
            return ConstraintSpec.entropy(bound, mode)
        if kind == "grouped_kl":
            return ConstraintSpec.grouped_kl(
                partition=[tuple(cell) for cell in params["partition"]],
                scale=float(params["scale"]),
                refs=np.asarray(params["refs"], dtype=float),
                bound=bound, mode=mode)
        if kind == "neg_min_weighted":
            return ConstraintSpec.neg_min_weighted(
                np.asarray(params["weights"], dtype=float), bound, mode)
        if kind == "bump":
            return ConstraintSpec.bump(np.asarray(params["center"], dtype=float),
                                       float(params["radius"]), bound, mode)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise _ctx(field, exc) from exc
    raise InputError(f"{field}.kind: unknown constraint kind {kind!r}")


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {"k": inst.k, "prior": _floats(inst.prior.weights),
            "utility": utility_to_dict(inst.utility),
            "constraints": [constraint_to_dict(c) for c in inst.constraints]}


def instance_from_dict(d: dict, seed: int | None = None) -> ProblemInstance:
    if not isinstance(d, dict):
        raise InputError("instance: expected a JSON object")
    for key in ("k", "prior", "utility"):
        if key not in d:
            raise InputError(f"{key}: missing")
    try:
        k = int(d["k"])
    except (TypeError, ValueError) as exc:
        raise _ctx("k", exc) from exc
    try:
        prior = Posterior(np.asarray(d["prior"], dtype=float))
    except (ValidationError, TypeError, ValueError) as exc:
        raise _ctx("prior", exc) from exc
    utility = utility_from_dict(d["utility"], "utility", seed)
    constraints = tuple(constraint_from_dict(c, f"constraints[{i}]")
                        for i, c in enumerate(d.get("constraints", [])))
    try:
        return ProblemInstance(k=k, prior=prior, utility=utility,
                               constraints=constraints)
    except (ValidationError, PersuasionError) as exc:
        raise _ctx("instance", exc) from exc


def scheme_to_dict(scheme: SignalingScheme, value: float | None = None,
                   report: dict | None = None) -> dict:
    out = {"support": _floats(scheme.support_matrix()),
           "probs": _floats(scheme.probs)}
    if value is not None:
        out["value"] = value
    if report is not None:
        out["report"] = report
    return out


def scheme_from_dict(d: dict) -> SignalingScheme:
    if not isinstance(d, dict) or "support" not in d or "probs" not in d:
        raise InputError("scheme: expected an object with 'support' and 'probs'")
    try:
        return SignalingScheme.from_points(np.asarray(d["support"], dtype=float),
                                           np.asarray(d["probs"], dtype=float))
    except (ValidationError, TypeError, ValueError) as exc:
        raise _ctx("scheme", exc) from exc


def dump_json(obj: dict) -> str:
    # json serializes floats via repr, the shortest exact representation, so
    # load(save(x)) round-trips bit-exactly.
    return json.dumps(obj, indent=2)


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path!r}: invalid JSON ({exc})") from exc


def load_instance(path: str, seed: int | None = None) -> ProblemInstance:
    return instance_from_dict(_read_json(path, "instance"), seed)


def load_scheme(path: str) -> SignalingScheme:
    return scheme_from_dict(_read_json(path, "scheme"))


def save_json(obj: dict, path: str | None):
    text = dump_json(obj)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _grid_cap() -> int | None:
    env = os.environ.get("PERSUADE_GRID_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"PERSUADE_GRID_CAP: {exc}") from exc
    return None


def cmd_solve(args) -> int:
    instance = load_instance(args.instance, seed=args.seed)
    margin = None
    if args.mode == "single":
        if args.slater_margin is None:
            raise InputError("--slater-margin is required with --mode single")
        margin = args.slater_margin
    surrogate = _solver.build_surrogate(instance, args.eps, slater_margin=margin,
                                        grid_cap=_grid_cap())
    report = _solver.solve_surrogate(surrogate)
    save_json(scheme_to_dict(report.scheme, value=report.value,
                             report=report.as_dict()), args.out)
    if args.grid_csv:
        _write_grid_csv(surrogate, args.grid_csv)
    return EXIT_OK


def _write_grid_csv(surrogate, path: str):
    """(posterior, objective value) table of the LP columns, for plotting."""
    vertices = surrogate.gridded.grid.vertices
    if surrogate.mask is not None:
        vertices = vertices[surrogate.mask]
    with open(path, "w") as fh:
        fh.write(",".join(f"p{i}" for i in range(vertices.shape[1])) + ",value\n")
        for row, val in zip(vertices, surrogate.program.c):
            fh.write(",".join(repr(float(x)) for x in row) + f",{float(val)!r}\n")


def cmd_convert(args) -> int:
    instance = load_instance(args.instance, seed=args.seed)
    scheme = load_scheme(args.scheme)
    ante = instance.with_modes("ex_ante")
    entry = verify_scheme(ante, scheme, tol=args.tol)
    if not entry.valid:
        print("input scheme is not ex-ante feasible for the instance",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    converted = _solver.ex_ante_to_ex_post(scheme, instance.constraints,
                                           instance.prior)
    before = entry.utility
    post = instance.with_modes("ex_post")
    out_report = verify_scheme(post, converted, tol=args.tol)
    if before > 0:
        ratio = out_report.utility / before
    else:
        ratio = 1.0 if out_report.utility <= args.tol else float("inf")
    save_json(scheme_to_dict(converted, value=out_report.utility,
                             report={"before": before,
                                     "after": out_report.utility,
                                     "ratio": ratio,
                                     "verify": out_report.as_dict()}),
              args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    instance = load_instance(args.instance, seed=args.seed)
    scheme = load_scheme(args.scheme)
    report = verify_scheme(instance, scheme, tol=args.tol)
    save_json(report.as_dict(), args.out)
    return EXIT_OK if report.valid else EXIT_INFEASIBLE


def cmd_fixture(args) -> int:
    fid = _fixtures.parse_fixture_id(args.id)
    fixture = _fixtures.build_fixture(fid)
    payload = {"id": str(fid), "instance": instance_to_dict(fixture.instance),
               "references": fixture.references}
    if fixture.reference_scheme is not None:
        payload["reference_scheme"] = scheme_to_dict(fixture.reference_scheme)
    if args.verify:
        verification = _fixtures.verify_fixture(fid)
        payload["verification"] = verification.as_dict()
        save_json(payload, args.out)
        return EXIT_OK if verification.passed else EXIT_INFEASIBLE
    save_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuade",
        description="Solvers and fixtures for constrained signaling schemes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=("bi", "single"), default="bi")
    p.add_argument("--slater-margin", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--grid-csv", default=None,
                   help="write the (posterior, objective) grid table as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convert", help="convert an ex-ante scheme to ex post")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("verify", help="verify a scheme against an instance")
    p.add_argument("instance")
    p.add_argument("scheme")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixture", help="emit (and optionally verify) a fixture")
    p.add_argument("id", help="e.g. example1:0.1666, prop3:2,2, appE3:2")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fixture)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PersuasionError, LpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
