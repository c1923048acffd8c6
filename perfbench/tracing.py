"""Outside-in span tracing of the solve pipeline.

Each traced function is wrapped where the pipeline looks it up: every
``persuade.*`` module attribute that is bound to the original function
object is replaced by the wrapper, so calls through ``geometry.build_grid``
and through a name imported with ``from .core import ...`` are both seen.
No file of the package changes.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends.  A span's self time is its duration minus the time its child spans
cover.  Only calls made inside an op span are recorded, so instance
generation and the untimed output checks leave no spans.

What this cannot see: work inside a traced function that is not itself a
traced call, such as simplex iterations, degenerate pivots or the switch to
Bland's rule inside ``lp.solve_lp``.  Those need counters in the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from persuade import auction, constraints, core, geometry, lp, objectives, solver


def _rows(position):
    """Counter of calls and of the rows of the batch passed at ``position``."""
    def count(counts, name, args, result):
        counts[name + ".calls"] += 1
        counts[name + ".rows"] += np.atleast_2d(args[position]).shape[0]
    return count


def _grid(counts, name, args, result):
    counts[name + ".vertices"] += result.vertex_count


def _lp_build(counts, name, args, result):
    counts[name + ".columns"] += result.n_vars
    mb = sum(a.nbytes for a in (result.c, result.A_eq, result.b_eq,
                                result.A_le, result.b_le)) / 1e6
    counts[name + ".mb_max"] = max(counts[name + ".mb_max"], mb)


def _lp_solve(counts, name, args, result):
    counts[name + ".calls"] += 1
    counts[name + ".columns"] += args[0].n_vars
    if result.x is not None:
        counts[name + ".support"] += int(np.count_nonzero(result.x))


def _calls(counts, name, args, result):
    counts[name + ".calls"] += 1


def _oracle(counts, name, args, result):
    counts[name + ".candidates"] += result.candidates_checked


# span name -> (module, attribute, counter); the attribute names the
# function in the module that defines it.
SPANS = {
    "geometry.project": (geometry, "project_to_contraction_batch", _rows(0)),
    "geometry.build_grid": (geometry, "build_grid", _grid),
    "geometry.refine_simplex": (geometry, "refine_simplex", None),
    "geometry.triangulation_grid": (geometry, "triangulation_grid", None),
    "constraints.smooth": (constraints, "smooth_constraint", None),
    "objectives.upper_approx": (objectives, "build_upper_approx", None),
    "core.eval_constraint": (core, "eval_constraint_batch", _rows(1)),
    "core.eval_utility": (core, "eval_utility_batch", _rows(1)),
    "core.polytope_contains": (core, "polytope_contains", _calls),
    "core.check_bayes": (core, "check_bayes_plausible", None),
    "auction.to_max_linear": (auction, "to_max_linear", None),
    "auction.utility": (auction, "auction_utility_batch", None),
    "lp.build": (lp, "build_persuasion_lp", _lp_build),
    "lp.solve": (lp, "solve_lp", _lp_solve),
    "solver.bi_criteria": (solver, "bi_criteria_solve", None),
    "solver.single_criteria": (solver, "single_criteria_solve", None),
    "solver.pooling": (solver, "ex_ante_to_ex_post", _calls),
    "solver.oracle": (solver, "oracle_solve", _oracle),
}

OP = "op"

# Counters reported as means per op.
PER_OP_COUNTS = (
    "geometry.project.rows", "geometry.build_grid.vertices",
    "core.eval_constraint.calls", "core.eval_constraint.rows",
    "core.eval_utility.rows", "core.polytope_contains.calls",
    "lp.build.columns", "lp.solve.calls", "solver.pooling.calls",
    "solver.oracle.candidates",
)


class Tracer:
    """Span recorder; ``op`` opens the root span of one benchmark op."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            self._close(idx)

    def op(self, fn):
        return self.call(OP, fn)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(tracer.counts, name, args, result)
            return result
        return traced

    def install(self):
        """Rebind every package attribute that holds a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key.startswith("persuade.")]
        for name, (module, attr, counter) in SPANS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        self_t = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(self_t, parents[has_parent], dur[has_parent])
        totals: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, self_t.tolist()):
            totals[name] += t
        return totals

    def metrics(self, latencies: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Self times and counts are means per op.  ``lp.build.mb`` is the
        largest LP of the run, computed from its array sizes.
        ``trace.unattributed_share`` is the share of op time spent outside
        every traced call.
        """
        n = len(latencies)
        self_t = self.self_times()
        c = self.counts
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = (self_t.get(name, 0.0) / n, "s/op")
            out[f"{name}.errors"] = (self.errors.get(name, 0), "count")
        for name in PER_OP_COUNTS:
            out[name] = (c.get(name, 0.0) / n, "count/op")
        out["lp.build.mb"] = (c.get("lp.build.mb_max", 0.0), "MB")
        support = c.get("lp.solve.support", 0.0)
        out["lp.columns_per_support"] = (
            c.get("lp.solve.columns", 0.0) / support if support else 0.0, "ratio")
        op_wall = sum(e - s for name, s, e in zip(self.names, self.starts, self.ends)
                      if name == OP)
        out["trace.unattributed_share"] = (self_t.get(OP, 0.0) / op_wall, "fraction")
        out["trace.ops_per_s"] = (n / sum(latencies), "ops/s")
        return out

    def dump(self, path, meta: dict):
        """Write every span as [name, parent, start, end] with run metadata."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump({**meta, "counts": self.counts, "spans": [
                [n, p, round(s - t0, 9), round(e - t0, 9)]
                for n, p, s, e in zip(self.names, self.parents,
                                      self.starts, self.ends)]}, fh)
