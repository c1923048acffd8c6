#!/usr/bin/env python3
"""Closed-loop benchmark of the persuade solvers.

One client runs a workload's seeded ops back to back until the timed op
time reaches ``--seconds``; each op's output is checked outside the timed
region.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same loop with outside-in spans and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload small_pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints the tracing overhead.  The package is imported from
``src/`` beside this directory; without it the run fails at once.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# or its children: multi-threaded BLAS widened the spread of small solves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("large_solves", "small_pipeline")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
OUT_DIR = HERE / "out"


def _load_package():
    """Import persuade from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import persuade
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import persuade from {src}: {exc}")
    if not Path(persuade.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: persuade was imported from {persuade.__file__}, "
                         f"not from {src}")


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count()}


def _setup_probe_s(args) -> float:
    """Time from spawning a fresh process to the end of its set-up.

    The child prints the system-wide monotonic clock when its set-up ends;
    waiting for its exit would add interpreter shutdown and the polling
    granularity of a wait with a timeout.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True).stdout
    return float(done) - t0


def _check(op, result) -> list[str]:
    try:
        return op.check(result)
    except Exception:  # a check that crashes fails its op
        return [traceback.format_exc(limit=3)]


def _run_ops(ops, seconds: float, tracer):
    """Closed loop over ``ops`` until their timed time reaches ``seconds``.

    Every output is checked outside the timed region.  Returns the op
    latencies and the number of ops that raised or failed a check.
    """
    latencies: list[float] = []
    failed = 0
    spent = 0.0
    while spent < seconds:
        i = len(latencies)
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            result = tracer.op(op.run) if tracer else op.run()
        except Exception:  # a failing op is counted; the run goes on
            latencies.append(time.perf_counter() - t0)
            errors = [traceback.format_exc(limit=3)]
        else:
            latencies.append(time.perf_counter() - t0)
            errors = _check(op, result)
        spent += latencies[-1]
        if errors:
            failed += 1
            print(f"perfbench: op {i} ({op.kind}) failed: {errors[0]}", file=sys.stderr)
    return latencies, failed


def _percentile_ms(latencies, q: float) -> float:
    import numpy as np
    return float(np.percentile(latencies, q)) * 1e3


def _end_to_end(latencies, setup_runs) -> dict:
    return {
        "setup_s": (statistics.median(setup_runs), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (_percentile_ms(latencies, 50), "ms"),
        "op_p90_ms": (_percentile_ms(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args) -> int:
    _load_package()
    import numpy as np
    import workloads
    rng = np.random.default_rng(args.seed)
    ops = workloads.WORKLOADS[args.workload](rng)
    if args.probe:
        print(repr(time.monotonic()))
        return 0
    env = _environment()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "env": env}))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        setup_runs = [_setup_probe_s(args) for _ in range(SETUP_PROBES)]
    latencies, failed = _run_ops(ops, args.seconds, tracer)
    if tracer:
        metrics = tracer.metrics(latencies)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = _end_to_end(latencies, setup_runs)
    print(f"error_rate {failed / len(latencies):g} fraction "
          f"({failed} of {len(latencies)} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(latencies), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            status = status or int(not results[trace]["correct"])
        if len(results) == 2:
            plain = results[0]["metrics"]["ops_per_s"]["value"]
            traced = results[1]["metrics"]["trace.ops_per_s"]["value"]
            print(f"tracing overhead {workload}: traced/untraced ops_per_s = "
                  f"{traced / plain:.3f}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
