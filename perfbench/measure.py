"""One workload in one process: timed passes, or a traced pass.

Started by run.py with one BLAS thread and `src/` on PYTHONPATH.  Prints
human-readable lines, then one JSON line with the raw results for run.py.

A pass is one `cli.run_experiment` over the workload's config: every run,
its reference (with the per-experiment cache), constants, checks, and the
trace CSV / report JSON / summary artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from bsumkit import cli
from layers import Tracer

DELTA_FLOOR = -1e-9


def run_pass(spec, out_dir: str) -> dict:
    """Time one pass, then check its outputs (outside the timed region)."""
    t0 = time.perf_counter()
    results, code = cli.run_experiment(spec, output_dir=out_dir)
    seconds = time.perf_counter() - t0
    failures = []
    block_updates = 0
    digest = hashlib.sha256()
    for res in results:
        if res.error is not None:
            failures.append(f"{res.run_id}: raised {res.error}")
            continue
        reasons = [f"{c.check_id}/{c.variant} fails" for c in res.checks if not c.passed]
        reasons += [f"envelope {e['id']} fails" for e in res.envelopes if not e["passed"]]
        if not res.final_delta >= DELTA_FLOOR:
            reasons.append(f"final_delta {res.final_delta!r} < {DELTA_FLOOR}")
        if reasons:
            failures.append(f"{res.run_id}: " + "; ".join(reasons))
        block_updates += sum(len(rec.blocks) for rec in res.trace.records[1:])
        with open(os.path.join(out_dir, f"{res.run_id}.trace.csv"), "rb") as fh:
            digest.update(res.run_id.encode() + b"\n" + fh.read())
    return {
        "seconds": seconds, "attempted": len(results), "failures": failures,
        "exit_code": code,
        "block_updates": block_updates, "traces_sha256": digest.hexdigest(),
    }


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def timed(spec, out_dir: str, seconds: float) -> dict:
    """Repeat passes while the next one is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(spec, out_dir))
        elapsed = time.perf_counter() - start
        typical = sorted(p["seconds"] for p in passes)[len(passes) // 2]
        if elapsed + typical > seconds:
            return {"passes": passes}


def traced(spec_path: str, out_dir: str) -> dict:
    """An untraced pass, then the same pass with every layer wrapped."""
    plain = run_pass(cli.parse_config(spec_path), os.path.join(out_dir, "untraced"))
    tracer = Tracer()
    tracer.install()
    try:
        spec = cli.parse_config(spec_path)
        with_spans = run_pass(spec, os.path.join(out_dir, "traced"))
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    layers["trace_overhead_frac"] = (
        with_spans["seconds"] / plain["seconds"] - 1.0, "ratio")
    print("phase split (s):  run_id  solver  reference  constants  checks")
    for run_id, phases in tracer.phase.items():
        print(f"  {run_id:<20}" + "".join(f"  {phases[p]:9.4f}" for p in phases))
    return {"passes": [plain, with_spans],
            "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if args.trace:
        result = traced(args.config, args.out)
    else:
        result = timed(cli.parse_config(args.config), args.out, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
