"""bsumkit benchmark: certified-run time per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload exact-tall --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; bsumkit is imported from its `src/`.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced pass.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 when every output passed the correctness gate, 1 when the gate failed,
and 2 when the benchmark could not run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RECORDED_SHA = HERE / "trace_sha256.json"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

SETUP_REPS = 3
SETUP_TIMEOUT = 60
CHILD_TIMEOUT = 160
TAIL_BEYOND = 10
SETUP_CODE = "import sys; from bsumkit.cli import parse_config; parse_config(sys.argv[1])"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(cfg: Path, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import bsumkit and parse the config."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg)], env=env, cwd=ROOT,
                       check=True, timeout=SETUP_TIMEOUT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it.  Below 2 * TAIL_BEYOND + 1 samples that percentile would not lie
    above the median, so the slowest sample stands in for it."""
    s = sorted(samples)
    if len(s) <= 2 * TAIL_BEYOND:
        return s[-1], 100.0
    i = len(s) - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / len(s)


def recorded_sha(workload: str, seed: int):
    """The recorded trace hash; `matrix` ignores the seed, so it has one."""
    with open(RECORDED_SHA, encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded.get(f"{workload}:{seed}", recorded.get(workload))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bsumkit certified-run benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bsumkit" / "__init__.py").is_file():
        print(f"error: no bsumkit sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "experiment.cfg"
    cfg.write_text(config_text(args.workload, args.seed), encoding="utf-8")
    env = child_env()

    try:
        setup = [] if args.trace else setup_seconds(cfg, env)
        child = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), "--config", str(cfg), "--out", str(out),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    passes = raw["passes"]

    env_info = raw["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    gate = [f"run: {f}" for f in failures]
    if any(p["exit_code"] != 0 for p in passes) and not failures:
        gate.append("run_experiment returned a nonzero exit code")
    if len({p["traces_sha256"] for p in passes}) != 1:
        gate.append("trace CSVs differ between passes")
    for reason in gate:
        print(f"FAILED {reason}")
    sha = passes[0]["traces_sha256"]
    record = recorded_sha(args.workload, args.seed)
    status = "no record for this seed" if record is None else (
        "same as recorded" if record == sha else f"differs from recorded {record}")
    print(f"traces sha256 {args.workload}:{args.seed} = {sha} ({status})")
    print(f"runs_failed_frac = {len(failures) / attempted:.4g} ratio "
          f"({len(failures)} of {attempted} runs)")

    if args.trace:
        metrics = raw["layers"]
    else:
        seconds = [p["seconds"] for p in passes]
        experiment_s = statistics.median(seconds)
        tail_s, pct = tail(seconds)
        print(f"experiment_s: median of {len(seconds)} passes; experiment_s_tail: "
              f"p{pct:.0f} of {len(seconds)}; setup_s: median of {len(setup)} interpreters")
        print("pass seconds: " + " ".join(f"{s:.3f}" for s in seconds))
        print("setup seconds: " + " ".join(f"{s:.3f}" for s in setup))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "experiment_s": {"value": experiment_s, "unit": "s"},
            "experiment_s_tail": {"value": tail_s, "unit": "s"},
            "block_updates_per_s": {"value": passes[0]["block_updates"] / experiment_s,
                                    "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not gate
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
