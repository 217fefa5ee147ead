"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/check_bench.py

The traced-run tests start the benchmark twice per workload and take a few
minutes.  Expected counts come from the experiment config and the emitted
traces and reports, never from the code the benchmark measures.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

GREEDY_RULES = ("gauss-southwell", "mbi")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def traced(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # correct means no run failed and the traced pass wrote the same trace
    # CSVs as the untraced one
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_matrix_config_is_pinned_to_the_acceptance_matrix():
    spec = importlib.util.spec_from_file_location("acceptance_conftest",
                                                  ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "src"))
    spec.loader.exec_module(conftest)
    assert workloads.config_text("matrix", 1) == conftest.matrix_config_text()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "exact-tall", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_match_config_and_trace(workload):
    first = traced(workload)
    second = traced(workload)
    counts = {k for k in first if k.endswith((".calls", ".sweeps", "_bytes", "block_updates",
                                              "_ratio"))}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    out = ROOT / ".perfbench_out" / workload / "traced"
    runs = workloads.workload_runs(workload, 1)
    sweeps, block_updates, iterations = {}, 0, 0
    for run_id, model, *_ in runs:
        with open(out / f"{run_id}.report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        sweeps[json.dumps(model, sort_keys=True)] = report["reference"]["sweeps"]
        with open(out / f"{run_id}.trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))[1:]
        iterations += len(rows)
        block_updates += sum(len(row["blocks"].split(";")) for row in rows)

    greedy_iterations = sum(run[4] for run in runs if run[3] in GREEDY_RULES)
    assert first["schedule.virtual_updates.calls"] == greedy_iterations
    assert iterations == sum(run[4] for run in runs)
    assert first["engine.bsum_sweep.calls"] == iterations + sum(sweeps.values())
    assert first["engine.reference_solve.calls"] == len(sweeps)
    assert first["engine.reference_solve.sweeps"] == sum(sweeps.values())
    assert first["engine.block_updates"] == block_updates
    assert first["cli.reference_cache.hit_ratio"] == pytest.approx(1 - len(sweeps) / len(runs))
