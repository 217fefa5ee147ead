"""Experiment configs for the three benchmark workloads.

Standard library only: the runner imports this module without numpy.
Each workload is one bsumkit experiment config, built from the seed given
on the command line.  `matrix` ignores the seed: it is the acceptance
matrix, pinned byte for byte to `tests/conftest.py::matrix_config_text()`.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 1

# Copy of the acceptance matrix in tests/conftest.py.  check_bench.py
# asserts the rendered text is identical, so drift on either side shows.
MATRIX_MODELS = {
    "lasso": {"family": "lasso", "m": 20, "n": 50, "lam": 2.0, "seed": 101},
    "glasso": {"family": "group-lasso", "m": 25, "sizes": [8, 8, 8, 8],
               "weight": 0.4, "seed": 102, "deficient": [1]},
    "logit": {"family": "logistic", "rows": 100, "n": 20, "weight": 0.5, "seed": 103},
    "svm": {"family": "l2svm", "rows": 50, "n": 10, "seed": 104},
}

MATRIX_RUNS = [
    ("lasso_pl_gs", "lasso", "prox-linear", "gauss-seidel", {}),
    ("lasso_pl_ec", "lasso", "prox-linear", "essentially-cyclic",
     {"period_map": [list(range(0, 25)), list(range(25, 50))]}),
    ("lasso_pl_gso", "lasso", "prox-linear", "gauss-southwell", {"q": 0.9}),
    ("lasso_pl_mbi", "lasso", "prox-linear", "mbi", {}),
    ("lasso_ex_gs", "lasso", "exact", "gauss-seidel", {}),
    ("glasso_ex_gs", "glasso", "exact", "gauss-seidel", {}),
    ("glasso_pl_gs", "glasso", "prox-linear", "gauss-seidel", {}),
    ("logit_pl_gs", "logit", "prox-linear", "gauss-seidel", {}),
    ("logit_pl_mbi", "logit", "prox-linear", "mbi", {}),
    ("svm_ex_gs", "svm", "exact", "gauss-seidel", {}),
    ("svm_ex_ec", "svm", "exact", "essentially-cyclic",
     {"period_map": [list(range(0, 5)), list(range(5, 10))]}),
    ("svm_pl_gso", "svm", "prox-linear", "gauss-southwell", {"q": 0.9}),
]

# Iteration counts keep the layer each workload exists for dominant and make
# passes of 7 to 14 s: long enough that each pass averages over the host's
# second-scale speed swings, short enough that a 60 s run holds four or more
# of them (see README.md).
GREEDY_WIDE_ITERATIONS = 20
EXACT_TALL_SVM_ITERATIONS = 12
EXACT_TALL_GLASSO_ITERATIONS = 300


def _render(runs) -> str:
    lines = ["seed = 7", 'suites = ["descent", "cost-to-go", "envelope"]']
    for run_id, model, surrogate, rule, iterations, extra in runs:
        for key, value in model.items():
            lines.append(f"run.{run_id}.model.{key} = {json.dumps(value)}")
        lines.append(f"run.{run_id}.surrogate = {json.dumps(surrogate)}")
        lines.append(f"run.{run_id}.rule = {json.dumps(rule)}")
        lines.append(f"run.{run_id}.iterations = {iterations}")
        for key, value in extra.items():
            lines.append(f"run.{run_id}.{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def matrix_runs(seed: int) -> list:
    return [(run_id, MATRIX_MODELS[model], surrogate, rule, 300, extra)
            for run_id, model, surrogate, rule, extra in MATRIX_RUNS]


def greedy_wide_runs(seed: int) -> list:
    """One wide lasso (K=150 scalar blocks) under both greedy rules; the runs
    share one model, so the per-experiment cache solves its reference once."""
    model = {"family": "lasso", "m": 300, "n": 150, "lam": 2.0, "seed": seed}
    return [
        ("wide_pl_gso", model, "prox-linear", "gauss-southwell",
         GREEDY_WIDE_ITERATIONS, {"q": 0.9}),
        ("wide_pl_mbi", model, "prox-linear", "mbi", GREEDY_WIDE_ITERATIONS, {}),
    ]


def exact_tall_runs(seed: int) -> list:
    """Cyclic exact solves: a 400-row squared-hinge model and a group lasso
    with a rank-deficient block."""
    svm = {"family": "l2svm", "rows": 400, "n": 10, "seed": seed}
    glasso = {"family": "group-lasso", "m": 200, "sizes": [16] * 8,
              "weight": 0.4, "seed": seed, "deficient": [1]}
    return [
        ("tall_svm_ex_gs", svm, "exact", "gauss-seidel", EXACT_TALL_SVM_ITERATIONS, {}),
        ("tall_glasso_ex_gs", glasso, "exact", "gauss-seidel",
         EXACT_TALL_GLASSO_ITERATIONS, {}),
    ]


WORKLOADS = {
    "matrix": matrix_runs,
    "greedy-wide": greedy_wide_runs,
    "exact-tall": exact_tall_runs,
}


def workload_runs(workload: str, seed: int) -> list:
    """(run_id, model, surrogate, rule, iterations, extra fields) per run."""
    return WORKLOADS[workload](seed)


def config_text(workload: str, seed: int) -> str:
    return _render(workload_runs(workload, seed))
