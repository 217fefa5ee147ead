"""Shared fixtures: the 12-run verification matrix and independent oracles."""

import json
import time

import numpy as np
import pytest
from hypothesis import settings

from bsumkit import cli

# Property tests draw the same examples on every run, keep no example
# database and never time out on a slow or busy host, so their outcome does
# not depend on the machine or on earlier runs.
settings.register_profile("bsumkit", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("bsumkit")

MATRIX_MODELS = {
    "lasso": {"family": "lasso", "m": 20, "n": 50, "lam": 2.0, "seed": 101},
    "glasso": {"family": "group-lasso", "m": 25, "sizes": [8, 8, 8, 8],
               "weight": 0.4, "seed": 102, "deficient": [1]},
    "logit": {"family": "logistic", "rows": 100, "n": 20, "weight": 0.5, "seed": 103},
    "svm": {"family": "l2svm", "rows": 50, "n": 10, "seed": 104},
}

# run id -> (model, surrogate, rule, extra run fields)
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


def matrix_config_text(iterations: int = 300) -> str:
    lines = ["seed = 7", 'suites = ["descent", "cost-to-go", "envelope"]']
    for run_id, model, surrogate, rule, extra in MATRIX_RUNS:
        for key, value in MATRIX_MODELS[model].items():
            lines.append(f"run.{run_id}.model.{key} = {json.dumps(value)}")
        lines.append(f"run.{run_id}.surrogate = {json.dumps(surrogate)}")
        lines.append(f"run.{run_id}.rule = {json.dumps(rule)}")
        lines.append(f"run.{run_id}.iterations = {iterations}")
        for key, value in extra.items():
            lines.append(f"run.{run_id}.{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def matrix_outcome(tmp_path_factory):
    base = tmp_path_factory.mktemp("matrix")
    cfg = base / "matrix.cfg"
    cfg.write_text(matrix_config_text())
    spec = cli.parse_config(str(cfg))
    start = time.perf_counter()
    results, code = cli.run_experiment(spec, output_dir=str(base / "run1"))
    elapsed = time.perf_counter() - start
    return {
        "spec": spec, "results": {r.run_id: r for r in results}, "code": code,
        "elapsed": elapsed, "outdir": str(base / "run1"),
        "config_path": str(cfg), "base": str(base),
    }


# ---------------------------------------------------------------------------
# independent oracles


def grid_min_1d(fn, lo=-2.0, hi=2.0, step=1e-5):
    """Dense-grid minimizer of a scalar function (vectorized evaluation)."""
    ts = np.arange(lo, hi + step, step)
    vals = fn(ts)
    return float(ts[np.argmin(vals)])


def golden_section(fn, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section search for a unimodal scalar function."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def irls_step(mats, offsets, eta, x):
    """One classical reweighting iterate for the smoothed sum of norms (h = 0).

    Written independently of the surrogate machinery, so that runs can be
    checked against the textbook update.
    """
    x = np.asarray(x, dtype=float)
    dim = x.shape[0]
    H = np.zeros((dim, dim))
    rhs = np.zeros(dim)
    for A, b in zip(mats, offsets):
        r = A @ x + b
        w = np.sqrt(r @ r + eta**2)
        H += (A.T @ A) / w
        rhs -= (A.T @ b) / w
    return np.linalg.solve(H, rhs)
