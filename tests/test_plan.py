"""Which checks and envelopes each run gets, pinned by a literal table.

The config below reaches every surrogate kind, selection rule, algorithm
and model family the CLI accepts, with few iterations per run.  The table
is written out by hand from the paper's certificates; it must not be
derived from the code that plans the checks.
"""

import json

import pytest

from bsumkit import cli

ALL_SUITES = ["descent", "cost-to-go", "envelope", "nesterov", "fd"]

LASSO = {"family": "lasso", "m": 12, "n": 8, "lam": 0.5, "seed": 11}
LASSO_BLOCKS = dict(LASSO, blocks=[3, 3, 2])
GLASSO = {"family": "group-lasso", "m": 15, "sizes": [3, 3, 2], "weight": 0.3,
          "seed": 12, "deficient": [1]}
LOGIT = {"family": "logistic", "rows": 40, "n": 6, "weight": 0.3, "seed": 13}
SVM = {"family": "l2svm", "rows": 30, "n": 5, "seed": 14}
SVM_L1 = dict(SVM, l1_weight=0.3)
QUAD = {"family": "quadratic", "sizes": [2, 2, 2], "seed": 15}
QUAD_DEFICIENT = {"family": "quadratic", "sizes": [2, 2, 2], "rank_deficit": 2, "seed": 16}
QUAD_ONE = {"family": "quadratic", "sizes": [3], "seed": 17}
TWO_BLOCK = {"family": "two-block-quadratic", "n_inner": 3, "n_outer": 4, "seed": 18}
FW = {"family": "fermat-weber", "terms": 6, "n": 3, "eta": 0.1, "seed": 19}

# run id -> (model, run fields)
RUNS = {
    "lasso_pl_gs": (LASSO, {"surrogate": "prox-linear"}),
    "lasso_ex_gs": (LASSO, {"surrogate": "exact"}),
    "lasso_ex_ec": (LASSO, {"surrogate": "exact", "rule": "essentially-cyclic",
                            "period_map": [[0, 1, 2, 3], [4, 5, 6, 7]]}),
    "lasso_ex_rp": (LASSO, {"surrogate": "exact", "rule": "random-permutation",
                            "schedule_seed": 3}),
    "lasso_ex_gso": (LASSO, {"surrogate": "exact", "rule": "gauss-southwell", "q": 0.5}),
    "lasso_pl_mbi": (LASSO, {"surrogate": "prox-linear", "rule": "mbi"}),
    "lasso_mixed_gs": (LASSO, {"surrogate": "mixed",
                               "surrogate_kinds": ["exact", "prox-linear"] * 4}),
    "lasso_blocks_pl_gso": (LASSO_BLOCKS, {"rule": "gauss-southwell", "q": 0.8}),
    "lasso_blocks_pl_ec": (LASSO_BLOCKS, {"rule": "essentially-cyclic",
                                          "period_map": [[0, 1], [2]]}),
    "glasso_ex_gs": (GLASSO, {"surrogate": "exact"}),
    "glasso_ex_ec": (GLASSO, {"surrogate": "exact", "rule": "essentially-cyclic",
                              "period_map": [[0], [1, 2]]}),
    "glasso_pl_mbi": (GLASSO, {"rule": "mbi"}),
    "logit_pl_rp": (LOGIT, {"rule": "random-permutation"}),
    "logit_pl_gso": (LOGIT, {"rule": "gauss-southwell", "q": 0.9}),
    "svm_ex_gs": (SVM, {"surrogate": "exact"}),
    "svm_ex_ec": (SVM, {"surrogate": "exact", "rule": "essentially-cyclic",
                        "period_map": [[0, 1, 2], [3, 4]]}),
    "svm_l1_ex_gs": (SVM_L1, {"surrogate": "exact"}),
    "svm_l1_pl_mbi": (SVM_L1, {"rule": "mbi"}),
    "quad_ex_gs": (QUAD, {"surrogate": "exact"}),
    "quad_def_pl_gso": (QUAD_DEFICIENT, {"rule": "gauss-southwell", "q": 0.7}),
    "quad_ex_sum": (QUAD_ONE, {"surrogate": "exact", "algorithm": "sum"}),
    "tbq_mixed_gs": (TWO_BLOCK, {"surrogate": "mixed",
                                 "surrogate_kinds": ["exact", "prox-linear"]}),
    "tbq_a2bsum": (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0}),
    "fw_custom_sum": (FW, {"surrogate": "model-custom", "algorithm": "sum"}),
    "fw_custom_bsum": (FW, {"surrogate": "model-custom"}),
    "fw_pl_mbi": (FW, {"rule": "mbi"}),
}

CURVATURE = ("smooth-curvature", "pairs")
FD = ("fd-gradient", "points")
DESCENT_GS = ("sufficient-descent", "gs-ec")
DESCENT_GREEDY = ("sufficient-descent", "gso-mbi")
DESCENT_BCM = ("sufficient-descent", "bcm")
COST_GS = ("cost-to-go", "gs")
COST_EC = ("cost-to-go", "ec")
COST_GREEDY = ("cost-to-go", "gso-mbi")
COST_BCM = ("cost-to-go", "bcm-gs")

# run id -> (checks in report order, envelope ids in report order)
EXPECTED = {
    "lasso_pl_gs": ([DESCENT_GS, COST_GS, CURVATURE, FD], ["bsum-gs"]),
    "lasso_ex_gs": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                    ["bsum-gs", "bcm-gs", "composite-gs"]),
    "lasso_ex_ec": ([DESCENT_GS, DESCENT_BCM, COST_EC, CURVATURE, FD],
                    ["bsum-ec", "bcm-ec"]),
    "lasso_ex_rp": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                    ["bsum-gs", "bcm-gs", "composite-gs"]),
    "lasso_ex_gso": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-gso"]),
    "lasso_pl_mbi": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-mbi"]),
    "lasso_mixed_gs": ([DESCENT_GS, COST_GS, CURVATURE, FD], ["bsum-gs"]),
    "lasso_blocks_pl_gso": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-gso"]),
    "lasso_blocks_pl_ec": ([DESCENT_GS, COST_EC, CURVATURE, FD], ["bsum-ec"]),
    # the deficient block has no curvature, so gamma = 0 under exact solves
    "glasso_ex_gs": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                     ["bcm-gs", "composite-gs"]),
    "glasso_ex_ec": ([DESCENT_GS, DESCENT_BCM, COST_EC, CURVATURE, FD], ["bcm-ec"]),
    "glasso_pl_mbi": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-mbi"]),
    "logit_pl_rp": ([DESCENT_GS, COST_GS, CURVATURE, FD], ["bsum-gs"]),
    "logit_pl_gso": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-gso"]),
    "svm_ex_gs": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                  ["bcm-gs", "l2svm-gs"]),
    "svm_ex_ec": ([DESCENT_GS, DESCENT_BCM, COST_EC, CURVATURE, FD], ["bcm-ec"]),
    "svm_l1_ex_gs": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                     ["bcm-gs", "l2svm-gs"]),
    "svm_l1_pl_mbi": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-mbi"]),
    "quad_ex_gs": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD],
                   ["bsum-gs", "bcm-gs"]),
    "quad_def_pl_gso": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-gso"]),
    "quad_ex_sum": ([DESCENT_GS, DESCENT_BCM, COST_GS, COST_BCM, CURVATURE, FD], ["sum"]),
    "tbq_mixed_gs": ([DESCENT_GS, COST_GS, CURVATURE, FD], ["bsum-gs"]),
    # the accelerated scheme is not monotone: no descent certificates at all
    "tbq_a2bsum": ([], []),
    # the reweighting bound declares no anchor constant and no curvature
    "fw_custom_sum": ([DESCENT_GS, CURVATURE, FD], ["sum"]),
    "fw_custom_bsum": ([DESCENT_GS, CURVATURE, FD], []),
    "fw_pl_mbi": ([DESCENT_GREEDY, COST_GREEDY, CURVATURE, FD], ["bsum-mbi"]),
}


def coverage_config_text(iterations: int = 30) -> str:
    lines = ["seed = 4", f"suites = {json.dumps(ALL_SUITES)}"]
    for run_id, (model, fields) in RUNS.items():
        for key, value in model.items():
            lines.append(f"run.{run_id}.model.{key} = {json.dumps(value)}")
        lines.append(f"run.{run_id}.iterations = {iterations}")
        for key, value in fields.items():
            lines.append(f"run.{run_id}.{key} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"


def run_coverage(out_dir):
    cfg = out_dir.parent / f"{out_dir.name}.cfg"
    cfg.write_text(coverage_config_text())
    return cli.run_experiment(cli.parse_config(str(cfg)), output_dir=str(out_dir))[0]


@pytest.fixture(scope="module")
def coverage_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("coverage") / "out"
    return run_coverage(out), out


def test_every_run_gets_the_checks_of_its_certificates(coverage_run):
    results, _ = coverage_run
    assert [r.run_id for r in results] == list(EXPECTED)
    for res in results:
        assert res.error is None, (res.run_id, res.error)
        checks = [(c.check_id, c.variant) for c in res.checks]
        envelopes = [e["id"] for e in res.envelopes]
        assert (checks, envelopes) == (list(EXPECTED[res.run_id][0]),
                                       EXPECTED[res.run_id][1]), res.run_id


def test_a_rerun_of_every_family_and_rule_is_byte_identical(coverage_run, tmp_path):
    _, first = coverage_run
    again = tmp_path / "again"
    run_coverage(again)
    artifacts = ["summary.csv"] + [f"{run_id}.{kind}" for run_id in RUNS
                                   for kind in ("trace.csv", "report.json")]
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in again.iterdir())
    for name in artifacts:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_the_l1_svm_references_close_their_gaps(coverage_run):
    # the scaled dual point of an l1-penalized squared hinge certifies the reference
    results, _ = coverage_run
    for res in results:
        if res.run_id.startswith("svm_l1"):
            assert res.reference.converged and abs(res.reference.gap) <= 1e-12
