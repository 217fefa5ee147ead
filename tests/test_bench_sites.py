"""The benchmark's per-layer tracer still finds every site it patches.

perfbench/layers.py wraps functions at their binding sites by name.  A site
renamed or no longer called through its binding breaks only traced
benchmark runs, so this test installs the tracer, runs a small experiment
through it, and checks that uninstalling restores every attribute.
"""

import sys
from pathlib import Path

from bsumkit import cli, diagnostics, engine, models, problem, schedule, surrogate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402

OWNERS = (cli, diagnostics, engine, models, problem, schedule, surrogate,
          problem.NonsmoothBlock, surrogate.Surrogate)

CONFIG = """
seed = 2
run.greedy.model.family = "lasso"
run.greedy.model.m = 10
run.greedy.model.n = 6
run.greedy.model.lam = 0.5
run.greedy.rule = "mbi"
run.greedy.iterations = 5
run.exact.model.family = "l2svm"
run.exact.model.rows = 20
run.exact.model.n = 4
run.exact.surrogate = "exact"
run.exact.iterations = 5
run.group.model.family = "group-lasso"
run.group.model.m = 8
run.group.model.sizes = [2, 3]
run.group.model.weight = 0.3
run.group.surrogate = "exact"
run.group.iterations = 5
run.group_mbi.model.family = "group-lasso"
run.group_mbi.model.m = 8
run.group_mbi.model.sizes = [2, 3]
run.group_mbi.model.weight = 0.3
run.group_mbi.rule = "mbi"
run.group_mbi.iterations = 5
run.mixed.model.family = "lasso"
run.mixed.model.m = 10
run.mixed.model.n = 6
run.mixed.model.lam = 0.5
run.mixed.surrogate = "mixed"
run.mixed.surrogate_kinds = ["exact", "prox-linear", "exact", "prox-linear", "exact", "exact"]
run.mixed.iterations = 5
"""


def test_tracer_patches_live_sites_and_restores_them(tmp_path):
    before = [dict(vars(owner)) for owner in OWNERS]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    tracer = layers.Tracer()
    tracer.install()
    try:
        results, code = cli.run_experiment(cli.parse_config(str(cfg)),
                                           output_dir=str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert code == 0 and [r.error for r in results] == [None] * 5
    for name in ("cli.parse_config", "cli.build_model", "engine.run_bsum",
                 "engine.reference_solve", "engine.bsum_sweep",
                 "diagnostics.estimate_constants", "diagnostics.checks", "cli.artifacts",
                 "schedule.virtual_updates", "problem.eval_objective",
                 "problem.smooth_value", "problem.smooth_grad", "problem.block_grad",
                 "surrogate.argmin", "surrogate.prox_block",
                 "models.exact_solver.l2svm", "models.exact_solver.lasso",
                 "models.piecewise_quadratic_min",
                 "models.group_l2_block_min", "models.spectral_norm_psd"):
        assert tracer.calls[name] > 0, name
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        changed = [k for k in old if old[k] is not new[k]]
        assert not changed, (owner, changed)
