"""Config parsing, experiment artifacts, comparison, generation, exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import bsumkit as bk
from bsumkit import cli, engine, models
from bsumkit.cli import ConfigError

BUILD_MODEL = cli.build_model  # the unpatched builder, for wrappers of it

MINIMAL = """
seed = 3
run.demo.model.family = "lasso"
run.demo.model.m = 8
run.demo.model.n = 12
run.demo.model.lam = 0.5
run.demo.model.seed = 42
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_fills_defaults(tmp_path):
    spec = cli.parse_config(write(tmp_path, MINIMAL))
    assert spec.seed == 3
    run = spec.runs[0]
    assert run.rule == "gauss-seidel"
    assert run.surrogate == "prox-linear"
    assert run.iterations == 200
    assert run.tolerance == 0.0
    assert spec.suites == ("descent", "cost-to-go", "envelope")


def test_parse_rejects_bad_q(tmp_path):
    text = MINIMAL + 'run.demo.rule = "gauss-southwell"\nrun.demo.q = 1.5\n'
    with pytest.raises(ConfigError, match=r"q must lie in \(0,1\]"):
        cli.parse_config(write(tmp_path, text))


def test_parse_rejects_uncovered_period_map(tmp_path):
    text = MINIMAL + (
        'run.demo.rule = "essentially-cyclic"\n'
        "run.demo.period_map = [[0,1,2],[3,4]]\n"
    )
    with pytest.raises(ConfigError, match="does not cover"):
        cli.parse_config(write(tmp_path, text))


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown run field"):
        cli.parse_config(write(tmp_path, MINIMAL + "run.demo.bogus.x = 1\n"))
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.parse_config(write(tmp_path, MINIMAL + "mystery = 1\n"))
    with pytest.raises(ConfigError, match="unknown model fields"):
        cli.parse_config(write(tmp_path, MINIMAL + "run.demo.model.zzz = 1\n"))


def test_parse_reports_line_numbers(tmp_path):
    path = write(tmp_path, 'seed = 1\nrun.a.model.family = "lasso"\noops\n')
    with pytest.raises(ConfigError, match=":3"):
        cli.parse_config(path)
    path2 = write(tmp_path, "seed = {bad json}\n", name="bad.cfg")
    with pytest.raises(ConfigError, match=":1"):
        cli.parse_config(path2)


def test_duplicate_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        cli.parse_config(write(tmp_path, "seed = 1\nseed = 2\n"))


TWO_RUN = """
seed = 5
suites = ["descent", "cost-to-go", "envelope"]
run.bcpg.model.family = "lasso"
run.bcpg.model.m = 8
run.bcpg.model.n = 10
run.bcpg.model.lam = 0.4
run.bcpg.model.seed = 9
run.bcpg.surrogate = "prox-linear"
run.bcpg.iterations = 50
run.bcm.model.family = "lasso"
run.bcm.model.m = 8
run.bcm.model.n = 10
run.bcm.model.lam = 0.4
run.bcm.model.seed = 9
run.bcm.surrogate = "exact"
run.bcm.iterations = 50
"""


def test_run_experiment_two_runs(tmp_path):
    spec = cli.parse_config(write(tmp_path, TWO_RUN))
    out = tmp_path / "out"
    results, code = cli.run_experiment(spec, output_dir=str(out))
    assert code == 0
    assert (out / "bcpg.trace.csv").exists()
    assert (out / "bcm.trace.csv").exists()
    assert (out / "bcm.report.json").exists()
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "run_id,rule,surrogate,final_delta,fitted_slope,all_checks_pass"
    assert len(summary) == 3
    header = (out / "bcpg.trace.csv").read_text().splitlines()[0]
    assert header == "r,f,delta,step_sq,virt_step_sq,grad_diff_sq,blocks"
    report = json.loads((out / "bcm.report.json").read_text())
    assert report["all_passed"] is True
    assert "certificate" in report


def test_rerun_is_byte_identical(tmp_path):
    spec = cli.parse_config(write(tmp_path, TWO_RUN))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli.run_experiment(spec, output_dir=str(out1))
    cli.run_experiment(spec, output_dir=str(out2))
    for name in ("bcpg.trace.csv", "bcm.trace.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _stamps(directory) -> dict:
    """(inode, mtime in ns) of each file in directory, by name."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


def test_atomic_write_leaves_identical_bytes_untouched(tmp_path):
    path = tmp_path / "artifact.txt"
    cli._atomic_write(str(path), "first\n")  # missing: created
    assert path.read_text() == "first\n"
    created = _stamps(tmp_path)
    cli._atomic_write(str(path), "first\n")  # identical: kept
    assert _stamps(tmp_path) == created
    cli._atomic_write(str(path), "other\n")  # same size, other bytes: replaced
    assert path.read_text() == "other\n"
    assert path.stat().st_ino != created["artifact.txt"][0]
    cli._atomic_write(str(path), "longer\n")
    assert path.read_text() == "longer\n"
    assert os.listdir(tmp_path) == ["artifact.txt"]


def test_atomic_write_removes_its_temporary_file_when_the_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "artifact.txt"
    path.write_text("old\n")
    tried = []

    def failing_replace(src, dst):
        tried.append(src)
        raise OSError("replace failed")

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        cli._atomic_write(str(path), "new\n")
    assert tried == [f"{path}.{os.getpid()}.tmp"]
    assert os.listdir(tmp_path) == ["artifact.txt"] and path.read_text() == "old\n"


def test_rerun_rewrites_only_the_artifacts_that_changed(tmp_path):
    out = tmp_path / "out"
    config = write(tmp_path, TWO_RUN)
    assert cli.main(["run", config, "-o", str(out)]) == 0
    first = _stamps(out)
    assert sorted(first) == ["bcm.report.json", "bcm.trace.csv", "bcpg.report.json",
                             "bcpg.trace.csv", "summary.csv"]
    assert cli.main(["run", config, "-o", str(out)]) == 0
    assert _stamps(out) == first

    shorter = TWO_RUN.replace("run.bcpg.iterations = 50", "run.bcpg.iterations = 40")
    assert cli.main(["run", write(tmp_path, shorter), "-o", str(out)]) == 0
    after = _stamps(out)
    assert sorted(after) == sorted(first)
    assert sorted(name for name in first if after[name] != first[name]) == [
        "bcpg.report.json", "bcpg.trace.csv", "summary.csv"]


def test_unconverged_reference_is_reported(tmp_path, monkeypatch):
    solve = cli.reference_solve

    def unconverged(problem):
        ref = solve(problem)
        ref.converged, ref.sweeps, ref.last_change = False, 17, 2.5e-7
        return ref

    monkeypatch.setattr(cli, "reference_solve", unconverged)
    spec = cli.parse_config(write(tmp_path, MINIMAL.replace("n = 12", "n = 4")))
    out = tmp_path / "out"
    cli.run_experiment(spec, output_dir=str(out))
    report = json.loads((out / "demo.report.json").read_text())
    assert report["reference"]["converged"] is False
    assert report["warnings"] == [
        "reference did not converge: 17 sweeps, last objective change 2.5e-07"
    ]


def test_converged_reference_adds_no_warning(tmp_path):
    spec = cli.parse_config(write(tmp_path, MINIMAL.replace("n = 12", "n = 4")))
    out = tmp_path / "out"
    cli.run_experiment(spec, output_dir=str(out))
    report = json.loads((out / "demo.report.json").read_text())
    assert report["reference"]["converged"] is True
    assert report["warnings"] == []


def test_the_report_carries_the_reference_gap(tmp_path):
    # a lasso's dual point is scaled into the l1 ball, an l2svm's projected
    # onto A^T v = 0: both close their gaps
    text = (run_text("lasso", {"family": "lasso", "m": 8, "n": 4, "lam": 0.5, "seed": 42})
            + run_text("svm", {"family": "l2svm", "rows": 12, "n": 3, "seed": 4}))
    out = tmp_path / "out"
    results, _ = cli.run_experiment(cli.parse_config(write(tmp_path, text)), output_dir=str(out))
    gaps = {r.run_id: r.reference.gap for r in results}
    assert abs(gaps["lasso"]) <= 1e-12 and abs(gaps["svm"]) <= 1e-12
    for run_id, gap in gaps.items():
        report = json.loads((out / f"{run_id}.report.json").read_text())
        assert report["reference"]["gap"] == gap


def test_the_report_records_the_reference_counters(tmp_path):
    # the lasso reference extrapolates and polishes; the l2svm one has no
    # polish; neither counts as a sweep
    text = (run_text("lasso", {"family": "lasso", "m": 8, "n": 4, "lam": 0.5, "seed": 42})
            + run_text("svm", {"family": "l2svm", "rows": 12, "n": 3, "seed": 4}))
    out = tmp_path / "out"
    results, _ = cli.run_experiment(cli.parse_config(write(tmp_path, text)), output_dir=str(out))
    for result in results:
        ref = result.reference
        report = json.loads((out / f"{result.run_id}.report.json").read_text())
        assert report["reference"]["extrapolations"] == ref.extrapolations
        assert report["reference"]["polishes"] == ref.polishes
    lasso, svm = (r.reference for r in results)
    assert lasso.polishes >= 1 and svm.polishes == 0
    assert lasso.polishes + lasso.extrapolations <= 2 * (lasso.sweeps // engine.ANDERSON_K)


def skip_last_block(model, default_seed):
    """The model with an exact sweep that never updates its last block."""
    problem = BUILD_MODEL(model, default_seed)
    sweep = problem.exact_sweep
    problem.exact_sweep = lambda blocks, *args, **kwargs: sweep(blocks[:-1], *args, **kwargs)
    return problem


def test_a_reference_whose_sweep_skips_a_block_is_not_converged(tmp_path, monkeypatch):
    # the sweeps stall with the last coordinate at its start, 0, where the
    # minimizer's is not; the stall rule alone would call that converged, and
    # the duality gap refutes it
    lasso = {"family": "lasso", "m": 8, "n": 4, "lam": 0.5, "seed": 41}
    spec = cli.parse_config(write(tmp_path, run_text("lasso", lasso, surrogate="prox-linear")))
    results, _ = cli.run_experiment(spec, output_dir=str(tmp_path / "whole"))
    assert results[0].reference.converged and results[0].reference.x[-1] != 0.0
    monkeypatch.setattr(cli, "build_model", skip_last_block)
    results, _ = cli.run_experiment(spec, output_dir=str(tmp_path / "skipping"))
    ref = results[0].reference
    assert ref.x[-1] == 0.0 and ref.gap > 1e-3 and not ref.converged
    report = json.loads((tmp_path / "skipping" / "lasso.report.json").read_text())
    assert report["reference"]["converged"] is False
    assert report["warnings"] == [f"reference did not converge: {ref.sweeps} sweeps, "
                                  f"last objective change {ref.last_change:.6g}"]


def test_each_model_is_built_once_per_experiment(tmp_path, monkeypatch):
    # the two runs of TWO_RUN share one model; built once, it gives the same
    # traces as a model built for each run
    built = []

    def counted(model, default_seed):
        built.append(model["family"])
        return BUILD_MODEL(model, default_seed)

    monkeypatch.setattr(cli, "build_model", counted)
    spec = cli.parse_config(write(tmp_path, TWO_RUN))
    shared, code = cli.run_experiment(spec, output_dir=str(tmp_path / "shared"))
    assert code == 0 and built == ["lasso"]
    assert shared[0].problem is shared[1].problem
    for cfg, result in zip(spec.runs, shared):
        alone = cli.execute_run(cfg, spec, {})
        assert alone.problem is not result.problem
        assert cli.trace_csv_text(alone.trace) == cli.trace_csv_text(result.trace)
    assert len(built) == 3


def test_compare_traces(tmp_path):
    spec = cli.parse_config(write(tmp_path, TWO_RUN))
    out = tmp_path / "out"
    cli.run_experiment(spec, output_dir=str(out))
    a, b = str(out / "bcpg.trace.csv"), str(out / "bcm.trace.csv")
    text = cli.compare_traces([a, b])
    lines = text.strip().splitlines()
    assert lines[0] == "r,delta_bcpg,delta_bcm"
    assert len(lines) == 52  # header + r = 0..50

    # self-compare: identical columns with disambiguated names
    text2 = cli.compare_traces([a, a])
    rows = [line.split(",") for line in text2.strip().splitlines()[1:]]
    assert all(r[1] == r[2] for r in rows)


def test_compare_handles_unequal_lengths(tmp_path):
    short = tmp_path / "short.trace.csv"
    long = tmp_path / "long.trace.csv"
    short.write_text("r,f,delta\n0,1,1\n1,0.5,0.5\n")
    long.write_text("r,f,delta\n0,2,2\n1,1,1\n2,0.5,0.5\n3,0.25,0.25\n")
    text = cli.compare_traces([str(short), str(long)])
    lines = text.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1].split(",") == ["3", "", "0.25"]


def test_compare_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="not a trace"):
        cli.compare_traces([str(bad)])


def test_compare_names_a_trace_without_rows(tmp_path, capsys):
    full = tmp_path / "full.trace.csv"
    full.write_text("r,f,delta\n0,1,1\n")
    empty = tmp_path / "empty.trace.csv"
    empty.write_text("r,f,delta\n")
    assert cli.main(["compare", str(full), str(empty)]) == 2
    err = capsys.readouterr().err
    assert err == f"compare error: {empty}: trace has no rows\n"


def test_gen_rejects_a_missing_generator_key(tmp_path, capsys):
    prefix = str(tmp_path / "gx")
    with pytest.raises(ConfigError, match=r"missing model fields \['m'\]"):
        cli.generate_instance("lasso", {"n": 3}, prefix)
    assert cli.main(["gen", "lasso", "--params", '{"n": 3}', "-o", prefix]) == 1
    assert "gen error: missing model fields ['m']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_round_trip(tmp_path):
    prefix = str(tmp_path / "inst")
    written = cli.generate_instance("lasso", {"m": 6, "n": 9, "seed": 4}, prefix)
    assert sorted(os.path.basename(w) for w in written) == ["inst_A.txt", "inst_b.txt"]
    A = models.read_matrix(prefix + "_A.txt")
    b = models.read_matrix(prefix + "_b.txt").ravel()
    A0, b0, _ = models.gen_lasso(6, 9, 1.0, seed=4)
    assert np.array_equal(A, A0)
    assert np.array_equal(b, b0)

    cfg = (
        "seed = 1\n"
        'run.filed.model.family = "lasso"\n'
        f'run.filed.model.file_A = "{prefix}_A.txt"\n'
        f'run.filed.model.file_b = "{prefix}_b.txt"\n'
        "run.filed.model.lam = 0.3\n"
        "run.filed.iterations = 20\n"
    )
    spec = cli.parse_config(write(tmp_path, cfg, name="filed.cfg"))
    results, code = cli.run_experiment(spec, output_dir=str(tmp_path / "fo"))
    assert code == 0


def test_certify_matches_and_detects_tampering(tmp_path):
    spec_path = write(tmp_path, TWO_RUN)
    out = tmp_path / "out"
    cli.run_experiment(cli.parse_config(spec_path), output_dir=str(out))
    trace = str(out / "bcm.trace.csv")
    report, code = cli.certify(trace, spec_path)
    assert code == 0
    assert report["match"] is True

    tampered = out / "bcm.trace.csv"
    text = tampered.read_text().splitlines()
    text[5] = text[5].replace(text[5].split(",")[1], "999.0", 1)
    tampered.write_text("\n".join(text) + "\n")
    report2, code2 = cli.certify(trace, spec_path)
    assert code2 == 2


def test_certify_matches_a_renamed_trace_only_to_a_config_of_one_run(tmp_path, capsys):
    one = write(tmp_path, "seed = 5\n" + run_text("solo", LASSO_20x50, iterations=20),
                name="one.cfg")
    cli.run_experiment(cli.parse_config(one), output_dir=str(tmp_path / "out"))
    renamed = tmp_path / "other.trace.csv"
    os.replace(tmp_path / "out" / "solo.trace.csv", renamed)
    report, code = cli.certify(str(renamed), one)
    assert (code, report["match"], report["run_id"]) == (0, True, "solo")

    two = write(tmp_path, TWO_RUN, name="two.cfg")
    with pytest.raises(ConfigError, match="cannot match trace to a unique run") as err:
        cli.certify(str(renamed), two)
    assert "'bcpg'" in str(err.value) and "'bcm'" in str(err.value)
    assert cli.main(["certify", str(renamed), two]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_main_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["run", missing]) == 1

    bad = write(tmp_path, 'run.x.model.family = "unknown-family"\n', name="bad2.cfg")
    assert cli.main(["run", bad]) == 1

    ok = write(tmp_path, MINIMAL, name="ok.cfg")
    code = cli.main(["run", ok, "-o", str(tmp_path / "mo")])
    assert code == 0
    out = capsys.readouterr().out
    assert "demo: ok" in out


def test_output_dir_env_override(tmp_path, monkeypatch):
    spec = cli.parse_config(write(tmp_path, MINIMAL))
    target = tmp_path / "env-out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    cli.run_experiment(spec)
    assert (target / "demo.trace.csv").exists()


# family -> (generator params, builder and run fields shared by both runs,
#            file keys -> generated array names)
GEN_FILE_CASES = {
    "lasso": ({"m": 10, "n": 6, "density": 0.7}, {"model.lam": 0.4, "surrogate": "exact"},
              {"file_A": "A", "file_b": "b"}),
    "l2svm": ({"rows": 25, "n": 4}, {"model.l1_weight": 0.2, "surrogate": "exact"},
              {"file_rows": "rows"}),
    "quadratic": ({"sizes": [2, 3], "rank_deficit": 1}, {"model.blocks": [2, 3]},
                  {"file_Q": "Q", "file_c": "c"}),
}


@pytest.mark.parametrize("family", sorted(GEN_FILE_CASES))
def test_run_from_gen_files_writes_the_generated_runs_trace(tmp_path, family):
    gen_params, shared, file_keys = GEN_FILE_CASES[family]
    prefix = str(tmp_path / "inst")
    cli.generate_instance(family, dict(gen_params, seed=21), prefix)
    lines = ["seed = 1"]
    for run_id, model in (("generated", dict(gen_params, seed=21)),
                          ("filed", {k: f"{prefix}_{v}.txt" for k, v in file_keys.items()})):
        lines.append(f"run.{run_id}.model.family = {json.dumps(family)}")
        for key, value in model.items():
            lines.append(f"run.{run_id}.model.{key} = {json.dumps(value)}")
        for key, value in shared.items():
            lines.append(f"run.{run_id}.{key} = {json.dumps(value)}")
        lines.append(f"run.{run_id}.iterations = 15")
    spec = cli.parse_config(write(tmp_path, "\n".join(lines) + "\n"))
    out = tmp_path / "out"
    results, code = cli.run_experiment(spec, output_dir=str(out))
    assert [r.error for r in results] == [None, None]
    assert (out / "filed.trace.csv").read_bytes() == (out / "generated.trace.csv").read_bytes()


def run_text(run_id: str, model: dict, **fields) -> str:
    lines = [f"run.{run_id}.model.{key} = {json.dumps(value)}" for key, value in model.items()]
    lines += [f"run.{run_id}.{key} = {json.dumps(value)}" for key, value in fields.items()]
    return "\n".join(lines) + "\n"


LASSO_20x50 = {"family": "lasso", "m": 20, "n": 50, "lam": 2.0, "seed": 101}
QUAD_ONE_BLOCK = {"family": "quadratic", "sizes": [3], "seed": 5}
TWO_BLOCK = {"family": "two-block-quadratic", "n_inner": 3, "n_outer": 4, "seed": 6}


def test_suites_drop_the_planned_checks_they_do_not_name(tmp_path):
    # a lasso prox-linear Gauss-Seidel run plans gs-ec descent, gs cost-to-go
    # and the bsum-gs envelope
    for suites, checks, envelopes in ((["descent"], [("sufficient-descent", "gs-ec")], []),
                                      (["envelope"], [], ["bsum-gs"])):
        text = f"seed = 1\nsuites = {json.dumps(suites)}\n" \
            + run_text("r", LASSO_20x50, iterations=30)
        spec = cli.parse_config(write(tmp_path, text, name=f"{suites[0]}.cfg"))
        (res,), code = cli.run_experiment(spec, output_dir=str(tmp_path / suites[0]))
        assert code == 0 and res.error is None
        assert [(c.check_id, c.variant) for c in res.checks] == checks
        assert [e["id"] for e in res.envelopes] == envelopes


def test_tolerance_stops_the_run_at_the_gap(tmp_path):
    text = "seed = 1\n" + run_text("tol", LASSO_20x50, iterations=300, tolerance=1.0) \
        + run_text("full", LASSO_20x50, iterations=300)
    results, code = cli.run_experiment(cli.parse_config(write(tmp_path, text)),
                                       output_dir=str(tmp_path / "out"))
    tol, full = results
    assert tol.error is None and full.error is None
    assert tol.trace.n_iterations < 300 and full.trace.n_iterations == 300
    assert tol.final_delta <= 1.0 < tol.trace.deltas()[-2]
    # up to the stop, the runs are the same run
    assert np.array_equal(tol.trace.fvals(), full.trace.fvals()[:tol.trace.n_iterations + 1])


@pytest.mark.parametrize("model,fields,message", [
    (QUAD_ONE_BLOCK, {"algorithm": "sum", "rule": "mbi"}, "gauss-seidel only"),
    (QUAD_ONE_BLOCK, {"algorithm": "sum", "rule": "random-permutation"}, "gauss-seidel only"),
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0,
                 "rule": "essentially-cyclic", "period_map": [[0], [1]]}, "gauss-seidel only"),
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0, "tolerance": 0.5},
     "no gap tolerance"),
    # no run reads these: the rule and the surrogate decide what a trace records
    (LASSO_20x50, {"record_virtual": True}, "unknown fields"),
    (LASSO_20x50, {"surrogate": "exact", "record_grad_diffs": False}, "unknown fields"),
    (LASSO_20x50, {"rule": "mbi", "record_virtual": False}, "unknown fields"),
    # each field the run would not read names the algorithm, rule or surrogate that reads it
    (LASSO_20x50, {"outer": 1}, "'outer' applies to algorithm 'a2bsum' only"),
    (QUAD_ONE_BLOCK, {"algorithm": "sum", "inner": 0}, "'inner' applies to algorithm 'a2bsum'"),
    (LASSO_20x50, {"schedule_seed": 3},
     "'schedule_seed' applies to rule 'random-permutation' only"),
    (LASSO_20x50, {"rule": "mbi", "schedule_seed": 3}, "'schedule_seed' applies to rule"),
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0, "surrogate": "exact"},
     "'surrogate' applies to algorithm 'bsum' or 'sum' only"),
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0,
                 "surrogate_kinds": ["exact", "exact"]},
     "'surrogate_kinds' applies to algorithm 'bsum' or 'sum' only"),
    (TWO_BLOCK, {"surrogate": "exact", "surrogate_kinds": ["exact", "prox-linear"]},
     "'surrogate_kinds' applies to surrogate 'mixed' only"),
    # rejected whatever the value, the default included: no a2bsum run reads it
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0, "tolerance": 0},
     "no gap tolerance"),
    # the family fixes the block count, and the specialization cannot run on it
    (LASSO_20x50, {"algorithm": "sum"},
     "algorithm 'sum' needs a block count of 1; family 'lasso' gives 50"),
    (TWO_BLOCK, {"algorithm": "sum", "surrogate": "exact"},
     "algorithm 'sum' needs a block count of 1; family 'two-block-quadratic' gives 2"),
    ({"family": "group-lasso", "m": 8, "sizes": [2, 3, 2], "seed": 3},
     {"algorithm": "a2bsum", "outer": 1, "inner": 0},
     "algorithm 'a2bsum' needs a block count of 2; family 'group-lasso' gives 3"),
    (QUAD_ONE_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0},
     "algorithm 'a2bsum' needs a block count of 2; family 'quadratic' gives 1"),
    ({"family": "fermat-weber", "terms": 4, "n": 2, "eta": 0.1, "seed": 3},
     {"algorithm": "a2bsum", "outer": 1, "inner": 0},
     "algorithm 'a2bsum' needs a block count of 2; family 'fermat-weber' gives 1"),
])
def test_parse_rejects_fields_an_algorithm_ignores(tmp_path, model, fields, message):
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(write(tmp_path, run_text("r", model, **fields)))


def test_a_specialization_off_its_block_count_exits_1_before_any_run(tmp_path, capsys):
    path = write(tmp_path, run_text("r", LASSO_20x50, algorithm="sum"))
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    assert ("config error: run 'r': algorithm 'sum' needs a block count of 1; "
            "family 'lasso' gives 50") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields,message", [
    ({"period_map": [[7]]}, "period map is an essentially-cyclic parameter"),
    ({"rule": "mbi", "period_map": [[0, 1, 2]]}, "period map is an essentially-cyclic"),
    ({"q": 0.9}, "q is a gauss-southwell parameter"),
    ({"rule": "random-permutation", "q": 0.5}, "q is a gauss-southwell parameter"),
    # rejected whatever the value, the default included: only gauss-southwell reads it
    ({"q": 1.0}, "q is a gauss-southwell parameter"),
    ({"rule": "mbi", "q": 1.0}, "q is a gauss-southwell parameter"),
])
def test_parse_rejects_rule_parameters_the_rule_ignores(tmp_path, fields, message):
    model = {"family": "lasso", "m": 8, "n": 3, "lam": 0.5}
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(write(tmp_path, run_text("r", model, **fields)))


# one model per family with a key it cannot do without left out
MISSING_KEY_EXAMPLES = [
    ({"family": "lasso", "n": 5, "lam": 0.5}, "m"),
    ({"family": "lasso", "file_A": "A.txt", "file_b": "b.txt"}, "lam"),
    ({"family": "group-lasso", "m": 8}, "sizes"),
    ({"family": "logistic", "rows": 12}, "n"),
    ({"family": "l2svm", "n": 3}, "rows"),
    ({"family": "quadratic", "blocks": [1, 2]}, "sizes"),
    ({"family": "two-block-quadratic", "n_inner": 2}, "n_outer"),
    ({"family": "fermat-weber", "terms": 4, "n": 2}, "eta"),
]


@pytest.mark.parametrize("model,key", MISSING_KEY_EXAMPLES)
def test_parse_rejects_a_missing_model_key(tmp_path, model, key):
    assert {m["family"] for m, _ in MISSING_KEY_EXAMPLES} == set(models.FAMILIES)
    with pytest.raises(ConfigError, match=rf"missing model fields \['{key}'\]"):
        cli.parse_config(write(tmp_path, run_text("r", model)))


FW = {"family": "fermat-weber", "terms": 6, "n": 3, "eta": 0.1, "seed": 19}


def build_fermat_weber_l1(model, default_seed):
    """The config's fermat-weber model plus 0.5|x|_1, which sends every
    reweighting step through the inner prox loop (no config key asks for it)."""
    P = models.FAMILIES["fermat-weber"].generate(model, int(model["seed"]))["P"]
    return models.build_irls([np.eye(P.shape[1])] * len(P), [-pt for pt in P],
                             float(model["eta"]), l1_weight=0.5)


def test_capped_inner_prox_loop_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_model", build_fermat_weber_l1)
    spec = cli.parse_config(write(tmp_path, "seed = 1\n" + run_text(
        "fw", FW, surrogate="model-custom", iterations=5)))
    results, code = cli.run_experiment(spec, output_dir=str(tmp_path / "free"))
    assert code == 0 and results[0].trace.meta.get("warnings", []) == []
    monkeypatch.setattr(models, "PROX_LOOP_CAP", 1)
    results, _ = cli.run_experiment(spec, output_dir=str(tmp_path / "capped"))
    report = json.loads((tmp_path / "capped" / "fw.report.json").read_text())
    # the reference solve sweeps the same bound, so its loops hit the cap too
    capped = results[0].reference.capped_solves
    assert capped > 0
    assert report["warnings"] == ["inner loop hit its cap: 5 times",
                                  f"reference inner loop hit its cap: {capped} times"]


def test_capped_reference_prox_loop_is_reported(tmp_path, monkeypatch):
    # a prox-linear run has no inner loop of its own; its reference sweeps the
    # reweighting bound, whose every step is an inner prox loop
    monkeypatch.setattr(cli, "build_model", build_fermat_weber_l1)
    spec = cli.parse_config(write(tmp_path, "seed = 1\n" + run_text(
        "fw", FW, surrogate="prox-linear", iterations=5)))
    results, code = cli.run_experiment(spec, output_dir=str(tmp_path / "free"))
    assert code == 0 and results[0].reference.capped_solves == 0
    assert results[0].trace.meta.get("warnings", []) == []
    monkeypatch.setattr(models, "PROX_LOOP_CAP", 1)
    results, _ = cli.run_experiment(spec, output_dir=str(tmp_path / "capped"))
    ref = results[0].reference
    assert 0 < ref.capped_solves <= ref.sweeps  # one block solve per sweep
    report = json.loads((tmp_path / "capped" / "fw.report.json").read_text())
    assert report["warnings"] == [f"reference inner loop hit its cap: "
                                  f"{ref.capped_solves} times"]


def test_matrix_runs_carry_no_warnings(matrix_outcome):
    for run_id, result in matrix_outcome["results"].items():
        assert result.trace.meta.get("warnings", []) == [], run_id


def test_a_negative_l1_weight_is_a_run_error(tmp_path):
    # the builder refuses it: the run neither passes nor fails a check
    text = run_text("svm", {"family": "l2svm", "rows": 30, "n": 4, "l1_weight": -1.0,
                            "seed": 1}, surrogate="exact") \
        + run_text("logit", {"family": "logistic", "rows": 30, "n": 4, "weight": -0.5})
    results, code = cli.run_experiment(cli.parse_config(write(tmp_path, text)),
                                       output_dir=str(tmp_path / "out"))
    assert code == 2
    assert [r.error for r in results] == ["ValueError: l1 weight must be nonnegative"] * 2
    for run_id in ("svm", "logit"):
        report = json.loads((tmp_path / "out" / f"{run_id}.report.json").read_text())
        assert report["error"]["message"] == "l1 weight must be nonnegative"


def test_quadratic_blocks_partition_a_generated_q(tmp_path):
    model = {"family": "quadratic", "sizes": [2, 2, 2], "blocks": [3, 3], "seed": 7}
    text = run_text("two", model, rule="essentially-cyclic", period_map=[[0], [1]],
                    iterations=10)
    results, code = cli.run_experiment(cli.parse_config(write(tmp_path, text)),
                                       output_dir=str(tmp_path / "out"))
    assert results[0].error is None and code == 0
    assert results[0].problem.partition.sizes == (3, 3)
    text = run_text("three", model, rule="essentially-cyclic", period_map=[[0], [1], [2]])
    with pytest.raises(ConfigError, match="out-of-range block index 2"):
        cli.parse_config(write(tmp_path, text, name="three.cfg"))


@pytest.mark.parametrize("model", [
    {"family": "lasso", "file_A": "A.txt", "lam": 1.0},
    {"family": "lasso", "file_A": "A.txt", "file_b": "b.txt", "lam": 1.0, "m": 5, "n": 3},
    {"family": "lasso", "file_A": "A.txt", "file_b": "b.txt", "lam": 1.0, "density": 0.5},
    {"family": "l2svm", "file_rows": "rows.txt", "rows": 20, "n": 3},
    {"family": "quadratic", "file_Q": "Q.txt"},
    {"family": "quadratic", "file_Q": "Q.txt", "file_c": "c.txt", "sizes": [2]},
    {"family": "quadratic", "file_Q": "Q.txt", "file_c": "c.txt", "rank_deficit": 1},
    # a seed would only echo into the report: the files fix the arrays
    {"family": "lasso", "file_A": "A.txt", "file_b": "b.txt", "lam": 1.0, "seed": 5},
])
def test_parse_rejects_partial_or_mixed_file_keys(tmp_path, model):
    with pytest.raises(ConfigError, match="come together and replace the fields"):
        cli.parse_config(write(tmp_path, run_text("r", model)))


@pytest.mark.parametrize("model,fields", [
    (LASSO_20x50, {}),
    (QUAD_ONE_BLOCK, {"algorithm": "sum", "surrogate": "exact"}),
    (TWO_BLOCK, {"algorithm": "a2bsum", "outer": 1, "inner": 0}),
], ids=["bsum", "sum", "a2bsum"])
def test_compute_auxiliary_is_a_config_error(tmp_path, capsys, model, fields):
    # no run computes an auxiliary step, so the key is unknown to every algorithm
    path = write(tmp_path, run_text("r", model, compute_auxiliary=True, **fields))
    with pytest.raises(ConfigError, match=r"unknown fields \['compute_auxiliary'\]"):
        cli.parse_config(path)
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    assert "config error: run 'r': unknown fields ['compute_auxiliary']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# one example model per family; the family's declared block count must be the
# block count of the problem it builds
BLOCK_COUNT_EXAMPLES = [
    {"family": "lasso", "m": 6, "n": 5, "lam": 0.5},
    {"family": "lasso", "m": 6, "n": 5, "lam": 0.5, "blocks": [2, 3]},
    {"family": "group-lasso", "m": 8, "sizes": [2, 3, 1], "deficient": [1]},
    {"family": "logistic", "rows": 12, "n": 4},
    {"family": "l2svm", "rows": 12, "n": 3},
    {"family": "quadratic", "sizes": [2, 2, 1]},
    {"family": "quadratic", "sizes": [2, 2, 1], "blocks": [1, 4]},
    {"family": "two-block-quadratic", "n_inner": 2, "n_outer": 3},
    {"family": "fermat-weber", "terms": 4, "n": 2, "eta": 0.2},
]


def test_declared_block_count_is_the_built_block_count():
    assert {m["family"] for m in BLOCK_COUNT_EXAMPLES} == set(models.FAMILIES)
    for model in BLOCK_COUNT_EXAMPLES:
        declared = models.FAMILIES[model["family"]].block_count(model)
        assert declared == cli.build_model(model, 3).n_blocks, model


LASSO_3 = {"family": "lasso", "m": 6, "n": 3, "lam": 0.5, "seed": 2}


@pytest.mark.parametrize("kinds,message", [
    # every block is exact or prox-linear; model-custom bounds the whole problem
    (["foo", "exact", "model-custom"], "from \\('exact', 'prox-linear'\\)"),
    # one kind per block of the 3-block lasso
    (["exact"], "a list of 3 kinds"),
])
def test_parse_rejects_bad_surrogate_kinds(tmp_path, capsys, kinds, message):
    path = write(tmp_path, "seed = 1\n" + run_text("r", LASSO_3, surrogate="mixed",
                                                   surrogate_kinds=kinds, iterations=3))
    with pytest.raises(ConfigError, match=message):
        cli.parse_config(path)
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: run 'r': mixed surrogate")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line,key", [
    ('seed = "x"', "seed"),
    ('run.r.iterations = "ten"', "iterations"),
    ('run.r.rule = "gauss-southwell"\nrun.r.q = "high"', "q"),
    ('run.r.tolerance = [0.1]', "tolerance"),
    ('run.r.algorithm = "a2bsum"\nrun.r.outer = "one"', "outer"),
    ('run.r.algorithm = "a2bsum"\nrun.r.inner = null', "inner"),
    ('run.r.rule = "random-permutation"\nrun.r.schedule_seed = "s"', "schedule_seed"),
    ('suites = "descent"', "suites"),
    ('run.r.rule = "gauss-southwell"\nrun.r.q = NaN', "q"),
    ('run.r.tolerance = NaN', "tolerance"),
    ('run.r.tolerance = Infinity', "tolerance"),
    ('run.r.iterations = Infinity', "iterations"),
    ('seed = -Infinity', "seed"),
    # integer fields take integers only, nothing truncated or cast
    ('seed = 7.9', "seed"),
    ('run.r.iterations = 2.5', "iterations"),
    ('run.r.iterations = true', "iterations"),
    ('run.r.rule = "random-permutation"\nrun.r.schedule_seed = 1.7', "schedule_seed"),
    ('run.r.rule = "essentially-cyclic"\nrun.r.period_map = [[0.9, "1"], [true, 3, 2]]',
     "period_map"),
    ('run.r.rule = "essentially-cyclic"\nrun.r.period_map = 3', "period_map"),
    ('run.r.rule = "gauss-southwell"\nrun.r.q = true', "q"),
    ('run.r.tolerance = false', "tolerance"),
    ('run.r.compute_auxiliary = "no"', "compute_auxiliary"),
    ('output_dir = 5', "output_dir"),
    ('run.s.model.family = ["lasso"]', "family"),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, line, key):
    model = {"family": "two-block-quadratic", "n_inner": 2, "n_outer": 3}
    path = write(tmp_path, run_text("r", model) + line + "\n")
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "Traceback" not in err


def test_gen_rejects_an_unknown_key(tmp_path, capsys):
    prefix = str(tmp_path / "gx")
    params = '{"m": 3, "n": 2, "densty": 0.1}'
    assert cli.main(["gen", "lasso", "--params", params, "-o", prefix]) == 1
    assert "gen error: unknown model fields ['densty']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("params", ["3", "[1, 2]", '"m"', "null"])
def test_gen_rejects_params_that_are_not_an_object(tmp_path, capsys, params):
    prefix = str(tmp_path / "gx")
    assert cli.main(["gen", "lasso", "--params", params, "-o", prefix]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gen error: params must be a JSON object") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model,key", [
    ({"family": "lasso", "m": 6, "n": "ten", "lam": 0.5}, "n"),
    ({"family": "lasso", "m": 6, "n": 4, "lam": "big"}, "lam"),
    ({"family": "lasso", "m": 6, "n": 4, "lam": 0.5, "density": True}, "density"),
    ({"family": "lasso", "m": 6, "n": 4, "lam": 0.5, "blocks": 4}, "blocks"),
    ({"family": "lasso", "m": 6, "n": 4, "lam": 0.5, "seed": 1.5}, "seed"),
    ({"family": "group-lasso", "m": 6, "sizes": [2, "x"]}, "sizes"),
    ({"family": "group-lasso", "m": 6, "sizes": [2, 2], "deficient": ["1"]}, "deficient"),
    ({"family": "logistic", "rows": None, "n": 3}, "rows"),
    ({"family": "quadratic", "sizes": [2], "rank_deficit": "1"}, "rank_deficit"),
    ({"family": "two-block-quadratic", "n_inner": 2, "n_outer": 3, "min_pos": [1e-3]},
     "min_pos"),
    ({"family": "fermat-weber", "terms": 4, "n": 2, "eta": "0.1"}, "eta"),
    ({"family": "lasso", "m": 6, "n": 4, "lam": float("nan")}, "lam"),
    ({"family": "group-lasso", "m": 6, "sizes": [2, 2], "weight": float("inf")}, "weight"),
    ({"family": "fermat-weber", "terms": 4, "n": 2, "eta": float("nan")}, "eta"),
    ({"family": "l2svm", "rows": 6, "n": 2, "l1_weight": float("-inf")}, "l1_weight"),
])
def test_bad_model_values_are_config_errors(tmp_path, capsys, model, key):
    path = write(tmp_path, run_text("r", model))
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run 'r': model field {key!r} must be ")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,key", [
    # fd 1 and fd 0: open() would close stdout or read stdin
    ({"family": "lasso", "file_A": "A.txt", "file_b": 1, "lam": 0.5}, "file_b"),
    ({"family": "lasso", "file_A": 0, "file_b": "b.txt", "lam": 0.5}, "file_A"),
    ({"family": "l2svm", "file_rows": True}, "file_rows"),
    ({"family": "quadratic", "file_Q": ["Q.txt"], "file_c": "c.txt"}, "file_Q"),
])
def test_file_keys_that_are_not_strings_are_config_errors(tmp_path, capsys, model, key):
    path = write(tmp_path, run_text("r", model))
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: run 'r': model field {key!r} must be a string, "
                   f"not {model[key]!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run_id", ["elsewhere/x", "a/b", "a,b"],
                         ids=["absolute-path", "slash", "comma"])
def test_run_ids_outside_the_name_pattern_are_config_errors(tmp_path, capsys, run_id):
    # an absolute id would write its artifacts outside -o, a slash would fail
    # the trace write, and a comma would add a field to its summary.csv row
    if run_id.startswith("elsewhere"):
        run_id = str(tmp_path / run_id)
        assert "." not in run_id  # a dot would end the id early
    path = write(tmp_path, run_text(run_id, LASSO_3, iterations=3))
    assert cli.main(["run", path, "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"config error: 'run_id' must be a name matching [A-Za-z0-9_-]+, not {run_id!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_gen_rejects_a_family_key(tmp_path, capsys):
    # the family is gen's argument, not one of its params
    params = '{"family": "logistic", "m": 3, "n": 2}'
    assert cli.main(["gen", "lasso", "--params", params, "-o", str(tmp_path / "gx")]) == 1
    assert "gen error: unknown model fields ['family']" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_non_finite_numbers(tmp_path, capsys):
    params = '{"m": 3, "n": 2, "density": NaN}'
    assert cli.main(["gen", "lasso", "--params", params, "-o", str(tmp_path / "gx")]) == 1
    assert "gen error: model field 'density' must be a finite number, not nan" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("array", ["A", "b"], ids=["A-error", "b-error"])
def test_a_nan_read_from_a_file_fails_the_run(tmp_path, array):
    prefix = str(tmp_path / "inst")
    cli.generate_instance("lasso", {"m": 6, "n": 4, "seed": 3}, prefix)
    path = Path(f"{prefix}_{array}.txt")
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, " ".join(["nan", *first.split()[1:]]), *rest]) + "\n")
    model = {"family": "lasso", "file_A": f"{prefix}_A.txt", "file_b": f"{prefix}_b.txt",
             "lam": 0.5}
    out = tmp_path / "out"
    code = cli.main(["run", write(tmp_path, run_text("r", model, surrogate="exact",
                                                     iterations=5)), "-o", str(out)])
    assert code != 0
    assert (out / "summary.csv").read_text().splitlines()[1].endswith(",error")
    error = json.loads((out / "r.report.json").read_text())["error"]
    assert error["type"] == "ValueError"
    assert error["message"] == f"{path}: line 2, token 1: 'nan' is not a finite number"


def zero_column_runs(tmp_path) -> str:
    """A lasso and a prox-linear and an exact l2svm on file data, each with
    one all-zero column (column 2 of A, column 1 of the rows): their config."""
    for family, params, name, column in (("lasso", {"m": 12, "n": 6}, "A", 2),
                                         ("l2svm", {"rows": 30, "n": 4}, "rows", 1)):
        prefix = str(tmp_path / family)
        cli.generate_instance(family, dict(params, seed=3), prefix)
        M = models.read_matrix(f"{prefix}_{name}.txt")
        M[:, column] = 0.0
        Path(f"{prefix}_{name}.txt").write_text(models.matrix_text(M))
    lasso = {"family": "lasso", "file_A": f"{tmp_path}/lasso_A.txt",
             "file_b": f"{tmp_path}/lasso_b.txt", "lam": 0.5}
    svm = {"family": "l2svm", "file_rows": f"{tmp_path}/l2svm_rows.txt"}
    return write(tmp_path, "seed = 1\n" + run_text("lasso", lasso, iterations=5)
                 + run_text("svm_pl", svm, iterations=5)
                 + run_text("svm_ex", svm, surrogate="exact", iterations=5))


def test_an_all_zero_column_is_an_error_that_names_its_block(tmp_path):
    # g does not depend on such a block, so its prox-linear step constant
    # L_k is 0; the exact squared-hinge solve needs none
    out = tmp_path / "out"
    results, code = cli.run_experiment(cli.parse_config(zero_column_runs(tmp_path)),
                                       output_dir=str(out))
    assert code == 2 and results[2].error is None and results[2].all_passed
    for run_id, block in (("lasso", 2), ("svm_pl", 1)):
        error = json.loads((out / f"{run_id}.report.json").read_text())["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"g does not depend on blocks [{block}]: "
                                           "their declared Lipschitz constant L_k is 0")
        assert error["where"].startswith("surrogate.py:")


def test_an_exact_lasso_on_an_all_zero_column_names_its_block(tmp_path):
    # the lasso's exact coordinate step divides by ||A_j||^2, so the model
    # registers no exact solver; the error says which column is to blame
    zero_column_runs(tmp_path)
    lasso = {"family": "lasso", "file_A": f"{tmp_path}/lasso_A.txt",
             "file_b": f"{tmp_path}/lasso_b.txt", "lam": 0.5}
    config = write(tmp_path, "seed = 1\n" + run_text("ex", lasso, surrogate="exact",
                                                     iterations=5))
    out = tmp_path / "out"
    results, code = cli.run_experiment(cli.parse_config(config), output_dir=str(out))
    assert code == 2 and results[0].error is not None
    error = json.loads((out / "ex.report.json").read_text())["error"]
    assert error["type"] == "UnsupportedCombination"
    assert error["message"] == (
        "model 'lasso' registers no exact block solver; g does not depend on blocks [2]: "
        "their declared Lipschitz constant L_k is 0 (an all-zero data column gives this)")


def test_certify_reports_a_rerun_that_raises_on_one_line(tmp_path, capsys):
    config = zero_column_runs(tmp_path)
    code = cli.main(["certify", str(tmp_path / "lasso.trace.csv"), config, "--run-id", "lasso"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certify error: ValueError: g does not depend on blocks [2]")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    name, line = captured.err.rstrip().rsplit(" (", 1)[1].rstrip(")").split(":")
    source = (Path(models.__file__).parent / name).read_text(encoding="utf-8").splitlines()
    assert "raise ValueError" in source[int(line) - 1]


def build_nan_lasso(model, default_seed):
    """The config's lasso with a NaN in b, which no matrix file can carry."""
    family = models.FAMILIES["lasso"]
    arrays = family.generate(model, int(model["seed"]))
    arrays["b"][0] = np.nan
    return family.build(arrays, model)


def nan_objective_run(tmp_path, monkeypatch) -> tuple[str, Path]:
    """A lasso run whose objective is NaN throughout: its config and output."""
    monkeypatch.setattr(cli, "build_model", build_nan_lasso)
    model = {"family": "lasso", "m": 6, "n": 4, "lam": 0.5, "seed": 3}
    config, out = write(tmp_path, run_text("r", model, iterations=3)), tmp_path / "out"
    assert cli.main(["run", config, "-o", str(out)]) != 0
    return config, out


def test_a_nan_objective_is_recorded_as_nan(tmp_path, monkeypatch):
    # NaN is not +inf: the trace keeps it as NaN, and the report, which is
    # JSON, has no NaN and writes null
    _, out = nan_objective_run(tmp_path, monkeypatch)
    assert (out / "summary.csv").read_text().splitlines()[1].endswith(",false")
    report = json.loads((out / "r.report.json").read_text())
    assert report["reference"]["f_star"] is None and report["reference"]["gap"] is None
    # the objective is NaN from the start: the reference stops at once
    assert report["reference"]["converged"] is False and report["reference"]["sweeps"] == 0
    assert report["checks"] and not any(c["passed"] for c in report["checks"])
    assert not any(e["passed"] for e in report["envelopes"])
    f_column = [line.split(",")[1] for line in (out / "r.trace.csv").read_text().splitlines()]
    assert f_column[0] == "f" and all(v.lower() == "nan" for v in f_column[1:])


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259 does."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_reports_with_non_finite_values_are_strict_json(tmp_path, monkeypatch):
    config, out = nan_objective_run(tmp_path, monkeypatch)
    report = strict_json((out / "r.report.json").read_text())
    assert report["final_delta"] is None and not report["all_passed"]
    assert report["checks"] and all(c["max_violation"] is None for c in report["checks"]
                                    if not c["passed"])
    certified = tmp_path / "certify.json"
    assert cli.main(["certify", str(out / "r.trace.csv"), config, "-o", str(certified)]) == 3
    assert strict_json(certified.read_text())["match"] is True


GLASSO_SMALL = {"family": "group-lasso", "m": 8, "sizes": [2, 2], "weight": 0.3, "seed": 5}


def build_boxed_group_lasso(model, default_seed):
    """The config's group lasso with its first block held in a box, which the
    exact group solve does not support."""
    arrays = models.FAMILIES["group-lasso"].generate(model, int(model["seed"]))
    return models.build_group_lasso([arrays["A0"], arrays["A1"]], arrays["b"].ravel(), 0.3,
                                    constraints=[bk.box(-np.ones(2), np.ones(2)),
                                                 bk.all_space(2)])


def test_failed_run_reports_its_error_and_where_it_was_raised(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "seed = 1\n" + run_text("boxed", GLASSO_SMALL, surrogate="exact"))
    out = tmp_path / "out"
    assert cli.main(["run", path, "-o", str(out)]) == 0
    assert (out / "boxed.trace.csv").exists()
    monkeypatch.setattr(cli, "build_model", build_boxed_group_lasso)
    assert cli.main(["run", path, "-o", str(out)]) == 2
    report = json.loads((out / "boxed.report.json").read_text())
    assert sorted(report) == ["error", "run_id"] and report["run_id"] == "boxed"
    error = report["error"]
    assert error["type"] == "UnsupportedCombination"
    assert error["message"] == "exact group solve needs an unconstrained block"
    name, line = error["where"].split(":")
    assert name == "models.py"
    source = Path(models.__file__).read_text(encoding="utf-8").splitlines()
    assert "raise UnsupportedCombination" in source[int(line) - 1]
    assert "boxed: error (UnsupportedCombination: exact group solve" in capsys.readouterr().out
    assert (out / "summary.csv").read_text().splitlines()[1] == "boxed,gauss-seidel,exact,,,error"
    assert not (out / "boxed.trace.csv").exists()


def test_capped_newton_iteration_of_the_group_solve_is_reported(tmp_path, monkeypatch):
    # the exact surrogate's sweeps are the model's own loop; the mixed one
    # solves its exact block per block
    text = "seed = 1\n" + run_text("ex", GLASSO_SMALL, surrogate="exact", iterations=5) + \
        run_text("mix", GLASSO_SMALL, surrogate="mixed", surrogate_kinds=["exact", "prox-linear"],
                 iterations=5)
    spec = cli.parse_config(write(tmp_path, text))
    results, code = cli.run_experiment(spec, output_dir=str(tmp_path / "free"))
    assert code == 0 and [r.trace.meta["warnings"] for r in results] == [[], []]
    monkeypatch.setattr(models, "SECULAR_MAX_ITER", 1)
    results, _ = cli.run_experiment(spec, output_dir=str(tmp_path / "capped"))
    for result in results:
        capped = result.reference.capped_solves
        assert capped > 0
        report = json.loads((tmp_path / "capped" / f"{result.run_id}.report.json").read_text())
        # capped group solves leave the reference at its start, and its gap
        # refutes convergence
        assert not result.reference.converged
        not_converged, run_warning, ref_warning = report["warnings"]
        assert not_converged.startswith("reference did not converge: ")
        assert run_warning.startswith("inner loop hit its cap: ")
        assert ref_warning == f"reference inner loop hit its cap: {capped} times"
