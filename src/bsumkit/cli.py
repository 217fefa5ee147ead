"""Batch front end: parse experiment configs, run solves, emit traces and reports.

Config format: one `key = value` per line, dotted keys for sections, values
in JSON (strings quoted, lists bracketed).  Unknown keys are rejected.
Artifacts per run: a trace CSV with the stable header
`r,f,delta,step_sq,virt_step_sq,grad_diff_sq,blocks`, a JSON
report with the certificate and check results, plus one summary CSV per
experiment.  Identical config, seed and BLAS thread count produce
byte-identical artifacts; the thread count can change the last digits of
BLAS results (the declared M), so a rerun under another count rewrites them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import re
import stat
import sys
import traceback
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import models
from .diagnostics import (
    FD_TOLERANCE,
    SUITES,
    CheckReport,
    _report,
    check_cost_to_go,
    check_rate_envelope,
    check_sufficient_descent,
    check_nesterov_inequality,
    estimate_constants,
    fd_gradient_check,
    fit_decay_exponent,
    plan_checks,
    sigma_for,
)
from .engine import ReferenceSolution, Trace, reference_solve, run_a2bsum, run_bsum, run_sum
from .problem import Problem, is_integer, is_number, project_feasible
from .schedule import make_schedule, period_map_slots
from .surrogate import check_block_kinds, make_surrogate

OUTPUT_DIR_ENV = "BSUMKIT_OUTPUT_DIR"
TRACE_HEADER = "r,f,delta,step_sq,virt_step_sq,grad_diff_sq,blocks"
SURROGATE_KINDS = ("exact", "prox-linear", "mixed", "model-custom")
ALGORITHMS = ("bsum", "sum", "a2bsum")
_RUN_ID = re.compile(r"[A-Za-z0-9_-]+").fullmatch  # run ids name artifact files and CSV cells


class ConfigError(ValueError):
    pass


def _read_by(algorithms=None, rules=None, surrogates=None) -> dict:
    """Field metadata: the algorithms, rules and surrogates whose runs read the field."""
    return {"algorithm": algorithms, "rule": rules, "surrogate": surrogates}


@dataclass
class RunConfig:
    """One run.  A field declared with _read_by is rejected at parse time in
    a run that would not read it; q and period_map belong to make_schedule,
    and parse_config rejects an explicit q, even 1.0, off gauss-southwell."""

    run_id: str
    model: dict
    surrogate: str = field(default="prox-linear", metadata=_read_by(("bsum", "sum")))
    surrogate_kinds: Optional[tuple[str, ...]] = field(
        default=None, metadata=_read_by(("bsum", "sum"), surrogates=("mixed",)))
    rule: str = "gauss-seidel"
    q: float = 1.0
    period_map: Optional[tuple[tuple[int, ...], ...]] = None
    iterations: int = 200
    tolerance: float = 0.0
    algorithm: str = "bsum"
    outer: int = field(default=1, metadata=_read_by(("a2bsum",)))
    inner: int = field(default=0, metadata=_read_by(("a2bsum",)))
    schedule_seed: Optional[int] = field(
        default=None, metadata=_read_by(rules=("random-permutation",)))


RUN_KEYS = {f.name for f in fields(RunConfig)} - {"run_id"}


@dataclass
class ExperimentSpec:
    seed: int
    runs: list[RunConfig]
    suites: tuple[str, ...] = ("descent", "cost-to-go", "envelope")
    output_dir: Optional[str] = None


@dataclass
class RunResult:
    run_id: str
    config: RunConfig
    problem: Problem
    trace: Trace
    reference: ReferenceSolution
    certificate: Optional[object]
    checks: list = field(default_factory=list)
    envelopes: list = field(default_factory=list)
    fitted_slope: Optional[float] = None
    final_delta: float = float("nan")
    all_passed: bool = True
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# config parsing


def _parse_lines(path: str) -> dict:
    flat = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                parsed = json.loads(value.strip())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: bad JSON value for {key!r}: {exc}")
            if key in flat:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            flat[key] = parsed
    return flat


def _one_of(choices) -> tuple:
    return "one of " + ", ".join(map(repr, choices)), lambda v: isinstance(v, str) and v in choices


INTEGER = ("an integer", is_integer)
NUMBER = ("a finite number", is_number)
INTEGERS = ("a list of integers", lambda v: isinstance(v, list) and all(map(is_integer, v)))
STRING = ("a string", lambda v: isinstance(v, str))

# The kind of every config value: top-level keys, run fields, model fields
# (and so `bsumkit gen` params).  A kind is its description and a test of a
# value, which casts nothing.  The values named in LIBRARY_CHECKED have no
# entry: make_schedule, period_map_slots and check_block_kinds check them.
KINDS = {
    "seed": INTEGER,
    "suites": ("a list of suite names from " + ", ".join(map(repr, SUITES)),
               lambda v: isinstance(v, list) and all(isinstance(s, str) and s in SUITES
                                                      for s in v)),
    "output_dir": STRING,
    "run_id": ("a name matching [A-Za-z0-9_-]+",
               lambda v: isinstance(v, str) and _RUN_ID(v) is not None),
    "surrogate": _one_of(SURROGATE_KINDS),
    "algorithm": _one_of(ALGORITHMS),
    "q": NUMBER,
    "iterations": ("an integer >= 1", lambda v: is_integer(v) and v >= 1),
    "tolerance": ("a finite number >= 0", lambda v: is_number(v) and v >= 0),
    "outer": INTEGER,
    "inner": INTEGER,
    "schedule_seed": INTEGER,
    "family": _one_of(models.FAMILIES),
    **dict.fromkeys(("m", "n", "rows", "terms", "n_inner", "n_outer", "zero_eigs",
                     "rank_deficit"), INTEGER),
    **dict.fromkeys(("lam", "density", "weight", "l1_weight", "eta", "min_pos"), NUMBER),
    **dict.fromkeys(("sizes", "blocks", "deficient"), INTEGERS),
    **dict.fromkeys(("file_A", "file_b", "file_rows", "file_Q", "file_c"), STRING),
}
LIBRARY_CHECKED = ("rule", "period_map", "surrogate_kinds")


def check_kinds(values: dict, where: str = "") -> None:
    """Raise ConfigError naming the first value that is not of the kind KINDS
    declares for its key; the values are left as given."""
    for key, value in values.items():
        if key in LIBRARY_CHECKED:
            continue
        what, holds = KINDS[key]
        if not holds(value):
            raise ConfigError(f"{where}{key!r} must be {what}, not {value!r}")


def parse_config(path: str) -> ExperimentSpec:
    """Strict parse: unknown keys rejected, every value checked against KINDS,
    then the rules that tie fields together."""
    flat = _parse_lines(path)
    runs_raw: dict[str, dict] = {}
    top: dict = {}
    for key, value in flat.items():
        parts = key.split(".")
        if parts[0] == "run":
            if len(parts) < 3:
                raise ConfigError(f"run key {key!r} must look like run.<id>.<field>")
            run_id = parts[1]
            field_path = parts[2:]
            bucket = runs_raw.setdefault(run_id, {})
            if field_path[0] == "model":
                if len(field_path) != 2:
                    raise ConfigError(f"model key {key!r} must look like run.<id>.model.<field>")
                bucket.setdefault("model", {})[field_path[1]] = value
            elif len(field_path) == 1:
                bucket[field_path[0]] = value
            else:
                raise ConfigError(f"unknown run field {'.'.join(field_path)!r} in {key!r}")
        elif len(parts) == 1 and parts[0] in ("seed", "suites", "output_dir"):
            top[parts[0]] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")

    if not runs_raw:
        raise ConfigError("config defines no runs")
    check_kinds(top)
    runs = []
    for run_id, bucket in runs_raw.items():
        check_kinds({"run_id": run_id})
        try:
            unknown = set(bucket) - RUN_KEYS
            if unknown:
                raise ValueError(f"unknown fields {sorted(unknown)}")
            model = bucket.pop("model", {})
            if "family" not in model:
                raise ValueError("model.family is required")
            check_kinds({"family": model["family"]}, "model field ")
            check_kinds(bucket)
            cfg = RunConfig(run_id=run_id, model=model, **bucket)
            if cfg.algorithm != "bsum" and cfg.rule != "gauss-seidel":
                raise ValueError(f"algorithm {cfg.algorithm!r} runs gauss-seidel "
                                 f"only, not {cfg.rule!r}")
            if cfg.algorithm == "a2bsum" and "tolerance" in bucket:
                raise ValueError("algorithm 'a2bsum' has no gap tolerance")
            if "q" in bucket and cfg.rule != "gauss-southwell":
                raise ValueError(f"q is a gauss-southwell parameter; rule {cfg.rule!r} takes none")
            setting = {"algorithm": cfg.algorithm, "rule": cfg.rule, "surrogate": cfg.surrogate}
            for f in fields(RunConfig):
                for what, readers in f.metadata.items():
                    if f.name in bucket and readers is not None and setting[what] not in readers:
                        raise ValueError(f"{f.name!r} applies to {what} "
                                         f"{' or '.join(map(repr, readers))} only")

            family = models.FAMILIES[model["family"]]
            family.check_keys(model.keys() - {"family"})
            check_kinds(model, "model field ")
            n_blocks = family.block_count(model)
            need = {"sum": 1, "a2bsum": 2}.get(cfg.algorithm)  # the block count it runs on
            if need is not None and n_blocks not in (None, need):
                raise ValueError(f"algorithm {cfg.algorithm!r} needs a block count of {need}; "
                                 f"family {model['family']!r} gives {n_blocks}")
            if cfg.surrogate == "mixed":
                cfg.surrogate_kinds = check_block_kinds(cfg.surrogate_kinds, n_blocks)
            if n_blocks is None:  # only the files fix it
                n_blocks = 1 + max((i for slot in period_map_slots(cfg.period_map or ())
                                    for i in slot), default=0)
            schedule = make_schedule(cfg.rule, n_blocks, period_map=cfg.period_map, q=cfg.q,
                                     seed=cfg.schedule_seed)
        except ValueError as exc:
            raise ConfigError(f"run {run_id!r}: {exc}") from None
        cfg.period_map = schedule.period_map
        runs.append(cfg)
    if "suites" in top:
        top["suites"] = tuple(top["suites"])
    return ExperimentSpec(seed=top.pop("seed", 0), runs=runs, **top)


# ---------------------------------------------------------------------------
# model construction


def build_model(model: dict, default_seed: int) -> Problem:
    family = models.FAMILIES[model["family"]]
    if family.file_keys & set(model):
        arrays = {key[len("file_"):]: models.read_matrix(model[key]) for key in family.file_keys}
    else:
        arrays = family.generate(model, int(model.get("seed", default_seed)))
    return family.build(arrays, model)


# ---------------------------------------------------------------------------
# per-run execution and checks


def _run_algorithm(cfg: RunConfig, problem: Problem, surrogate,
                   f_star: Optional[float]) -> Trace:
    meta = {"run_id": cfg.run_id, "seed": cfg.model.get("seed")}
    if cfg.algorithm == "a2bsum":
        return run_a2bsum(problem, outer=cfg.outer, inner=cfg.inner,
                          iterations=cfg.iterations, meta=meta)
    if cfg.algorithm == "sum":
        return run_sum(problem, surrogate, iterations=cfg.iterations,
                       tol=cfg.tolerance, f_star=f_star, meta=meta)
    schedule = make_schedule(cfg.rule, problem.n_blocks, period_map=cfg.period_map,
                             q=cfg.q, seed=cfg.schedule_seed)
    return run_bsum(
        problem, surrogate, schedule, iterations=cfg.iterations, tol=cfg.tolerance,
        f_star=f_star, meta=meta,
    )


def execute_run(cfg: RunConfig, spec: ExperimentSpec, reference_cache: dict) -> RunResult:
    """One run; reference_cache maps a model and seed to its built Problem
    and ReferenceSolution, so that the runs of one model share both.  A
    Problem holds no per-run state: a run's counts live on its surrogate."""
    key = json.dumps(cfg.model, sort_keys=True) + f"|{spec.seed}"
    cached = reference_cache.get(key)
    problem = build_model(cfg.model, spec.seed) if cached is None else cached[0]
    surrogate = kind = None
    if cfg.algorithm != "a2bsum":
        surrogate = make_surrogate(problem, cfg.surrogate, kinds=cfg.surrogate_kinds)
        kind = surrogate.kind  # a "mixed" surrogate of one kind plans as that kind
    plan = plan_checks({"algorithm": cfg.algorithm, "rule": cfg.rule, "surrogate": kind},
                       surrogate, problem, spec.suites)

    # the reference comes first, so that a gap tolerance can stop the run
    if cached is None:
        cached = reference_cache[key] = (problem, reference_solve(problem))
    ref = cached[1]
    trace = _run_algorithm(cfg, problem, surrogate,
                           f_star=ref.f if cfg.tolerance > 0 else None)
    trace.attach_reference(ref.x, ref.f)
    warnings = trace.meta["warnings"]
    if not ref.converged:
        warnings.append(f"reference did not converge: {ref.sweeps} sweeps, "
                        f"last objective change {ref.last_change:.6g}")
    if surrogate is not None and surrogate.capped_solves:
        warnings.append(f"inner loop hit its cap: {surrogate.capped_solves} times")
    if ref.capped_solves:
        warnings.append(f"reference inner loop hit its cap: {ref.capped_solves} times")

    result = RunResult(run_id=cfg.run_id, config=cfg, problem=problem, trace=trace,
                       reference=ref, certificate=None)
    result.final_delta = float(trace.deltas()[-1])
    try:
        result.fitted_slope = fit_decay_exponent(trace, burn_in=max(1, cfg.iterations // 10))
    except ValueError:
        result.fitted_slope = None

    if surrogate is not None:  # a2bsum has no descent certificate: it is not monotone
        result.certificate = cert = estimate_constants(problem, surrogate, trace)
    for check, variant in plan:
        if check == "descent":
            result.checks.append(check_sufficient_descent(trace, cert, variant))
        elif check == "cost-to-go":
            result.checks.append(check_cost_to_go(trace, cert, variant))
        elif check == "envelope":
            sigma, c, offset = sigma_for(variant, cert, problem.n_blocks, problem=problem)
            rep = check_rate_envelope(trace, sigma, c, offset, label=variant)
            # while f(x^r) <= f(x^1), the envelope cannot fail before this r
            first_gap = float(trace.deltas()[1])
            horizon = offset + c / (sigma * first_gap) if first_gap > 0.0 else None
            result.envelopes.append({"id": variant, "sigma": sigma, "c": c, "offset": offset,
                                     "horizon": horizon, "max_violation": rep.max_violation,
                                     "passed": rep.passed})
        elif check == "nesterov":
            result.checks.append(check_nesterov_inequality(problem))
        else:  # fd
            rng = np.random.default_rng([0xFD, spec.seed])
            pts = [project_feasible(problem, rng.standard_normal(problem.dim)) for _ in range(5)]
            result.checks.append(_fd_report(fd_gradient_check(problem, pts)))
    result.all_passed = (all(c.passed for c in result.checks)
                         and all(e["passed"] for e in result.envelopes))
    return result


def _fd_report(err: float) -> CheckReport:
    return _report("fd-gradient", "points", [-err], FD_TOLERANCE)  # a NaN fails unbounded


# ---------------------------------------------------------------------------
# artifacts


def _fmt(v) -> str:
    if v is None:
        return ""
    return format(float(v), ".17g")


def trace_csv_text(trace: Trace) -> str:
    lines = [TRACE_HEADER]
    f_star = trace.f_star
    for rec in trace.records:
        delta = None if f_star is None else rec.f - f_star
        blocks = "" if rec.blocks is None else ";".join(str(b) for b in rec.blocks)
        lines.append(",".join([
            str(rec.r), _fmt(rec.f), _fmt(delta), _fmt(rec.step_sq),
            _fmt(rec.virt_step_sq), _fmt(rec.grad_diff_sq), blocks,
        ]))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Replace path by text atomically, unless it already holds those bytes.

    New bytes go to a temporary file named per process, which is renamed
    over path.  A regular file that already holds exactly the new bytes is
    left alone.  That helps only an identical rerun into the same directory
    (same config, seed and BLAS thread count), where on ext4 each rename
    over an artifact from the third pass on waits 40-70 ms.
    """
    data = text.encode("utf-8")
    with contextlib.suppress(OSError):  # missing or unreadable: write it
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_size == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno and exc.filename in (None, tmp):
            exc.filename, exc.filename2 = path, None  # the artifact, not its temporary file
        raise


def run_report(result: RunResult) -> dict:
    cfg = result.config
    report = {
        "run_id": result.run_id,
        "model": cfg.model,
        "algorithm": cfg.algorithm,
        "rule": cfg.rule,
        "surrogate": cfg.surrogate,
        "iterations": result.trace.n_iterations,
        "reference": {
            "f_star": result.reference.f,
            "converged": result.reference.converged,
            "sweeps": result.reference.sweeps,
            "gap": result.reference.gap,
            "extrapolations": result.reference.extrapolations,
            "polishes": result.reference.polishes,
        },
        "final_delta": result.final_delta,
        "fitted_slope": result.fitted_slope,
        "checks": [c.to_dict() for c in result.checks],
        "envelopes": result.envelopes,
        "all_passed": result.all_passed,
        "warnings": result.trace.meta["warnings"],
    }
    if result.certificate is not None:
        report["certificate"] = result.certificate.to_dict()
    return report


def report_json(report: dict) -> str:
    """report as RFC 8259 JSON, with every non-finite float written as null."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: finite(item) for key, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(item) for item in v]
        return v

    return json.dumps(finite(report), indent=2, sort_keys=True, allow_nan=False)


def _raised_where(exc: BaseException) -> str:
    """file:line of the innermost traceback frame inside this package."""
    here = os.path.dirname(os.path.abspath(__file__))
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if os.path.dirname(os.path.abspath(f.filename)) == here][-1]
    return f"{os.path.basename(frame.filename)}:{frame.lineno}"


def run_experiment(spec: ExperimentSpec, output_dir: Optional[str] = None) -> tuple[list[RunResult], int]:
    """Execute every run, write artifacts, and return (results, exit_code)."""
    out = output_dir or os.environ.get(OUTPUT_DIR_ENV) or spec.output_dir or "bsumkit-out"
    os.makedirs(out, exist_ok=True)
    results: list[RunResult] = []
    cache: dict = {}
    hard_error = False
    for cfg in spec.runs:
        trace_path = os.path.join(out, f"{cfg.run_id}.trace.csv")
        try:
            result = execute_run(cfg, spec, cache)
        except Exception as exc:  # recorded per run, experiment continues
            hard_error = True
            error = {"type": type(exc).__name__, "message": str(exc),
                     "where": _raised_where(exc)}
            result = RunResult(
                run_id=cfg.run_id, config=cfg, problem=None, trace=None,
                reference=None, certificate=None, all_passed=False,
                error=f"{error['type']}: {error['message']}",
            )
            report = {"run_id": cfg.run_id, "error": error}
            with contextlib.suppress(FileNotFoundError):  # an earlier pass's trace
                os.remove(trace_path)
        else:
            _atomic_write(trace_path, trace_csv_text(result.trace))
            report = run_report(result)
        _atomic_write(os.path.join(out, f"{cfg.run_id}.report.json"),
                      report_json(report) + "\n")
        results.append(result)

    rows = ["run_id,rule,surrogate,final_delta,fitted_slope,all_checks_pass"]
    for res in results:
        if res.error is not None:
            rows.append(f"{res.run_id},{res.config.rule},{res.config.surrogate},,,error")
            continue
        slope = "" if res.fitted_slope is None else _fmt(res.fitted_slope)
        rows.append(",".join([
            res.run_id, res.config.rule, res.config.surrogate,
            _fmt(res.final_delta), slope, str(res.all_passed).lower(),
        ]))
    _atomic_write(os.path.join(out, "summary.csv"), "\n".join(rows) + "\n")

    if hard_error:
        return results, 2
    if any(not r.all_passed for r in results):
        return results, 3
    return results, 0


# ---------------------------------------------------------------------------
# trace comparison


def compare_traces(paths: list[str]) -> str:
    """Join gap columns of several trace CSVs on the iteration index."""
    columns = []
    names = []
    seen: dict[str, int] = {}
    for path in paths:
        stem = re.sub(r"(\.trace)?\.csv\Z", "", os.path.basename(path))
        seen[stem] = seen.get(stem, 0) + 1
        if seen[stem] > 1:
            stem = f"{stem}_{seen[stem]}"
        names.append(stem)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "r" not in reader.fieldnames \
                    or "delta" not in reader.fieldnames:
                raise ValueError(f"{path}: not a trace CSV")
            col = {}
            for row in reader:
                col[int(row["r"])] = row["delta"]
            if not col:
                raise ValueError(f"{path}: trace has no rows")
            columns.append(col)
    last = max(max(col) for col in columns)
    lines = ["r," + ",".join(f"delta_{n}" for n in names)]
    for r in range(0, last + 1):
        lines.append(str(r) + "," + ",".join(col.get(r, "") for col in columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certify: re-run a recorded trace from its config and check it


def certify(trace_path: str, config_path: str, run_id: Optional[str] = None) -> tuple[dict, int]:
    spec = parse_config(config_path)
    if run_id is None:
        stem = os.path.basename(trace_path)
        if stem.endswith(".trace.csv"):
            run_id = stem[: -len(".trace.csv")]
    matches = [cfg for cfg in spec.runs if cfg.run_id == run_id]
    if len(spec.runs) == 1 and not matches:
        matches = [spec.runs[0]]
    if len(matches) != 1:
        raise ConfigError(
            f"cannot match trace to a unique run (run_id={run_id!r}); "
            f"config defines {[c.run_id for c in spec.runs]}"
        )
    cfg = matches[0]
    result = execute_run(cfg, spec, {})
    produced = trace_csv_text(result.trace)
    with open(trace_path, "r", encoding="utf-8") as fh:
        stored = fh.read()
    if produced != stored:
        return ({"run_id": cfg.run_id, "match": False,
                 "detail": "stored trace differs from the deterministic re-run"}, 2)
    report = run_report(result)
    report["match"] = True
    return report, 0 if result.all_passed else 3


# ---------------------------------------------------------------------------
# instance generation


def generate_instance(family: str, params: dict, prefix: str) -> list[str]:
    check_kinds({"family": family})
    if not isinstance(params, dict):
        raise ConfigError(f"params must be a JSON object, not {params!r}")
    fam = models.FAMILIES[family]
    try:  # gen takes the generator keys and seed only
        replace(fam, build_keys=frozenset(), file_keys=frozenset(),
                required=fam.required & fam.gen_keys).check_keys(params)
    except ValueError as exc:
        raise ConfigError(exc) from None
    check_kinds(params, "model field ")
    written = []
    for tag, M in fam.generate(params, int(params.get("seed", 0))).items():
        written.append(f"{prefix}_{tag}.txt")
        # vectors are written as columns
        _atomic_write(written[-1], models.matrix_text(M.reshape(-1, 1) if M.ndim == 1 else M))
    return written


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bsumkit",
        description="Block-coordinate upper-bound minimization runs and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output-dir", default=None)

    p_cert = sub.add_parser("certify", help="re-run a trace's config and check it")
    p_cert.add_argument("trace")
    p_cert.add_argument("config")
    p_cert.add_argument("--run-id", default=None)
    p_cert.add_argument("-o", "--output", default=None)

    p_cmp = sub.add_parser("compare", help="align gap columns of several traces")
    p_cmp.add_argument("traces", nargs="+")
    p_cmp.add_argument("-o", "--output", default=None)

    p_gen = sub.add_parser("gen", help="write a seeded instance to text files")
    p_gen.add_argument("family")
    p_gen.add_argument("--params", default="{}",
                       help="JSON dict of family parameters (dims, density, seed)")
    p_gen.add_argument("-o", "--output-prefix", required=True)

    args = parser.parse_args(argv)
    try:  # an OSError that reaches here is an output path that cannot be written
        return _command(args)
    except OSError as exc:
        print(f"{args.command} error: cannot write {exc.filename or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 1


def _command(args: argparse.Namespace) -> int:
    if args.command == "run":
        try:
            spec = parse_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        results, code = run_experiment(spec, output_dir=args.output_dir)
        for res in results:
            status = "error" if res.error else ("ok" if res.all_passed else "check-failed")
            detail = res.error or f"final_delta={res.final_delta:.6g}"
            print(f"{res.run_id}: {status} ({detail})")
        return code

    if args.command == "certify":
        try:
            report, code = certify(args.trace, args.config, run_id=args.run_id)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # the re-run raised: reported as `run` records it
            print(f"certify error: {type(exc).__name__}: {exc} ({_raised_where(exc)})",
                  file=sys.stderr)
            return 2
        text = report_json(report)
        if args.output:
            _atomic_write(args.output, text + "\n")
        else:
            print(text)
        return code

    if args.command == "compare":
        try:
            text = compare_traces(args.traces)
        except (ValueError, OSError) as exc:
            print(f"compare error: {exc}", file=sys.stderr)
            return 2
        if args.output:
            _atomic_write(args.output, text)
        else:
            sys.stdout.write(text)
        return 0

    try:  # gen
        written = generate_instance(args.family, json.loads(args.params), args.output_prefix)
    except (ValueError, KeyError) as exc:
        print(f"gen error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
