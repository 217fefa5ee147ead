"""Per-layer tracing of a bsumkit experiment from outside the package.

`Tracer.install()` wraps the public entry points of each module at every
binding site (several modules import these functions by name, so patching
the defining module alone would miss calls), and wraps the oracles and the
exact block solver on every Problem that `cli.build_model` returns.
`uninstall()` restores every original, so untimed passes run unpatched.

A span records calls, inclusive time and self time (inclusive time minus
the time of spans nested inside it).  Count-only wrappers record calls and
leave their time to the enclosing span.  Spans live in memory; the caller
turns them into metrics with `metrics()` once the traced pass has ended.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

from bsumkit import cli, diagnostics, engine, models, problem, schedule, surrogate

# Families whose exact solver or greedy runs a workload may use; every
# metric is reported for each, as 0 where the workload has none.
EXACT_FAMILIES = ("lasso", "group-lasso", "l2svm")
GREEDY_FAMILIES = ("lasso", "logistic", "l2svm")

PHASES = ("solver", "reference", "constants", "checks")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack: list[float] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []
        self.run_id = None
        self.phase = defaultdict(lambda: dict.fromkeys(PHASES, 0.0))
        self.family = None  # model family of the run in progress
        self.f_level = None  # level of the sampled level set in progress
        self.level_accepted = 0
        self.level_attempted = 0
        self.reference_sweeps = 0
        self.trace_bytes = 0
        self.block_updates = 0
        self.virtual_candidates = 0
        self.virtual_applied = 0
        self.runs = 0

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, phase=None, after=None, by_family=False):
        """Wrap fn in a timed span; `after(args, result)` runs outside it.

        With by_family, calls and inclusive time also go to
        `<name>.<family>` for the model family of the run in progress.
        """
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
                if phase is not None:
                    self.phase[self.run_id][phase] += dt
                if by_family:
                    self.calls[f"{name}.{self.family}"] += 1
                    self.total[f"{name}.{self.family}"] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_all(self, sites, attr, replacement):
        for owner in sites:
            self._patch(owner, attr, replacement)

    # -- hooks that read results --------------------------------------------

    def _after_run(self, args, trace):
        self.trace_bytes += sum(
            p.nbytes for pts in (trace.iterates, trace.virtual_points, trace.aux_points)
            for p in pts if p is not None
        )
        for rec, vpt in zip(trace.records[1:], trace.virtual_points[1:]):
            self.block_updates += len(rec.blocks)
            if vpt is not None:
                self.virtual_applied += len(rec.blocks)

    def _after_reference(self, args, ref):
        self.reference_sweeps += ref.sweeps

    def _after_virtual(self, args, vu):
        self.virtual_candidates += len(vu.step_norms)

    def _after_level_sample(self, args, value):
        self.level_attempted += 1
        self.level_accepted += value <= self.f_level

    # -- install / uninstall ------------------------------------------------

    def install(self):
        orig_build = cli.build_model
        build = self.span("cli.build_model", orig_build)

        def build_model(model, default_seed):
            return self._wrap_problem(build(model, default_seed), model["family"])

        self._patch(cli, "build_model", build_model)
        self._patch(cli, "parse_config", self.span("cli.parse_config", cli.parse_config))

        orig_execute = cli.execute_run

        def execute_run(cfg, spec, reference_cache):
            self.run_id = cfg.run_id
            self.family = cfg.model["family"]
            self.runs += 1
            return orig_execute(cfg, spec, reference_cache)

        self._patch(cli, "execute_run", execute_run)

        run_bsum = self.span("engine.run_bsum", engine.run_bsum, "solver", self._after_run)
        self._patch_all((cli, engine), "run_bsum", run_bsum)
        reference = self.span("engine.reference_solve", engine.reference_solve,
                              "reference", self._after_reference)
        self._patch_all((cli, engine), "reference_solve", reference)
        self._patch(engine, "bsum_sweep", self.span("engine.bsum_sweep", engine.bsum_sweep))

        orig_estimate = diagnostics.estimate_constants

        def estimate_constants(prob, surr, trace, *args, **kwargs):
            self.f_level = trace.records[1].f
            return orig_estimate(prob, surr, trace, *args, **kwargs)

        self._patch(cli, "estimate_constants",
                    self.span("diagnostics.estimate_constants", estimate_constants,
                              "constants"))
        for name in ("check_sufficient_descent", "check_cost_to_go", "check_rate_envelope",
                     "sigma_for", "check_nesterov_inequality", "fd_gradient_check",
                     "fit_decay_exponent"):
            self._patch(cli, name, self.span("diagnostics.checks", getattr(cli, name),
                                             "checks"))
        for name in ("trace_csv_text", "run_report", "_atomic_write"):
            self._patch(cli, name, self.span("cli.artifacts", getattr(cli, name)))

        virtual = self.span("schedule.virtual_updates", schedule.virtual_updates,
                            after=self._after_virtual, by_family=True)
        self._patch_all((engine, schedule), "virtual_updates", virtual)
        self._patch(schedule, "full_gradient",
                    self.span("problem.full_gradient", schedule.full_gradient))
        self._patch(schedule, "objective_with_block",
                    self.span("problem.objective_with_block", schedule.objective_with_block))

        objective = self.span("problem.eval_objective", problem.eval_objective)
        self._patch_all((engine, problem), "eval_objective", objective)
        self._patch(diagnostics, "eval_objective",
                    self.span("problem.eval_objective", problem.eval_objective,
                              after=self._after_level_sample))
        self._patch(problem.NonsmoothBlock, "value",
                    self.counter("problem.nonsmooth_value", problem.NonsmoothBlock.value))

        self._patch(surrogate.Surrogate, "argmin",
                    self.span("surrogate.argmin", surrogate.Surrogate.argmin))
        prox = self.span("surrogate.prox_block", surrogate.prox_block)
        self._patch_all((surrogate, engine, models), "prox_block", prox)

        for name in ("piecewise_quadratic_min", "group_l2_block_min", "spectral_norm_psd"):
            self._patch(models, name, self.span(f"models.{name}", getattr(models, name)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap_problem(self, prob, family):
        smooth = prob.smooth
        block_grad = smooth.block_grad_fn
        prob.smooth = dataclasses.replace(
            smooth,
            value=self.span("problem.smooth_value", smooth.value),
            grad=self.span("problem.smooth_grad", smooth.grad),
            block_grad_fn=None if block_grad is None
            else self.span("problem.block_grad", block_grad),
        )
        if prob.exact_solver is not None:
            prob.exact_solver = self.span(f"models.exact_solver.{family}", prob.exact_solver)
        return prob

    # -- results ------------------------------------------------------------

    def _us_per_call(self, name):
        return 1e6 * _ratio(self.total[name], self.calls[name])

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        m = {}
        for name in ("schedule.virtual_updates", "problem.eval_objective",
                     "problem.smooth_value", "problem.smooth_grad", "problem.block_grad",
                     "surrogate.argmin", "surrogate.prox_block", "engine.bsum_sweep"):
            m[f"{name}.calls"] = (self.calls[name], "count")
            m[f"{name}.self_s"] = (self.self_time[name], "s")
        m["schedule.virtual_updates.us_per_call"] = (
            self._us_per_call("schedule.virtual_updates"), "us")
        m["schedule.virtual_updates.useful_ratio"] = (
            _ratio(self.virtual_applied, self.virtual_candidates), "ratio")
        for fam in GREEDY_FAMILIES:
            # one family's greedy runs share one block count K in every workload
            key = f"schedule.virtual_updates.{fam}"
            m[f"{key}.calls"] = (self.calls[key], "count")
            m[f"{key}.us_per_call"] = (self._us_per_call(key), "us")
        m["problem.nonsmooth_value.calls"] = (self.calls["problem.nonsmooth_value"], "count")
        for fam in EXACT_FAMILIES:
            key = f"models.exact_solver.{fam}"
            m[f"{key}.calls"] = (self.calls[key], "count")
            m[f"{key}.us_per_call"] = (self._us_per_call(key), "us")
        for name in ("models.piecewise_quadratic_min", "models.group_l2_block_min"):
            m[f"{name}.self_s"] = (self.self_time[name], "s")
        m["engine.run_bsum.s"] = (self.total["engine.run_bsum"], "s")
        m["engine.block_updates"] = (self.block_updates, "count")
        refs = self.calls["engine.reference_solve"]
        m["engine.reference_solve.s"] = (self.total["engine.reference_solve"], "s")
        m["engine.reference_solve.calls"] = (refs, "count")
        m["engine.reference_solve.sweeps"] = (self.reference_sweeps, "count")
        m["cli.reference_cache.hit_ratio"] = (_ratio(self.runs - refs, self.runs), "ratio")
        m["engine.trace_bytes"] = (self.trace_bytes, "bytes")
        m["diagnostics.estimate_constants.s"] = (self.total["diagnostics.estimate_constants"], "s")
        m["diagnostics.level_set.accept_ratio"] = (
            _ratio(self.level_accepted, self.level_attempted), "ratio")
        m["diagnostics.checks.s"] = (self.total["diagnostics.checks"], "s")
        for name in ("cli.parse_config", "cli.build_model", "models.spectral_norm_psd",
                     "cli.artifacts"):
            m[f"{name}.s"] = (self.total[name], "s")
        return m


def _ratio(num, den) -> float:
    """num / den, and 0 when the layer did no work on this workload."""
    return num / den if den else 0.0
