"""Iteration engine: block sweeps, single-block runs, acceleration, references.

A run produces a Trace: per-iteration records plus the iterate history,
which the diagnostics later mine for distances, step norms, and
gradient-difference statistics.  Runs are strictly sequential (the
within-sweep recursion is ordered); distinct runs share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .problem import (
    Array,
    Problem,
    SmoothPart,
    UnsupportedCombination,
    block_gradient,
    eval_objective,
    feasible_start,
    make_partition,
    project_feasible,
    squares_dual,
    squares_polish,
)
from .schedule import Schedule, VirtualUpdate, make_schedule, virtual_updates
from .surrogate import make_surrogate, prox_block


@dataclass(eq=False)
class IterationRecord:
    """One row of a run trace; statistics are None when not computed.

    step_sq is the squared move that produced this iterate, virt_step_sq the
    squared distance from the previous iterate to its all-blocks virtual
    update, grad_diff_sq the summed squared gradient differences across the
    sweep's intermediate points.
    """

    r: int
    f: float
    step_sq: Optional[float] = None
    virt_step_sq: Optional[float] = None
    grad_diff_sq: Optional[float] = None
    blocks: Optional[tuple[int, ...]] = None


@dataclass(eq=False)
class Trace:
    records: list[IterationRecord]
    iterates: list[Array]
    virtual_points: list[Optional[Array]]
    meta: dict
    # always empty; kept while perfbench/layers.py:107 reads it (ROADMAP item 5)
    aux_points: list[Optional[Array]] = field(default_factory=list)
    f_star: Optional[float] = None
    x_star: Optional[Array] = None

    @property
    def n_iterations(self) -> int:
        return len(self.records) - 1

    def fvals(self) -> Array:
        return np.array([rec.f for rec in self.records])

    def deltas(self) -> Array:
        if self.f_star is None:
            raise ValueError("attach a reference solution before asking for gaps")
        return self.fvals() - self.f_star

    def attach_reference(self, x_star: Array, f_star: float) -> None:
        self.x_star = np.asarray(x_star, dtype=float)
        self.f_star = float(f_star)


def bsum_sweep(
    problem: Problem,
    surrogate,
    x: Array,
    blocks: tuple[int, ...],
    record_grads: bool = False,
) -> tuple[Array, float, Optional[float]]:
    """One iteration: update the listed blocks in order, each anchored at the
    point holding all previously updated blocks of this sweep.

    A sweep whose listed blocks are all exact goes to the model's
    exact_sweep when it declares one.
    """
    if (problem.exact_sweep is not None
            and all(surrogate.kinds[k] == "exact" for k in blocks)):
        w, grad_stat = problem.exact_sweep(blocks, x, record_grads,
                                           on_cap=surrogate.count_cap)
    else:
        w = np.array(x, dtype=float)
        grad_stat = 0.0 if record_grads else None
        g_prev = problem.smooth.grad(w) if record_grads else None
        for k in blocks:
            w[problem.partition.block_slice(k)] = surrogate.argmin(k, w)
            if record_grads:
                g_now = problem.smooth.grad(w)
                diff = g_now - g_prev
                grad_stat += float(diff @ diff)
                g_prev = g_now
    d = w - x
    return w, float(d @ d), grad_stat


def run_bsum(
    problem: Problem,
    surrogate,
    schedule: Schedule,
    x0: Optional[Array] = None,
    iterations: int = 100,
    tol: float = 0.0,
    f_star: Optional[float] = None,
    meta: Optional[dict] = None,
) -> Trace:
    """Run the block upper-bound minimization loop for a fixed budget.

    The iteration budget is the primary stopping rule; the gap tolerance
    only applies when a reference value f_star is supplied up front.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if schedule.n_blocks != problem.n_blocks:
        raise ValueError("schedule and problem disagree on the block count")

    want_virtual = schedule.needs_virtual()
    want_grads = surrogate.kind == "exact"

    x = feasible_start(problem) if x0 is None else np.array(x0, dtype=float)
    f = eval_objective(problem, x)
    run_meta = {
        "algorithm": "bsum",
        "rule": schedule.rule,
        "surrogate": surrogate.kind,
        "n_blocks": problem.n_blocks,
        "q": schedule.q,
        "period": schedule.period,
        "problem": problem.name,
        "warnings": [],
    }
    if meta:
        run_meta.update(meta)
    trace = Trace(
        records=[IterationRecord(r=0, f=f)],
        iterates=[x.copy()],
        virtual_points=[None],
        meta=run_meta,
    )

    for r in range(1, iterations + 1):
        vu: Optional[VirtualUpdate] = None
        virt_sq = None
        if want_virtual:
            vu = virtual_updates(problem, surrogate, x)
            virt_sq = float(np.sum(vu.step_norms**2))
        blocks = schedule.select(r - 1, vu)
        x_new, step_sq, grad_sq = bsum_sweep(
            problem, surrogate, x, blocks, record_grads=want_grads,
        )
        f_new = eval_objective(problem, x_new)
        trace.records.append(IterationRecord(
            r=r, f=f_new, step_sq=step_sq, virt_step_sq=virt_sq,
            grad_diff_sq=grad_sq, blocks=tuple(blocks),
        ))
        trace.iterates.append(x_new.copy())
        trace.virtual_points.append(None if vu is None else vu.x_hat.copy())
        x, f = x_new, f_new
        if f_star is not None and f - f_star <= tol:
            break
    return trace


def run_sum(
    problem: Problem,
    surrogate,
    x0: Optional[Array] = None,
    iterations: int = 100,
    tol: float = 0.0,
    f_star: Optional[float] = None,
    meta: Optional[dict] = None,
) -> Trace:
    """Single-block specialization: each iteration minimizes the bound once."""
    if problem.n_blocks != 1:
        raise ValueError("single-block runs need a one-block partition")
    schedule = make_schedule("gauss-seidel", 1)
    extra = {"algorithm": "sum"}
    if meta:
        extra.update(meta)
    return run_bsum(
        problem, surrogate, schedule, x0=x0, iterations=iterations, tol=tol,
        f_star=f_star, meta=extra,
    )


def run_a2bsum(
    problem: Problem,
    outer: int = 1,
    inner: int = 0,
    x0: Optional[Array] = None,
    iterations: int = 100,
    m_outer: Optional[float] = None,
    meta: Optional[dict] = None,
) -> Trace:
    """Accelerated two-block scheme with extrapolation factor 2/(r+1).

    This is accelerated proximal gradient on the reduced function
    F(x_outer) = min over the inner block (see reduce_two_block): the inner
    block is minimized exactly at the extrapolated outer point, the outer
    block takes a proximal step with constant m_outer, and the momentum
    point is advanced.  Recorded iterates pair the outer variable with a
    fresh exact inner solve so the trace reports the objective the scheme
    actually certifies.  Inner solves whose loop stopped at its cap are
    counted into a warning, as a block run's are.
    """
    capped = []
    reduced, assemble = _reduction(problem, outer, inner, on_cap=lambda: capped.append(1))
    if iterations < 1:
        raise ValueError("need at least one iteration")
    m1 = float(m_outer) if m_outer is not None else reduced.smooth.lipschitz
    sl_out = problem.partition.block_slice(outer)
    warnings = []
    if not problem.inner_unique(inner):
        warnings.append("inner block minimizer may be non-unique")

    x = assemble(feasible_start(reduced) if x0 is None else np.asarray(x0, dtype=float)[sl_out])
    run_meta = {
        "algorithm": "a2bsum", "rule": "gauss-seidel", "surrogate": "prox-linear",
        "n_blocks": 2, "q": 1.0, "period": 1, "problem": problem.name,
        "outer": outer, "inner": inner, "m_outer": m1, "warnings": warnings,
    }
    if meta:
        run_meta.update(meta)
    trace = Trace(
        records=[IterationRecord(r=0, f=eval_objective(problem, x))],
        iterates=[x],
        virtual_points=[None],
        meta=run_meta,
    )

    x1_prev = x[sl_out].copy()
    w1 = x1_prev.copy()
    h_out, cs_out = reduced.nonsmooth[0], reduced.constraints[0]
    for r in range(1, iterations + 1):
        theta = 2.0 / (r + 1)
        v1 = (1.0 - theta) * x1_prev + theta * w1
        grad1 = reduced.smooth.grad(v1)
        x1 = prox_block(h_out, cs_out, m1, v1 - grad1 / m1)
        w1 = x1_prev + (x1 - x1_prev) / theta
        x1_prev = x1

        rec_point = assemble(x1)
        f_new = eval_objective(problem, rec_point)
        d = rec_point - trace.iterates[-1]
        trace.records.append(IterationRecord(
            r=r, f=f_new, step_sq=float(d @ d), blocks=(inner, outer),
        ))
        trace.iterates.append(rec_point)
        trace.virtual_points.append(None)
    if capped:
        warnings.append(f"inner loop hit its cap: {len(capped)} times")
    return trace


# ---------------------------------------------------------------------------
# two-block reduction: eliminate the exactly-minimized block


def _reduction(problem: Problem, outer: int, inner: int,
               on_cap: Optional[Callable[[], None]] = None,
               ) -> tuple[Problem, Callable[[Array], Array]]:
    """The reduced single-block problem over the outer variable, and the map
    from an outer point to the full point with the inner block solved exactly
    (on_cap goes to every inner solve)."""
    if problem.n_blocks != 2:
        raise UnsupportedCombination("the two-block reduction needs exactly two blocks")
    if {outer, inner} != {0, 1}:
        raise ValueError("outer and inner must name the two blocks")
    if problem.exact_solver is None:
        raise UnsupportedCombination("the inner block needs an exact solver")
    sl_out = problem.partition.block_slice(outer)
    sl_in = problem.partition.block_slice(inner)
    template = feasible_start(problem)
    h_in = problem.nonsmooth[inner]
    m_out = problem.smooth.block_lipschitz[outer]

    def assemble(x1):
        y = template.copy()
        y[sl_out] = x1
        y[sl_in] = problem.exact_solver(inner, y, on_cap=on_cap)
        return y

    def value(x1):
        y = assemble(x1)
        return float(problem.smooth.value(y)) + h_in.value(y[sl_in])

    def grad(x1):
        return block_gradient(problem, outer, assemble(x1))

    reference = None
    if problem.reference_solver is not None:
        def reference():
            x_star, f_star = problem.reference_solver()
            return x_star[sl_out], f_star

    part = make_partition([problem.partition.sizes[outer]])
    smooth = SmoothPart(value=value, grad=grad, lipschitz=m_out, block_lipschitz=(m_out,))
    reduced = Problem(
        partition=part, smooth=smooth, nonsmooth=(problem.nonsmooth[outer],),
        constraints=(problem.constraints[outer],),
        name=f"{problem.name}-reduced", reference_solver=reference,
    )
    return reduced, assemble


def reduce_two_block(problem: Problem, outer: int = 1, inner: int = 0) -> Problem:
    """Single-block problem over the outer variable, with the inner block
    minimized exactly inside the smooth-part oracles."""
    return _reduction(problem, outer, inner)[0]


# ---------------------------------------------------------------------------
# reference solutions


@dataclass(eq=False)
class ReferenceSolution:
    x: Array
    f: float
    converged: bool
    sweeps: int  # bsum_sweep calls; extrapolations and polishes are not sweeps
    last_change: float
    capped_solves: int = 0  # block solves whose inner loop stopped at its cap
    gap: Optional[float] = None  # f minus the best dual value; None without a dual
    extrapolations: int = 0  # accepted Anderson points
    polishes: int = 0  # accepted support polishes


ANDERSON_K = 5  # sweeps between extrapolations; each uses the last K + 1 iterates
ANDERSON_REG = 1e-14  # Tikhonov weight on U U^T, relative to its trace
GAP_TOL = 1e-12  # the gap stop's absolute part
GAP_ULPS = 64.0  # the gap stop's part relative to |f|, in units of eps * |f|
STALL_TOL = 1e-12  # the stall threshold's absolute part
STALL_ULPS = 4.0  # the stall threshold's part relative to |f|, in units of eps * |f|
STALL_SWEEPS = 50  # consecutive stalled sweeps that stop a reference


def _strongest_surrogate(problem: Problem):
    if problem.exact_solver is not None:
        return make_surrogate(problem, "exact")
    if problem.custom_surrogate_factory is not None:
        return make_surrogate(problem, "model-custom")
    return make_surrogate(problem, "prox-linear")


def _anderson_point(history: list[Array]) -> Optional[Array]:
    """Anderson extrapolation of K + 1 consecutive iterates, or None when
    they do not move.

    The K differences are the rows of U; z solves
    (U U^T + ANDERSON_REG tr(U U^T) I) z = 1, and the point is the
    z/sum(z)-weighted sum of the last K iterates (Bertrand & Massias 2021,
    "Anderson acceleration of coordinate descent").
    """
    X = np.array(history)
    U = np.diff(X, axis=0)
    C = U @ U.T
    scale = float(np.trace(C))
    if not 0.0 < scale < np.inf:
        return None
    z = np.linalg.solve(C + ANDERSON_REG * scale * np.eye(len(C)), np.ones(len(C)))
    total = z.sum()
    return None if total == 0.0 else (z / total) @ X[1:]


def reference_solve(
    problem: Problem,
    max_sweeps: int = 60000,
) -> ReferenceSolution:
    """High-accuracy minimizer for attaching gap values to traces.

    Uses a model-registered closed form when one exists.  Otherwise it sweeps
    the strongest available per-block solver, and every ANDERSON_K sweeps
    replaces the iterate by its Anderson extrapolation when that lowers f
    (constrained blocks projected first), then by its squares_polish when
    that gives a point.  Where squares_dual gives a dual, the solve is
    converged when the best f minus the best dual value, taken at the
    extrapolation points, is at most max(GAP_TOL, GAP_ULPS eps |f|): even an
    exact minimizer, rounded to doubles, leaves a gap of a few ulps of f.
    The solve also stops when the objective change stays within
    max(STALL_TOL, STALL_ULPS eps |f|) for STALL_SWEEPS consecutive sweeps;
    that stop is converged without a dual, and with one only when the gap
    lies within the dual point's own rounding, GAP_ULPS eps M ||x||^2.  A
    reference whose objective is not finite is unconverged; the sweeps stop
    at it.
    """
    if problem.reference_solver is not None:
        x_star, f_star = problem.reference_solver()
        return ReferenceSolution(
            x=np.asarray(x_star, dtype=float), f=float(f_star),
            converged=bool(np.isfinite(f_star)), sweeps=0, last_change=0.0,
        )
    surrogate = _strongest_surrogate(problem)
    dual = squares_dual(problem)
    polish = squares_polish(problem)
    eps = np.finfo(float).eps
    blocks = tuple(range(problem.n_blocks))
    x = feasible_start(problem)
    f = eval_objective(problem, x)
    best_x, best_f = x.copy(), f
    lower = float("-inf")  # the best dual value so far
    history = [x]
    stall = sweeps = extrapolations = polishes = 0
    change = float("inf")
    closed = stalled = False
    while not (closed or stalled) and sweeps < max_sweeps and np.isfinite(f):
        x, _, _ = bsum_sweep(problem, surrogate, x, blocks)
        f_new = eval_objective(problem, x)
        change = f - f_new
        tol = max(STALL_TOL, STALL_ULPS * eps * abs(f))
        stall = stall + 1 if abs(change) <= tol else 0
        f = f_new
        sweeps += 1
        history.append(x)
        if sweeps % ANDERSON_K == 0:
            cand = _anderson_point(history)
            if cand is not None:
                cand = project_feasible(problem, cand)
                f_cand = eval_objective(problem, cand)
                if f_cand < f:
                    if f - f_cand > tol:
                        stall = 0
                    x, f = cand, f_cand
                    extrapolations += 1
            cand = None if polish is None else polish(x)
            if cand is not None:  # the polish never raises f
                f_cand = eval_objective(problem, cand)
                if f - f_cand > tol:
                    stall = 0
                x, f = cand, f_cand
                polishes += 1
            history = [x]
            if dual is not None:
                lower = max(lower, dual(x))
        if f < best_f:
            best_f, best_x = f, x.copy()
        closed = best_f - lower <= max(GAP_TOL, GAP_ULPS * eps * abs(best_f))
        stalled = stall >= STALL_SWEEPS
    gap = None
    converged = stalled
    if dual is not None:
        gap = best_f - max(lower, dual(best_x))
        # a dual point read off a double-precision x carries rounding of
        # about eps M ||x||^2; a gap below that cannot refute a stalled solve
        floor = GAP_ULPS * eps * problem.smooth.lipschitz * float(best_x @ best_x)
        converged = closed or (stalled and gap <= floor)
    return ReferenceSolution(
        x=best_x, f=best_f, converged=bool(converged),
        sweeps=sweeps, last_change=abs(change), capped_solves=surrogate.capped_solves,
        gap=gap, extrapolations=extrapolations, polishes=polishes,
    )
