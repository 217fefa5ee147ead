"""Reference implementations of three per-iterate oracles that do all their
setup on every call, of the lasso's and the group lasso's exact block steps
from a fresh residual, and of the trace checks record by record.

The objective builds the block values, a concatenation and an accumulation;
the squared-hinge search takes masked max/min reductions and np.sum; the
virtual update builds its prox-linear coordinate table from the surrogate's
kinds and step constants.  The library reads that setup off the problem's
layout and the surrogate, built once, and uses numpy idioms of the same
arithmetic.  The descent, cost-to-go and envelope checks and the decay fit
here walk the trace one record at a time; the library reads it as columns.
test_oracle_identity.py asks both for the same bits.  The lasso's sweep
reads each block's c_j = (A^T (A x - b))_j off its Gram row, and the group
lasso's its block targets off cross-Gram rows in the blocks' eigenbases;
the block steps here form them from A x - b, and the sweep tests in
test_engine.py and test_models.py compare the two to rounding.
"""

import math
from typing import Optional

import numpy as np

from bsumkit.diagnostics import CheckReport, RateCertificate, _check_theorem, _report
from bsumkit.engine import Trace
from bsumkit.models import _interval_quadratic_min, block_hessian, group_l2_block_min
from bsumkit.problem import Array, Problem, as_vector, block_norms, full_gradient
from bsumkit.schedule import VirtualUpdate, candidate_objectives
from bsumkit.surrogate import prox_block, prox_coordinates


def block_values(problem: Problem, x: Array) -> Array:
    """h_k(x_k) for every block k."""
    lay = problem.layout
    vals = np.zeros(problem.n_blocks)
    for blocks, weights, coords in lay.l1_groups:
        vals[blocks] = weights * np.sum(np.abs(x[coords]), axis=1)
    for k in lay.value_blocks:
        vals[k] = problem.nonsmooth[k].value(problem.partition.block(x, k))
    return vals


def eval_objective(problem: Problem, x) -> float:
    """f(x) = g(x) + sum_k h_k(x_k); +inf outside the domain of f."""
    v = as_vector(x, problem.dim)
    g = float(problem.smooth.value(v))
    # left to right over the blocks, as a loop adding h_k one by one would
    return float(np.add.accumulate(np.concatenate(([g], block_values(problem, v))))[-1])


def _piece_quadratic(c: Array, d: Array, lam: float, a: float, b: float) -> tuple[float, float]:
    """(quad, cross) of the objective (quad/2) t^2 - cross t + const on the piece
    [a, b], from the rows active at its midpoint."""
    if math.isfinite(a) and math.isfinite(b):
        mid = 0.5 * (a + b)
    elif math.isfinite(a):
        mid = a + 1.0
    elif math.isfinite(b):
        mid = b - 1.0
    else:
        mid = 0.0
    act = (c - d * mid) > 0.0
    da = d[act]
    sgn = 0.0 if lam == 0.0 else float((mid > 0.0) - (mid < 0.0))
    quad = 2.0 * float(np.sum(da ** 2))
    cross = 2.0 * float(np.sum(c[act] * da))
    return quad, cross - lam * sgn


def piecewise_quadratic_min(
    c: Array,
    d: Array,
    lam: float = 0.0,
    lo: float = -np.inf,
    hi: float = np.inf,
    start: float = 0.0,
) -> float:
    """Minimize sum_i max(0, c_i - d_i t)^2 + lam|t| over [lo, hi]."""
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if lo == hi:
        return float(lo)

    nz = d != 0.0
    knots = c / d if nz.all() else c[nz] / d[nz]
    if lam > 0.0:
        knots = np.append(knots, 0.0)
    a, b = lo, hi  # a minimizer lies in [a, b], and knots holds the breakpoints inside
    if math.isfinite(a) or math.isfinite(b):
        knots = knots[(a < knots) & (knots < b)]
    t = min(max(float(start), lo), hi)
    older = old = math.inf  # breakpoints inside the bracket two steps and one step ago
    while True:
        if not a <= t <= b or 2 * knots.size > older:
            t = float(np.partition(knots, knots.size // 2)[knots.size // 2]) if knots.size else a
        older, old = old, knots.size
        below = knots <= t
        left = float(np.max(knots, initial=a, where=below))
        right = float(np.min(knots, initial=b, where=~below))
        quad, cross = _piece_quadratic(c, d, lam, left, right)
        x = _interval_quadratic_min(quad, cross, left, right)
        if x == right != b:  # the slope at right is negative (or the piece flat)
            a, knots = right, knots[knots > right]
        elif x == left != a:
            b, knots = left, knots[knots < left]
        else:
            return float(x)
        t = cross / quad if quad > 0.0 else math.nan


def lasso_block_solve(problem: Problem, k: int, x: Array) -> Array:
    """Scalar block k's exact lasso step at x:
    v = x_j - a_j^T (A x - b) / ||a_j||^2 from a fresh residual, then
    prox_block at beta = 2 ||a_j||^2."""
    lin = problem.smooth.linear
    j = problem.partition.offsets[k]
    a = lin.A[:, j]
    sq = float(a @ a)
    v = float(x[j]) - float(a @ (lin.A @ x - lin.b)) / sq
    return prox_block(problem.nonsmooth[k], problem.constraints[k], 2.0 * sq, [v])


def group_block_solve(problem: Problem, k: int, x: Array) -> Array:
    """Block k's exact group-lasso step at x: the target
    rhs = 2 (G_kk x_k - A_k^T (A x - b)) from a fresh residual, rotated into
    the block's eigenbasis, solved by group_l2_block_min from ||x_k||."""
    lin = problem.smooth.linear
    sl = problem.partition.block_slice(k)
    h = block_hessian(*lin.block_eigh[k])
    xk = x[sl]
    rhs = 2.0 * (lin.gram[sl, sl] @ xk - lin.A[:, sl].T @ (lin.A @ x - lin.b))
    return h.vecs @ group_l2_block_min(h, h.vecs.T @ rhs, problem.nonsmooth[k].weight,
                                       math.sqrt(float(xk @ xk)))


def virtual_updates(problem: Problem, surrogate, x, f: Optional[float] = None) -> VirtualUpdate:
    """The all-blocks virtual update at x; f, when given, is f(x), which
    candidate_objectives then need not evaluate again."""
    x = np.asarray(x, dtype=float)
    grad = full_gradient(problem, x)
    x_hat = np.array(x)
    lay = problem.layout
    # prox-linear steps of coordinatewise blocks run as one array operation;
    # every other block (exact, model-custom, group-l2, constrained) is solved alone
    arrayed = lay.coordwise & (np.asarray(surrogate.kinds) == "prox-linear")
    coords = np.flatnonzero(arrayed[lay.block_of])
    if coords.size:
        lip = np.asarray(surrogate.lip, dtype=float)[lay.block_of[coords]]
        x_hat[coords] = prox_coordinates(problem, coords, lip, x[coords] - grad[coords] / lip)
    for k in np.flatnonzero(~arrayed).tolist():
        sl = problem.partition.block_slice(k)
        x_hat[sl] = surrogate.argmin(k, x, grad_k=grad[sl])
    return VirtualUpdate(
        x_hat=x_hat, step_norms=block_norms(problem, x_hat - x),
        objectives=lambda: candidate_objectives(problem, x, x_hat, grad, f),
    )


# ---------------------------------------------------------------------------
# trace checks, record by record


def _require(values, what: str):
    if any(v is None for v in values):
        raise ValueError(f"trace lacks {what} needed by this variant")
    return np.asarray(values, dtype=float)


def check_sufficient_descent(trace: Trace, cert: RateCertificate, variant: str) -> CheckReport:
    """Per-iteration lower bound on the gap decrease."""
    _check_theorem("descent", variant, cert)
    recs = trace.records
    if len(recs) < 2:
        raise ValueError("trace needs at least one iteration")
    drops = [recs[j - 1].f - recs[j].f for j in range(1, len(recs))]
    if variant == "gs-ec":
        steps = _require([r.step_sq for r in recs[1:]], "step norms")
        rhs = cert.gamma * steps
    elif variant == "gso-mbi":
        virt = _require([r.virt_step_sq for r in recs[1:]], "virtual step norms")
        c1 = cert.q if trace.meta.get("rule") == "gauss-southwell" else 1.0
        K = trace.meta["n_blocks"]
        rhs = (c1 / K) * cert.gamma * virt
    else:  # bcm
        grads = _require([r.grad_diff_sq for r in recs[1:]], "gradient differences")
        rhs = grads / (2.0 * cert.big_m)
    slacks = np.asarray(drops) - rhs
    return _report("sufficient-descent", variant, slacks)


def check_cost_to_go(trace: Trace, cert: RateCertificate, variant: str) -> CheckReport:
    """Upper bound on the squared remaining gap after each iteration."""
    _check_theorem("cost-to-go", variant, cert)
    if trace.f_star is None:
        raise ValueError("attach the reference solution first")
    recs = trace.records
    deltas = trace.deltas()
    K = trace.meta["n_blocks"]
    R2 = cert.radius**2
    slacks = []
    if variant == "gs":
        steps = _require([r.step_sq for r in recs[1:]], "step norms")
        for j in range(1, len(recs)):
            bound = R2 * K * cert.g_max**2 * steps[j - 1]
            slacks.append(bound - deltas[j] ** 2)
    elif variant == "ec":
        T = cert.period
        steps = _require([r.step_sq for r in recs[1:]], "step norms")
        for j in range(T, len(recs)):
            window = float(np.sum(steps[j - T:j]))
            bound = T * R2 * K * cert.g_max**2 * window
            slacks.append(bound - deltas[j] ** 2)
    elif variant == "gso-mbi":
        virt = _require([r.virt_step_sq for r in recs[1:]], "virtual step norms")
        coeff = 2.0 * ((cert.grad_bound + cert.l_h) ** 2 + cert.l_max**2 * K * R2)
        for j in range(1, len(recs) - 1):
            slacks.append(coeff * virt[j] - deltas[j] ** 2)
    else:  # bcm-gs
        grads = _require([r.grad_diff_sq for r in recs[1:]], "gradient differences")
        for j in range(1, len(recs)):
            slacks.append(2.0 * K**2 * R2 * grads[j - 1] - deltas[j] ** 2)
    return _report("cost-to-go", variant, slacks)


def check_rate_envelope(trace: Trace, sigma: float, c: float, offset: int = 0,
                        label: str = "envelope") -> CheckReport:
    """gap(r) <= (c/sigma) / (r - offset) for every recorded r > offset."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    deltas = trace.deltas()
    slacks = [
        (c / sigma) / (j - offset) - deltas[j]
        for j in range(offset + 1, len(deltas))
    ]
    return _report("rate-envelope", label, slacks)


def fit_decay_exponent(trace: Trace, burn_in: int) -> float:
    """Least-squares slope of log gap against log iteration index."""
    deltas = trace.deltas()
    rs, ds = [], []
    for j in range(max(burn_in + 1, 1), len(deltas)):
        if deltas[j] > 1e-14:
            rs.append(j)
            ds.append(deltas[j])
    if len(rs) < 20:
        raise ValueError(
            f"insufficient data: {len(rs)} usable records after burn-in {burn_in}"
        )
    slope = np.polyfit(np.log(np.asarray(rs, float)), np.log(np.asarray(ds)), 1)[0]
    return float(slope)
