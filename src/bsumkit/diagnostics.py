"""Rate certificates and numerical verification of the descent machinery.

Given a finished trace and its reference solution, this module assembles
the constants a sublinear-rate certificate needs (curvature, step and
anchor Lipschitz constants, level-set radius and gradient bound), maps them
to each certificate's (sigma, c) pair, and checks the per-iteration descent,
cost-to-go, and rate-envelope inequalities at a fixed absolute tolerance.

On an unbounded feasible set the radius and gradient bound are the run's own
maxima, tagged trajectory.  The theorems' level-set suprema may be larger, so
a failure under them is inconclusive rather than a disproof; a pass is a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engine import Trace
from .problem import (
    Array,
    Problem,
    block_gradient,
    eval_objective,  # unused; kept while perfbench/layers.py:181 patches it (ROADMAP item 5)
    nonsmooth_lipschitz,
    project_feasible,
)

CHECK_TOLERANCE = 1e-9  # every descent, cost-to-go and envelope check
NESTEROV_PAIRS = 100  # sampled pairs of the smooth-curvature check
NESTEROV_TOLERANCE = 1e-10
FD_STEP = 1e-6  # central-difference step of the gradient check
FD_TOLERANCE = 1e-5  # its largest relative disagreement


@dataclass(eq=False)
class RateCertificate:
    """Constant bundle feeding the sigma formulas, with per-constant provenance."""

    gamma: float
    l_max: Optional[float]
    g_max: Optional[float]
    big_m: float
    m_max: float
    radius: float
    grad_bound: float
    l_h: float
    q: float
    period: int
    f_star: float
    f_first: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma, "L_max": self.l_max, "G_max": self.g_max,
            "M": self.big_m, "M_max": self.m_max, "R": self.radius,
            "Q": self.grad_bound, "L_h": self.l_h, "q": self.q, "T": self.period,
            "f_star": self.f_star, "f_first": self.f_first,
            "provenance": dict(self.provenance),
        }


@dataclass(eq=False)
class CheckReport:
    """Result of one inequality check over a trace."""

    check_id: str
    variant: str
    slacks: Array  # inequality margin per checked index; negative = violated
    max_violation: float
    tolerance: float
    passed: bool
    n_checked: int

    def to_dict(self) -> dict:
        return {
            "check": self.check_id, "variant": self.variant,
            "max_violation": self.max_violation, "tolerance": self.tolerance,
            "passed": self.passed, "n_checked": self.n_checked,
        }


def _report(check_id: str, variant: str, slacks,
            tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """A slack that is not finite (a NaN or infinite objective) is an unbounded violation."""
    slacks = np.asarray(slacks, dtype=float)
    counted = np.where(np.isfinite(slacks), slacks, -np.inf)
    viol = float(max(0.0, -np.min(counted, initial=np.inf)))
    return CheckReport(
        check_id=check_id, variant=variant, slacks=slacks,
        max_violation=viol, tolerance=tolerance,
        passed=viol <= tolerance, n_checked=int(slacks.size),
    )


# ---------------------------------------------------------------------------
# constants


def estimate_constants(problem: Problem, surrogate, trace: Trace) -> RateCertificate:
    """Assemble certificate constants for a trace with an attached reference.

    The radius covers every trace point (iterates and virtual points) and
    the gradient bound every iterate; on fully bounded feasible
    sets both are replaced by the exact farthest-point bounds.
    """
    if trace.f_star is None or trace.x_star is None:
        raise ValueError("estimate_constants needs the reference solution attached")
    if len(trace.records) < 2:
        raise ValueError("trace needs at least one iteration")
    x_star = trace.x_star
    prov: dict[str, str] = {
        "gamma": "declared", "L_max": "declared", "G_max": "declared",
        "M": "declared", "L_h": "computed-exact",
    }

    if all(c.is_bounded() for c in problem.constraints):
        per_block = [
            c.max_distance_from(x_star[problem.partition.block_slice(k)])
            for k, c in enumerate(problem.constraints)
        ]
        radius = float(np.sqrt(np.sum(np.square(per_block))))
        grad_bound = float(
            np.linalg.norm(problem.smooth.grad(x_star))
            + problem.smooth.lipschitz * radius
        )
        prov["R"] = "computed-exact"
        prov["Q"] = "computed-exact"
    else:
        points = trace.iterates + [p for p in trace.virtual_points if p is not None]
        dists = [float(np.linalg.norm(p - x_star)) for p in points]
        radius = max(max(dists), 1e-12)
        grad_bound = max(float(np.linalg.norm(problem.smooth.grad(p)))
                         for p in trace.iterates)
        prov["R"] = "trajectory"
        prov["Q"] = "trajectory"

    return RateCertificate(
        gamma=surrogate.gamma,
        l_max=surrogate.l_max,
        g_max=surrogate.g_max,
        big_m=problem.smooth.lipschitz,
        m_max=problem.smooth.max_block_lipschitz,
        radius=radius,
        grad_bound=grad_bound,
        l_h=nonsmooth_lipschitz(problem),
        q=float(trace.meta.get("q", 1.0)),
        period=int(trace.meta.get("period", 1)),
        f_star=trace.f_star,
        f_first=trace.records[1].f,
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# which certificates cover a run


@dataclass(frozen=True)
class Theorem:
    """One certificate: the runs it covers and what it needs to hold.

    check is the suite that runs it ("descent", "cost-to-go" or
    "envelope") and variant its check variant or rate id.  A run is covered
    when its algorithm, rule and surrogate kind are listed (surrogates None
    admits every kind).  needs names what the certificate assumes:
    "gamma>0" (curvature of every block bound), "G_max" (anchor Lipschitz
    constant), "L_max" (step constant), and, read off the declared g = phi(Ax - b),
    "composite" (phi = ||.||^2 over two blocks or more) and "svm" (squared hinge).
    """

    check: str
    variant: str
    algorithms: tuple[str, ...]
    rules: tuple[str, ...]
    surrogates: Optional[tuple[str, ...]] = None
    needs: tuple[str, ...] = ()


_BLOCK_RUNS = ("bsum", "sum")  # the single-block run is one-block BSUM
_CYCLIC = ("gauss-seidel", "essentially-cyclic", "random-permutation")
_GS = ("gauss-seidel", "random-permutation")  # every block once per iteration
_EC = ("essentially-cyclic",)
_GREEDY = ("gauss-southwell", "mbi")
_EXACT = ("exact",)

# In plan order: descent checks, then cost-to-go checks, then envelopes.
THEOREMS = (
    # BSUM with strongly convex block bounds (BCPG/BCGD and BCM alike)
    Theorem("descent", "gs-ec", _BLOCK_RUNS, _CYCLIC),
    Theorem("descent", "gso-mbi", _BLOCK_RUNS, _GREEDY),
    # exact block minimization without per-block strong convexity
    Theorem("descent", "bcm", _BLOCK_RUNS, _CYCLIC, _EXACT),
    Theorem("cost-to-go", "gs", _BLOCK_RUNS, _GS, needs=("G_max",)),
    Theorem("cost-to-go", "bcm-gs", _BLOCK_RUNS, _GS, _EXACT),
    Theorem("cost-to-go", "ec", _BLOCK_RUNS, _EC, needs=("G_max",)),
    Theorem("cost-to-go", "gso-mbi", _BLOCK_RUNS, _GREEDY, needs=("L_max",)),
    Theorem("envelope", "bsum-gs", ("bsum",), _GS, needs=("gamma>0", "G_max")),
    Theorem("envelope", "bsum-ec", ("bsum",), _EC, needs=("gamma>0", "G_max")),
    Theorem("envelope", "bsum-gso", ("bsum",), ("gauss-southwell",), needs=("gamma>0", "L_max")),
    Theorem("envelope", "bsum-mbi", ("bsum",), ("mbi",), needs=("gamma>0", "L_max")),
    Theorem("envelope", "bcm-gs", ("bsum",), _GS, _EXACT),
    # composite g(Ax) and squared-hinge structure sharpen the BCM rate
    Theorem("envelope", "composite-gs", ("bsum",), _GS, _EXACT, ("composite",)),
    Theorem("envelope", "l2svm-gs", ("bsum",), _GS, _EXACT, ("svm",)),
    Theorem("envelope", "bcm-ec", ("bsum",), _EC, _EXACT),
    Theorem("envelope", "sum", ("sum",), ("gauss-seidel",), needs=("L_max",)),
    # the two-block alternation certifies with the outer block's step
    # constant, which only its caller knows, so no run plans it
    Theorem("envelope", "two-block", (), ("gauss-seidel",), ("mixed",), ("L_max",)),
)
ORACLE_SUITES = ("nesterov", "fd")  # suites that test the problem and need no certificate
SUITES = ("descent", "cost-to-go", "envelope") + ORACLE_SUITES  # what a config may name


def _unmet(t: Theorem, cert: RateCertificate, problem: Optional[Problem] = None,
           lip: Optional[float] = None) -> list[str]:
    """The needs of t that the certificate (or surrogate) and the declared loss leave open."""
    step = cert.l_max if lip is None else lip
    linear = None if problem is None else problem.smooth.linear
    loss = None if linear is None else linear.phi.name
    held = {
        "gamma>0": cert.gamma > 0,
        "G_max": cert.g_max is not None,
        "L_max": step is not None and step > 0,
        "composite": loss == "squares" and problem.n_blocks >= 2,
        "svm": loss == "squared-hinge",
    }
    return [need for need in t.needs if not held[need]]


def _check_theorem(check: str, variant: str, cert: RateCertificate, **structure) -> None:
    """Raise ValueError for an unknown variant or a need the certificate leaves open."""
    rows = [t for t in THEOREMS if (t.check, t.variant) == (check, variant)]
    if not rows:
        what = "rate id" if check == "envelope" else f"{check} variant"
        known = [t.variant for t in THEOREMS if t.check == check]
        raise ValueError(f"unknown {what} {variant!r}; expected one of {known}")
    missing = _unmet(rows[0], cert, **structure)
    if missing:
        raise ValueError(f"{check} {variant!r} needs {', '.join(missing)}, "
                         f"which the certificate lacks")


def plan_checks(meta: dict, surrogate, problem: Problem,
                suites: Sequence[str]) -> list[tuple[str, Optional[str]]]:
    """A run's (suite, variant) checks in run order: each THEOREMS row of a named
    suite that covers the run and whose needs hold, then ("nesterov", None)
    and ("fd", None) if named.  meta gives the algorithm, rule and surrogate
    kind, as a trace's meta does; gamma, g_max and l_max are read off the
    surrogate (None for a2bsum, which no row covers) or its certificate."""
    return [
        (t.check, t.variant) for t in THEOREMS
        if t.check in suites and meta["algorithm"] in t.algorithms and meta["rule"] in t.rules
        and (t.surrogates is None or meta["surrogate"] in t.surrogates)
        and not _unmet(t, surrogate, problem)
    ] + [(suite, None) for suite in ORACLE_SUITES if suite in suites]


# ---------------------------------------------------------------------------
# sigma / c table


def _pair(sigma: float, cert: RateCertificate, offset: int) -> tuple[float, float, int]:
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError("sigma must be positive and finite")
    c = max(4.0 * sigma - 2.0, cert.f_first - cert.f_star, 2.0)
    return sigma, c, offset


def sigma_for(
    rate_id: str,
    cert: RateCertificate,
    n_blocks: int,
    problem: Optional[Problem] = None,
    lip: Optional[float] = None,
) -> tuple[float, float, int]:
    """(sigma, c, iteration offset) for one convergence certificate.

    The envelope certified is gap(r) <= (c / sigma) / (r - offset) for all
    r > offset.
    """
    _check_theorem("envelope", rate_id, cert, problem=problem, lip=lip)
    K = float(n_blocks)
    R = cert.radius
    if rate_id == "bsum-gs":
        return _pair(cert.gamma / (K * cert.g_max**2 * R**2), cert, 0)
    if rate_id == "bsum-ec":
        return _pair(
            cert.gamma / (K * cert.period * R**2 * cert.g_max**2), cert, cert.period
        )
    if rate_id in ("bsum-gso", "bsum-mbi"):
        qq = cert.q if rate_id == "bsum-gso" else 1.0
        denom = 2.0 * K * ((cert.grad_bound + cert.l_h) ** 2 + cert.l_max**2 * K * R**2)
        return _pair(cert.gamma * qq / denom, cert, 0)
    if rate_id in ("sum", "two-block"):
        step = lip if lip is not None else cert.l_max
        return _pair(1.0 / (32.0 * R**2 * step), cert, 1 if rate_id == "sum" else 2)
    if rate_id == "bcm-gs":
        return _pair(1.0 / (2.0 * cert.big_m * K**2 * R**2), cert, 0)
    if rate_id == "bcm-ec":
        return _pair(
            1.0 / (2.0 * K**2 * cert.period * R**2 * cert.big_m), cert, cert.period
        )
    if rate_id == "composite-gs":
        # phi = ||.||^2 is 2-strongly convex; its gradient moves by at most
        # 2 sqrt(K - 1) times the change in the other blocks' outputs, so the
        # worst case is 4 (K - 1) max_k lambda_max(A_k^T A_k) = 2 (K - 1) M_max
        worst = 2.0 * (K - 1.0) * cert.m_max
        return _pair(2.0 / (2.0 * K * R**2 * worst), cert, 0)
    # l2svm-gs
    A = problem.smooth.linear.A
    blocks = [A[:, problem.partition.block_slice(k)] for k in range(n_blocks)]
    row_sum = sum(float(np.max(np.linalg.norm(Ak, axis=1))) for Ak in blocks)
    return _pair(1.0 / (8.0 * row_sum**2 * K * A.shape[0] * R**2), cert, 0)


# ---------------------------------------------------------------------------
# inequality checks over traces


_COLUMNS = {"step_sq": "step norms", "virt_step_sq": "virtual step norms",
            "grad_diff_sq": "gradient differences"}


def _column(trace: Trace, name: str) -> Array:
    """Statistic name of every record after the start, as floats."""
    values = [getattr(r, name) for r in trace.records[1:]]
    if any(v is None for v in values):
        raise ValueError(f"trace lacks {_COLUMNS[name]} needed by this variant")
    return np.asarray(values, dtype=float)


def check_sufficient_descent(trace: Trace, cert: RateCertificate, variant: str) -> CheckReport:
    """Per-iteration lower bound on the gap decrease.

    Variants: "gs-ec" (squared step against the surrogate curvature),
    "gso-mbi" (squared virtual step, scaled by the selection constant),
    "bcm" (summed squared gradient differences against 1/2M).
    """
    _check_theorem("descent", variant, cert)
    if len(trace.records) < 2:
        raise ValueError("trace needs at least one iteration")
    f = trace.fvals()
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN drop, reported as unbounded
        drops = f[:-1] - f[1:]
    if variant == "gs-ec":
        rhs = cert.gamma * _column(trace, "step_sq")
    elif variant == "gso-mbi":
        c1 = cert.q if trace.meta.get("rule") == "gauss-southwell" else 1.0
        rhs = (c1 / trace.meta["n_blocks"]) * cert.gamma * _column(trace, "virt_step_sq")
    else:  # bcm
        rhs = _column(trace, "grad_diff_sq") / (2.0 * cert.big_m)
    return _report("sufficient-descent", variant, drops - rhs)


def check_cost_to_go(trace: Trace, cert: RateCertificate, variant: str) -> CheckReport:
    """Upper bound on the squared remaining gap after each iteration.

    Variants: "gs", "ec" (window of squared steps), "gso-mbi" (squared
    virtual step at the current point), "bcm-gs" (gradient differences).
    """
    _check_theorem("cost-to-go", variant, cert)
    deltas = trace.deltas()  # ValueError without a reference
    K = trace.meta["n_blocks"]
    R2 = cert.radius**2
    if variant == "gs":
        bounds = R2 * K * cert.g_max**2 * _column(trace, "step_sq")
        gaps = deltas[1:]
    elif variant == "ec":
        T = cert.period
        steps = _column(trace, "step_sq")
        windows = np.array([np.sum(steps[j - T:j]) for j in range(T, len(deltas))])
        bounds = T * R2 * K * cert.g_max**2 * windows
        gaps = deltas[T:]
    elif variant == "gso-mbi":
        coeff = 2.0 * ((cert.grad_bound + cert.l_h) ** 2 + cert.l_max**2 * K * R2)
        # bounds the squared gap at the anchor by the virtual step computed
        # from it (the next record holds that virtual step)
        bounds = coeff * _column(trace, "virt_step_sq")[1:]
        gaps = deltas[1:-1]
    else:  # bcm-gs
        bounds = 2.0 * K**2 * R2 * _column(trace, "grad_diff_sq")
        gaps = deltas[1:]
    # each gap squared as a numpy scalar (libm pow): an array's x * x rounds
    # differently in about one draw in a thousand
    return _report("cost-to-go", variant, bounds - np.array([g ** 2 for g in gaps]))


def check_rate_envelope(
    trace: Trace, sigma: float, c: float, offset: int = 0, label: str = "envelope",
) -> CheckReport:
    """gap(r) <= (c/sigma) / (r - offset) for every recorded r > offset."""
    if sigma <= 0 or offset < 0:
        raise ValueError("sigma must be positive and offset nonnegative")
    gaps = trace.deltas()[offset + 1:]
    return _report("rate-envelope", label, (c / sigma) / np.arange(1, len(gaps) + 1) - gaps)


def check_nesterov_inequality(
    problem: Problem, big_m: Optional[float] = None, seed: int = 0,
) -> CheckReport:
    """Smooth convexity with curvature M implies a gradient-difference bound;
    sample NESTEROV_PAIRS feasible pairs and report the worst slack."""
    big_m = problem.smooth.lipschitz if big_m is None else float(big_m)
    rng = np.random.default_rng([0xAE5, seed])
    slacks = []
    for _ in range(NESTEROV_PAIRS):
        x = project_feasible(problem, rng.standard_normal(problem.dim))
        v = project_feasible(problem, rng.standard_normal(problem.dim))
        gx = problem.smooth.grad(x)
        gv = problem.smooth.grad(v)
        lhs = float(problem.smooth.value(x)) - float(problem.smooth.value(v))
        rhs = float(gv @ (x - v)) + float((gv - gx) @ (gv - gx)) / (2.0 * big_m)
        slacks.append(lhs - rhs)
    return _report("smooth-curvature", "pairs", slacks, NESTEROV_TOLERANCE)


def fd_gradient_check(problem: Problem, points: Sequence[Array]) -> float:
    """Worst relative disagreement between block gradients and central
    finite differences of g, with step FD_STEP, over the given points; NaN
    when one of them is NaN."""
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        analytic = np.concatenate([block_gradient(problem, k, x) for k in range(problem.n_blocks)])
        fd = np.empty_like(analytic)
        for i in range(problem.dim):
            e = np.zeros(problem.dim)
            e[i] = FD_STEP
            fd[i] = (float(problem.smooth.value(x + e))
                     - float(problem.smooth.value(x - e))) / (2.0 * FD_STEP)
        rel = np.abs(fd - analytic) / (1.0 + np.abs(analytic))
        worst = float(np.max(rel, initial=worst))  # a NaN stays
    return worst


def fit_decay_exponent(trace: Trace, burn_in: int) -> float:
    """Least-squares slope of log gap against log iteration index."""
    deltas = trace.deltas()
    start = max(burn_in + 1, 1)
    # a gap at rounding level has no slope to fit
    rs = start + np.flatnonzero(deltas[start:] > 1e-14)
    if len(rs) < 20:
        raise ValueError(
            f"insufficient data: {len(rs)} usable records after burn-in {burn_in}"
        )
    return float(np.polyfit(np.log(rs.astype(float)), np.log(deltas[rs]), 1)[0])
