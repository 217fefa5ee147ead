"""Per-block upper-bound families, their minimizers, and prox operators.

Two surrogate families live here: exact (the block function itself, for
coordinate minimization) and prox-linear (gradient step plus a quadratic
penalty, for proximal coordinate updates).  Model-specific bounds such as
the reweighting bound for smoothed sums of norms are built by the model
and expose the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problem import (
    Array,
    ConstraintSet,
    NonsmoothBlock,
    Problem,
    UnsupportedCombination,
    block_gradient,
    project_feasible,
)


def prox_block(h: NonsmoothBlock, xset: ConstraintSet, beta: float, v) -> Array:
    """argmin_u h(u) + I_X(u) + (beta/2)||v - u||^2, in closed form.

    Supported pairings: any set with h = 0 (plain projection); l1 with
    all-space, box, or nonnegativity (clipped soft-threshold, exact because
    both pieces are separable and monotone); the l2-norm term with all-space
    or an origin-centered ball (radial shrinkage).
    """
    if beta <= 0:
        raise ValueError(f"prox requires beta > 0, got {beta}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if h.is_zero:
        return xset.project(v)
    if h.kind == "l1":
        u = np.sign(v) * np.maximum(np.abs(v) - h.weight / beta, 0.0)
        if xset.kind in ("all-space", "box", "nonneg"):
            return xset.project(u)
        raise UnsupportedCombination(f"l1 prox with {xset.kind!r} constraint")
    if h.kind == "group-l2":
        nv = float(np.linalg.norm(v))
        if xset.kind == "all-space":
            if nv == 0.0:
                return np.zeros_like(v)
            return v * max(1.0 - h.weight / (beta * nv), 0.0)
        if xset.kind == "ball" and not np.any(xset.center):
            if nv == 0.0:
                return np.zeros_like(v)
            t = min(max(nv - h.weight / beta, 0.0), xset.radius)
            return v * (t / nv)
        raise UnsupportedCombination(f"group-l2 prox with {xset.kind!r} constraint")
    raise ValueError(f"unknown nonsmooth kind {h.kind!r}")


def prox_coordinates(problem: Problem, coords: Array, beta: Array, v: Array) -> Array:
    """prox_block on the given coordinates of coordinatewise blocks, in one pass.

    beta and v hold one entry per coordinate.  Every operation is
    prox_block's, coordinate by coordinate, so the result equals the
    per-block calls bit for bit.
    """
    if np.any(beta <= 0):
        raise ValueError(f"prox requires beta > 0, got {float(np.min(beta))}")
    u = np.array(v, dtype=float)
    w = problem.layout.l1_weight[coords]
    l1 = w > 0.0
    u[l1] = np.sign(u[l1]) * np.maximum(np.abs(u[l1]) - w[l1] / beta[l1], 0.0)
    return u


@dataclass(eq=False)
class Surrogate:
    """Per-block upper bounds u_k with declared curvature constants.

    kinds[k] is "exact", "prox-linear" or a model's own kind; lip[k] is the
    gradient Lipschitz constant of u_k in its own variable (the step
    constant of a prox-linear block).  The certificate constants follow
    from these and the problem's declared ones: gamma and g_max below.
    capped_solves counts the block solves whose inner loop stopped at its
    cap instead of converging: a model-specific bound's prox loop, or an
    exact solve's (the group solve's Newton iteration), which reports
    through count_cap.  make_surrogate builds these and checks that an
    exact block has a solver.

    The per-iterate oracles read a table built at construction:
    exact_blocks, and the all-blocks virtual update's prox-linear steps of
    coordinatewise blocks taken as one array operation (arrayed_coords,
    with their step constants arrayed_lip), with each of solo_blocks solved
    alone.  dataclasses.replace builds it again; assigning kinds or lip on
    an instance would leave it stale.
    """

    problem: Problem
    kinds: tuple[str, ...]
    lip: tuple[float, ...]
    capped_solves: int = 0
    exact_blocks: frozenset[int] = field(init=False, repr=False)
    arrayed_coords: Array = field(init=False, repr=False)
    arrayed_lip: Array = field(init=False, repr=False)
    solo_blocks: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        lay = self.problem.layout
        self.exact_blocks = frozenset(k for k, kind in enumerate(self.kinds) if kind == "exact")
        arrayed = lay.coordwise & (np.asarray(self.kinds) == "prox-linear")
        self.arrayed_coords = np.flatnonzero(arrayed[lay.block_of])
        self.arrayed_lip = np.asarray(self.lip, dtype=float)[lay.block_of[self.arrayed_coords]]
        self.solo_blocks = tuple(np.flatnonzero(~arrayed).tolist())

    @property
    def kind(self) -> str:
        uniq = set(self.kinds)
        return uniq.pop() if len(uniq) == 1 else "mixed"

    @property
    def gamma(self) -> float:
        """Half the smallest strong-convexity modulus of the u_k: an exact
        block's is the declared block curvature, a prox-linear block's its
        step constant, and any other kind declares none (so gamma is 0)."""
        curv = self.problem.smooth.block_curvature or (0.0,) * len(self.kinds)
        return 0.5 * min(curv[k] if kind == "exact" else lk if kind == "prox-linear" else 0.0
                         for k, (kind, lk) in enumerate(zip(self.kinds, self.lip)))

    @property
    def l_max(self) -> float:
        return max(self.lip)

    @property
    def g_max(self) -> Optional[float]:
        """The largest gradient Lipschitz constant of the u_k in the anchor:
        M for an exact block, M + L_k for a prox-linear one, None when any
        block is of another kind."""
        if not set(self.kinds) <= set(BLOCK_KINDS):
            return None
        big_m = self.problem.smooth.lipschitz
        return max(big_m if kind == "exact" else big_m + lk
                   for kind, lk in zip(self.kinds, self.lip))

    # -- oracles ------------------------------------------------------------

    def value(self, k: int, v_k, anchor) -> float:
        """u_k(v_k; anchor), the smooth-part bound only (no h_k)."""
        p = self.problem
        v_k = np.atleast_1d(np.asarray(v_k, dtype=float))
        anchor = np.asarray(anchor, dtype=float)
        if self.kinds[k] == "exact":
            y = np.array(anchor)
            y[p.partition.block_slice(k)] = v_k
            return float(p.smooth.value(y))
        xk = p.partition.block(anchor, k)
        g = block_gradient(p, k, anchor)
        d = v_k - xk
        return float(p.smooth.value(anchor) + g @ d + 0.5 * self.lip[k] * (d @ d))

    def count_cap(self) -> None:
        """Count one block solve whose inner loop stopped at its cap."""
        self.capped_solves += 1

    def argmin(self, k: int, anchor, grad_k: Optional[Array] = None) -> Array:
        """argmin over X_k of u_k(.; anchor) + h_k."""
        p = self.problem
        anchor = np.asarray(anchor, dtype=float)
        if self.kinds[k] == "exact":
            return p.exact_solver(k, anchor, on_cap=self.count_cap)
        xk = p.partition.block(anchor, k)
        g = block_gradient(p, k, anchor) if grad_k is None else grad_k
        lk = self.lip[k]
        return prox_block(p.nonsmooth[k], p.constraints[k], lk, xk - g / lk)


BLOCK_KINDS = ("exact", "prox-linear")


def check_block_kinds(kinds, n_blocks: Optional[int]) -> tuple[str, ...]:
    """A mixed surrogate's kinds as a tuple: one of BLOCK_KINDS per block (of
    n_blocks, when given), else ValueError."""
    if not isinstance(kinds, (list, tuple)) or n_blocks not in (None, len(kinds)) \
            or not all(k in BLOCK_KINDS for k in kinds):
        raise ValueError(f"mixed surrogate needs a list of {n_blocks or 'per-block'} kinds "
                         f"from {BLOCK_KINDS}, got {kinds!r}")
    return tuple(kinds)


def _independent(blocks: list[int]) -> str:
    return (f"g does not depend on blocks {blocks}: their declared Lipschitz constant L_k "
            f"is 0 (an all-zero data column gives this)")


def make_surrogate(
    problem: Problem,
    kind: str = "prox-linear",
    kinds: Optional[tuple[str, ...]] = None,
    lip: Optional[tuple[float, ...]] = None,
):
    """Build a surrogate family for the problem.

    kind is "prox-linear", "exact", "mixed" (then kinds gives the per-block
    choice), or "model-custom" (delegates to the model's registered bound).
    Prox-linear step constants default to the declared per-block gradient
    Lipschitz constants of g.
    """
    K = problem.n_blocks
    if kind == "model-custom":
        if problem.custom_surrogate_factory is None:
            raise UnsupportedCombination(f"model {problem.name!r} has no custom bound")
        return problem.custom_surrogate_factory(problem)
    if kind == "mixed":
        kinds = check_block_kinds(kinds, K)
    elif kind in BLOCK_KINDS:
        kinds = (kind,) * K
    else:
        raise ValueError(f"unknown surrogate kind {kind!r}")

    declared = problem.smooth.block_lipschitz
    if "exact" in kinds and problem.exact_solver is None:
        flat = [k for k, lk in enumerate(declared) if lk <= 0]
        raise UnsupportedCombination(f"model {problem.name!r} registers no exact block solver"
                                     + (f"; {_independent(flat)}" if flat else ""))

    steps = [declared[k] if lip is None or kind == "exact" else float(lip[k])
             for k, kind in enumerate(kinds)]
    bad = [k for k, kind in enumerate(kinds) if kind == "prox-linear" and steps[k] <= 0]
    if bad and lip is None:
        raise ValueError(f"{_independent(bad)}, and a prox-linear step needs L_k > 0")
    if bad:
        raise ValueError(f"prox-linear step constants must be positive; blocks {bad} "
                         f"have {[steps[k] for k in bad]}")
    return Surrogate(problem=problem, kinds=kinds, lip=tuple(steps))


# ---------------------------------------------------------------------------
# sampled validity checks


@dataclass
class UpperBoundReport:
    """Worst sampled violations of the upper-bound conditions."""

    tightness: float  # |u_k(x_k; x) - g(x)|
    domination: float  # (g(v_k, x_{-k}) - u_k(v_k; x))_+
    gradient_mismatch: float  # ||d/dv u_k(x_k; x) - grad_k g(x)||, finite differences

    def max_violation(self) -> float:
        return max(self.tightness, self.domination, self.gradient_mismatch)


def _fd_surrogate_gradient(surrogate, k: int, v_k: Array, anchor: Array, step: float) -> Array:
    g = np.empty_like(v_k)
    for i in range(v_k.shape[0]):
        e = np.zeros_like(v_k)
        e[i] = step
        g[i] = (
            surrogate.value(k, v_k + e, anchor) - surrogate.value(k, v_k - e, anchor)
        ) / (2.0 * step)
    return g


def validate_upper_bound(surrogate, n_samples: int = 50, seed: int = 0) -> UpperBoundReport:
    """Sample anchors and candidate blocks; report worst-case violations.

    Violations are reported, never raised: an invalid bound (say, an
    understated step constant) is a legitimate object of study and the
    rate certificates flag it downstream.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    p = surrogate.problem
    rng = np.random.default_rng(seed)
    tight = 0.0
    dom = 0.0
    grad_mis = 0.0
    for _ in range(n_samples):
        x = project_feasible(p, rng.standard_normal(p.dim))
        gx = float(p.smooth.value(x))
        for k in range(p.n_blocks):
            sl = p.partition.block_slice(k)
            xk = x[sl]
            tight = max(tight, abs(surrogate.value(k, xk, x) - gx))
            vk = p.constraints[k].project(xk + rng.standard_normal(xk.shape[0]))
            y = np.array(x)
            y[sl] = vk
            dom = max(dom, float(p.smooth.value(y)) - surrogate.value(k, vk, x))
            step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            fd = _fd_surrogate_gradient(surrogate, k, xk, x, step)
            grad_mis = max(grad_mis, float(np.linalg.norm(fd - block_gradient(p, k, x))))
    return UpperBoundReport(
        tightness=tight, domination=max(dom, 0.0), gradient_mismatch=grad_mis
    )
