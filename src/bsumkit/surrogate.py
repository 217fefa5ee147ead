"""Per-block upper-bound families, their minimizers, and prox operators.

Two surrogate families live here: exact (the block function itself, for
coordinate minimization) and prox-linear (gradient step plus a quadratic
penalty, for proximal coordinate updates).  Model-specific bounds such as
the reweighting bound for smoothed sums of norms are built by the model
and expose the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    kinds[k] is "exact" or "prox-linear".  Declared constants per block:
    gamma (strong convexity of u_k in its own variable), lip (gradient
    Lipschitz constant in its own variable), anchor_lip (gradient Lipschitz
    constant with respect to the anchor point).  capped_solves counts the
    block solves whose inner loop stopped at its cap instead of converging:
    a model-specific bound's prox loop, or an exact solve's (the group
    solve's Newton iteration), which reports through count_cap.
    make_surrogate builds these and checks that an exact block has a solver.
    """

    problem: Problem
    kinds: tuple[str, ...]
    lip: tuple[Optional[float], ...]
    gamma_blocks: tuple[Optional[float], ...]
    anchor_lip: tuple[Optional[float], ...]
    capped_solves: int = 0

    @property
    def kind(self) -> str:
        uniq = set(self.kinds)
        return uniq.pop() if len(uniq) == 1 else "mixed"

    @property
    def gamma(self) -> float:
        """Half the smallest per-block strong-convexity modulus (0 if any absent)."""
        vals = [0.0 if g is None else g for g in self.gamma_blocks]
        return 0.5 * min(vals)

    @property
    def l_max(self) -> Optional[float]:
        if any(v is None for v in self.lip):
            return None
        return max(self.lip)

    @property
    def g_max(self) -> Optional[float]:
        if any(v is None for v in self.anchor_lip):
            return None
        return max(self.anchor_lip)

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

    if "exact" in kinds and problem.exact_solver is None:
        raise UnsupportedCombination(
            f"model {problem.name!r} registers no exact block solver"
        )

    big_m = problem.smooth.lipschitz
    lip_out, gamma_out, anchor_out = [], [], []
    curv = problem.block_curvature or (0.0,) * K
    for k in range(K):
        if kinds[k] == "exact":
            lk = problem.smooth.block_lipschitz[k]
            lip_out.append(lk)
            gamma_out.append(curv[k])
            anchor_out.append(big_m)
        else:
            lk = problem.smooth.block_lipschitz[k] if lip is None else float(lip[k])
            if lk <= 0:
                raise ValueError("prox-linear step constants must be positive")
            lip_out.append(lk)
            gamma_out.append(lk)
            anchor_out.append(big_m + lk)
    return Surrogate(
        problem=problem,
        kinds=kinds,
        lip=tuple(lip_out),
        gamma_blocks=tuple(gamma_out),
        anchor_lip=tuple(anchor_out),
    )


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


def validate_upper_bound(surrogate, n_samples: int = 50, seed: int = 0,
                         scale: float = 1.0) -> UpperBoundReport:
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
        x = project_feasible(p, scale * rng.standard_normal(p.dim))
        gx = float(p.smooth.value(x))
        for k in range(p.n_blocks):
            sl = p.partition.block_slice(k)
            xk = x[sl]
            tight = max(tight, abs(surrogate.value(k, xk, x) - gx))
            vk = p.constraints[k].project(xk + scale * rng.standard_normal(xk.shape[0]))
            y = np.array(x)
            y[sl] = vk
            dom = max(dom, float(p.smooth.value(y)) - surrogate.value(k, vk, x))
            step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            fd = _fd_surrogate_gradient(surrogate, k, xk, x, step)
            grad_mis = max(grad_mis, float(np.linalg.norm(fd - block_gradient(p, k, x))))
    return UpperBoundReport(
        tightness=tight, domination=max(dom, 0.0), gradient_mismatch=grad_mis
    )
