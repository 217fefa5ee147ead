"""Coordinate-selection rules and the all-blocks virtual update.

A schedule owns the per-run selection state (cycle position, permutation
RNG).  One schedule instance belongs to one run; build a fresh one per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .problem import (
    Array,
    Problem,
    block_norms,
    block_values,
    eval_objective,
    full_gradient,
    is_integer,
    objective_with_block,
)
from .surrogate import prox_coordinates

RULES = (
    "gauss-seidel",
    "essentially-cyclic",
    "gauss-southwell",
    "mbi",
    "random-permutation",
)


class MissingVirtualUpdate(ValueError):
    """A greedy rule was asked to select without the virtual update it needs."""


class VirtualUpdate:
    """All-blocks candidate updates anchored at the same point.

    x_hat stacks the per-block minimizers of u_k(.; anchor) + h_k computed
    jointly (all anchored at the anchor), step_norms holds
    ||x_hat_k - anchor_k|| and objectives holds f(x_hat_k, anchor_{-k}).
    objectives may be given as an array or as a function that computes it;
    the function runs on the first read, so a rule that never reads the
    objectives (Gauss-Southwell) never pays for them.
    """

    def __init__(self, x_hat: Array, step_norms: Array,
                 objectives: Union[Array, Callable[[], Array]]):
        self.x_hat = x_hat
        self.step_norms = step_norms
        self._objectives = objectives

    @property
    def objectives(self) -> Array:
        if callable(self._objectives):
            self._objectives = self._objectives()
        return self._objectives


def virtual_updates(problem: Problem, surrogate, x, f: Optional[float] = None) -> VirtualUpdate:
    """The all-blocks virtual update at x; f, when given, is f(x), which
    candidate_objectives then need not evaluate again."""
    x = np.asarray(x, dtype=float)
    grad = full_gradient(problem, x)
    x_hat = np.array(x)
    # prox-linear steps of coordinatewise blocks run as one array operation;
    # every other block (exact, model-custom, group-l2, constrained) is solved alone
    coords, lip = surrogate.arrayed_coords, surrogate.arrayed_lip
    if coords.size:
        x_hat[coords] = prox_coordinates(problem, coords, lip, x[coords] - grad[coords] / lip)
    for k in surrogate.solo_blocks:
        sl = problem.layout.slices[k]
        x_hat[sl] = surrogate.argmin(k, x, grad_k=grad[sl])
    return VirtualUpdate(
        x_hat=x_hat, step_norms=block_norms(problem, x_hat - x),
        objectives=lambda: candidate_objectives(problem, x, x_hat, grad, f),
    )


def candidate_objectives(problem: Problem, x: Array, x_hat: Array, grad: Array,
                         f: Optional[float] = None) -> Array:
    """f(x_hat_k, x_{-k}) for every block k, given grad = the full gradient at
    x and, when not None, f = f(x).

    With g = phi(Ax - b) declared, all K candidates are scored in one array
    operation as f(x) + [phi(r + A_k d_k) - phi(r)] + [h_k(x_hat_k) - h_k(x_k)],
    d = x_hat - x, r = Ax - b.  When ell'' is the constant c (squares), the
    middle term is grad_k^T d_k + (c/2) d_k^T G_kk d_k, O(n + sum n_k^2)
    from the Gram matrix (Friedman, Hastie & Tibshirani 2010); any other
    loss evaluates it on the m x K residuals.
    """
    lin = problem.smooth.linear
    part = problem.partition
    if lin is None:
        return np.array([
            objective_with_block(problem, x, k, part.block(x_hat, k))
            for k in range(problem.n_blocks)
        ])
    d = x_hat - x
    phi = lin.phi
    offsets = np.asarray(part.offsets)
    if phi.strong_convexity == phi.curvature:
        gd = np.diagonal(lin.gram) * d  # G_kk d_k on every block of size 1
        for k in problem.layout.wide:
            sl = part.block_slice(k)
            gd[sl] = lin.gram[sl, sl] @ d[sl]
        d_phi = np.add.reduceat(d * (grad + 0.5 * phi.curvature * gd), offsets)
    else:
        r = lin.A @ x - lin.b
        moved = lin.A * d  # column j scaled by its coordinate's step
        if problem.layout.wide:
            moved = np.add.reduceat(moved, offsets, axis=1)
        moved += r[:, None]  # column k: the residual after block k's step
        d_phi = np.sum(phi.pointwise(moved) - phi.pointwise(r)[:, None], axis=0)
    d_h = block_values(problem, x_hat) - block_values(problem, x)
    return (eval_objective(problem, x) if f is None else f) + d_phi + d_h


@dataclass(eq=False)
class Schedule:
    rule: str
    n_blocks: int
    period: int = 1
    period_map: Optional[tuple[tuple[int, ...], ...]] = None
    q: float = 1.0
    rng: Optional[np.random.Generator] = None

    def needs_virtual(self) -> bool:
        return self.rule in ("gauss-southwell", "mbi")

    def select(self, r: int, virtual: Optional[VirtualUpdate] = None) -> tuple[int, ...]:
        """Ordered index set for iteration r+1 (r counts completed iterations)."""
        if self.rule == "gauss-seidel":
            return tuple(range(self.n_blocks))
        if self.rule == "essentially-cyclic":
            return self.period_map[r % self.period]
        if self.rule == "random-permutation":
            return tuple(int(i) for i in self.rng.permutation(self.n_blocks))
        if virtual is None:
            raise MissingVirtualUpdate(f"rule {self.rule!r} needs the virtual update")
        if self.rule == "gauss-southwell":
            mx = float(np.max(virtual.step_norms))
            qualifying = virtual.step_norms >= self.q * mx
            return (int(np.argmax(qualifying)),)  # smallest qualifying index
        if self.rule == "mbi":
            return (int(np.argmin(virtual.objectives)),)  # largest improvement
        raise ValueError(f"unknown rule {self.rule!r}")


def period_map_slots(period_map) -> tuple[tuple[int, ...], ...]:
    """The period map's slots as sorted index tuples; ValueError unless it is
    a list of lists of integers."""
    sequence = (list, tuple, np.ndarray)
    if not isinstance(period_map, sequence) or not all(
            isinstance(slot, sequence) and all(map(is_integer, slot)) for slot in period_map):
        raise ValueError(f"period_map must be a list of lists of integers, not {period_map!r}")
    return tuple(tuple(sorted(int(i) for i in slot)) for slot in period_map)


def _validate_period_map(period_map, n_blocks: int) -> tuple[tuple[int, ...], ...]:
    cleaned = period_map_slots(period_map)
    for i in (i for slot in cleaned for i in slot):
        if not 0 <= i < n_blocks:
            raise ValueError(f"period map contains out-of-range block index {i}")
    covered = set().union(*[set(s) for s in cleaned]) if cleaned else set()
    missing = sorted(set(range(n_blocks)) - covered)
    if missing:
        raise ValueError(
            f"period map does not cover block indices {missing}; every index "
            f"must appear at least once per period"
        )
    return cleaned


def make_schedule(
    rule: str,
    n_blocks: int,
    period_map=None,
    q: float = 1.0,
    seed: Optional[int] = None,
) -> Schedule:
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if rule == "gauss-southwell" and not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0,1]")
    if rule != "gauss-southwell" and q != 1.0:
        raise ValueError(f"q is a gauss-southwell parameter; rule {rule!r} takes none")
    if rule != "essentially-cyclic" and period_map is not None:
        raise ValueError(f"a period map is an essentially-cyclic parameter; "
                         f"rule {rule!r} takes none")
    if rule == "essentially-cyclic":
        if period_map is None:
            raise ValueError("essentially-cyclic rule needs an explicit period map")
        period_map = _validate_period_map(period_map, n_blocks)
        return Schedule(
            rule=rule, n_blocks=n_blocks, period=len(period_map), period_map=period_map
        )
    rng = None
    if rule == "random-permutation":
        # own stream, independent of any instance-generation seed
        rng = np.random.default_rng([0x5EED, 0 if seed is None else int(seed)])
    return Schedule(rule=rule, n_blocks=n_blocks, q=float(q), rng=rng)
