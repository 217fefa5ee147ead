"""Block-partitioned composite convex problems and their oracles.

A problem is  f(x) = g(x) + sum_k h_k(x_k)  subject to x_k in X_k, where g is
smooth convex with declared Lipschitz constants and each h_k is a simple
convex regularizer.  Everything here is an immutable value object; oracles
are pure functions, so instances can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class UnsupportedCombination(ValueError):
    """An operation the model / regularizer / constraint pairing cannot do exactly."""


def is_integer(value) -> bool:
    """A Python or numpy integer; not a bool, float or string, so nothing is cast."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An integer or a finite float; not a bool or string."""
    return is_integer(value) or (isinstance(value, float) and math.isfinite(value))


# ---------------------------------------------------------------------------
# partition


@dataclass(frozen=True)
class BlockPartition:
    """Partition of R^n into K contiguous blocks of the given sizes."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return self.offsets[-1] + self.sizes[-1]

    def block_slice(self, k: int) -> slice:
        if not 0 <= k < len(self.sizes):
            raise IndexError(f"block index {k} out of range for {len(self.sizes)} blocks")
        return slice(self.offsets[k], self.offsets[k] + self.sizes[k])

    def block(self, x: Array, k: int) -> Array:
        return x[self.block_slice(k)]


def make_partition(sizes) -> BlockPartition:
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ValueError("partition needs at least one block")
    if any(s < 1 for s in sizes):
        raise ValueError(f"all block sizes must be >= 1, got {sizes}")
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(sizes)[:-1])))
    return BlockPartition(sizes=sizes, offsets=offsets)


def as_vector(x, dim: int) -> Array:
    """Accept an array-like and return a float vector of length dim."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"expected vector of length {dim}, got shape {v.shape}")
    return v


# ---------------------------------------------------------------------------
# constraint sets


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """A simple closed convex set with a closed-form projection."""

    kind: str  # "all-space" | "box" | "ball" | "nonneg"
    dim: int
    lo: Optional[Array] = None
    hi: Optional[Array] = None
    center: Optional[Array] = None
    radius: float = 0.0

    def project(self, v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        if self.kind == "all-space":
            return v.copy()
        if self.kind == "box":
            return np.clip(v, self.lo, self.hi)
        if self.kind == "nonneg":
            return np.maximum(v, 0.0)
        if self.kind == "ball":
            d = v - self.center
            nd = float(np.linalg.norm(d))
            if nd <= self.radius:
                return v.copy()
            return self.center + d * (self.radius / nd)
        raise ValueError(f"unknown constraint kind {self.kind!r}")

    def is_bounded(self) -> bool:
        if self.kind == "box":
            return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))
        return self.kind == "ball"

    def max_distance_from(self, c: Array) -> float:
        """sup over the set of the distance to c; inf when unbounded."""
        if self.kind == "box" and self.is_bounded():
            far = np.maximum(np.abs(self.lo - c), np.abs(self.hi - c))
            return float(np.linalg.norm(far))
        if self.kind == "ball":
            return self.radius + float(np.linalg.norm(self.center - c))
        return float("inf")


def all_space(dim: int) -> ConstraintSet:
    return ConstraintSet(kind="all-space", dim=dim)


def box(lo, hi) -> ConstraintSet:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("box needs lo <= hi of matching shapes")
    return ConstraintSet(kind="box", dim=lo.shape[0], lo=lo, hi=hi)


def ball(center, radius: float) -> ConstraintSet:
    center = np.asarray(center, dtype=float)
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    return ConstraintSet(kind="ball", dim=center.shape[0], center=center, radius=float(radius))


def nonneg(dim: int) -> ConstraintSet:
    return ConstraintSet(kind="nonneg", dim=dim)


# ---------------------------------------------------------------------------
# objective pieces


@dataclass(frozen=True, eq=False)
class NonsmoothBlock:
    """One block's regularizer: zero, weighted l1, or a weighted l2 norm."""

    kind: str = "zero"  # "zero" | "l1" | "group-l2"
    weight: float = 0.0

    @property
    def is_zero(self) -> bool:
        """Whether the term is identically zero: the zero kind, or weight 0."""
        return self.kind == "zero" or self.weight == 0.0

    def value(self, v: Array) -> float:
        if self.is_zero:
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sum(np.abs(v)))
        if self.kind == "group-l2":
            return self.weight * float(np.linalg.norm(v))
        raise ValueError(f"unknown nonsmooth kind {self.kind!r}")

    def lipschitz_bound(self, dim: int) -> float:
        """A valid Lipschitz constant of this block's term w.r.t. the l2 norm."""
        if self.is_zero:
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.sqrt(dim))
        if self.kind == "group-l2":
            return self.weight
        raise ValueError(f"unknown nonsmooth kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class SmoothPart:
    """Smooth convex part g with value/gradient oracles and declared constants."""

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    lipschitz: float  # full-gradient Lipschitz constant
    block_lipschitz: tuple[float, ...]  # per-block gradient Lipschitz constants
    block_grad_fn: Optional[Callable[[int, Array], Array]] = None
    linear: Optional["LinearLoss"] = None  # g = phi(Ax - b), when declared

    @property
    def max_block_lipschitz(self) -> float:
        return max(self.block_lipschitz)


@dataclass(frozen=True, eq=False)
class SeparableLoss:
    """phi(r) = sum_i ell(r_i): its value, gradient and per-entry terms ell."""

    name: str  # "squares", "logistic" or "squared-hinge"
    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    pointwise: Callable[[Array], Array]


@dataclass(frozen=True, eq=False)
class LinearLoss:
    """g(x) = phi(A x - b) for a separable loss phi."""

    phi: SeparableLoss
    A: Array
    b: Array


def linear_smooth(phi: SeparableLoss, A: Array, b: Array, partition: BlockPartition,
                  lipschitz: float, block_lipschitz) -> SmoothPart:
    """The smooth part g(x) = phi(A x - b), its oracles derived from the declaration."""

    def value(x):
        return phi.value(A @ x - b)

    def grad(x):
        return A.T @ phi.grad(A @ x - b)

    def block_grad(k, x):
        return A[:, partition.block_slice(k)].T @ phi.grad(A @ x - b)

    return SmoothPart(value=value, grad=grad, lipschitz=lipschitz,
                      block_lipschitz=tuple(block_lipschitz), block_grad_fn=block_grad,
                      linear=LinearLoss(phi=phi, A=A, b=b))


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Blocks grouped by regularizer and constraint kind, for whole-array oracles.

    Coordinates of l1 blocks (grouped by block size) are handled as arrays.
    A block whose array form would not reproduce the per-block arithmetic
    bit for bit keeps its per-block call: group-l2 norms (a BLAS dot per
    block) and unknown kinds.  Every constrained block is projected per block.
    """

    block_of: Array  # block index of every coordinate
    l1_weight: Array  # l1 weight of every coordinate, 0 outside weighted l1 blocks
    l1_groups: tuple[tuple[Array, Array, Array], ...]  # (blocks, weights, coords) per size
    value_blocks: tuple[int, ...]  # blocks whose h_k is evaluated per block
    project_blocks: tuple[int, ...]  # blocks projected per block: the constrained ones
    coordwise: Array  # (K,) bool: unconstrained, and the prox acts coordinate by coordinate
    scalar: Array  # blocks of size 1
    scalar_coords: Array  # their coordinates
    wide: tuple[int, ...]  # blocks of size > 1


def make_layout(partition: BlockPartition, nonsmooth, constraints) -> BlockLayout:
    n, K = partition.dim, partition.n_blocks
    l1_weight = np.zeros(n)
    coordwise = np.zeros(K, dtype=bool)
    l1_by_size: dict[int, list[int]] = {}
    value_blocks, project_blocks = [], []
    for k, (h, c) in enumerate(zip(nonsmooth, constraints)):
        sl = partition.block_slice(k)
        if h.kind == "l1" and not h.is_zero:
            l1_weight[sl] = h.weight
            l1_by_size.setdefault(partition.sizes[k], []).append(k)
        elif not h.is_zero:
            value_blocks.append(k)
        if c.kind != "all-space":
            project_blocks.append(k)
        coordwise[k] = (h.is_zero or h.kind == "l1") and c.kind == "all-space"
    offsets = np.asarray(partition.offsets)
    l1_groups = tuple(
        (np.array(ks), np.array([nonsmooth[k].weight for k in ks]),
         offsets[ks][:, None] + np.arange(size))
        for size, ks in sorted(l1_by_size.items())
    )
    sizes = np.asarray(partition.sizes)
    return BlockLayout(
        block_of=np.repeat(np.arange(K), sizes), l1_weight=l1_weight, l1_groups=l1_groups,
        value_blocks=tuple(value_blocks),
        project_blocks=tuple(project_blocks), coordwise=coordwise,
        scalar=np.flatnonzero(sizes == 1), scalar_coords=offsets[sizes == 1],
        wide=tuple(int(k) for k in np.flatnonzero(sizes > 1)),
    )


@dataclass(eq=False)
class Problem:
    """Composite problem with per-block regularizers and constraint sets."""

    partition: BlockPartition
    smooth: SmoothPart
    nonsmooth: tuple[NonsmoothBlock, ...]
    constraints: tuple[ConstraintSet, ...]
    name: str = "problem"
    # strong-convexity modulus of g restricted to each block (0 when absent);
    # this is the curvature an exact per-block solve gets to exploit
    block_curvature: Optional[tuple[float, ...]] = None
    # exact_solver(k, x, on_cap=None): the exact per-block minimizer of
    # g(., x_{-k}) + h_k over X_k; on_cap, when given, is called once for a
    # solve whose inner loop stopped at its cap (the group solve's Newton iteration)
    exact_solver: Optional[Callable[..., Array]] = None
    # exact_sweep(blocks, x, record_grads, on_cap=None) -> (w, grad_stat): the
    # exact solves of the listed blocks in order from x, as a loop that the
    # model owns; grad_stat is bsum_sweep's summed squared gradient change
    # (None without record_grads)
    exact_sweep: Optional[Callable[..., tuple[Array, Optional[float]]]] = None
    custom_surrogate_factory: Optional[Callable[["Problem"], object]] = None
    reference_solver: Optional[Callable[[], tuple[Array, float]]] = None
    layout: BlockLayout = field(init=False, repr=False)

    def __post_init__(self):
        k = self.partition.n_blocks
        if len(self.nonsmooth) != k or len(self.constraints) != k:
            raise ValueError("nonsmooth terms and constraint sets must match the block count")
        for j, (c, s) in enumerate(zip(self.constraints, self.partition.sizes)):
            if c.dim != s:
                raise ValueError(f"constraint set of block {j} has dim {c.dim}, block size {s}")
        self.layout = make_layout(self.partition, self.nonsmooth, self.constraints)

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    @property
    def dim(self) -> int:
        return self.partition.dim

    def inner_unique(self, k: int) -> bool:
        """Whether an exact solve of block k has one minimizer, read off the
        declared curvature; without a declaration, True."""
        curv = self.block_curvature
        return curv is None or bool(curv[k] > 1e-10 * max(2.0, self.smooth.block_lipschitz[k]))


# ---------------------------------------------------------------------------
# oracles


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


def block_gradient(problem: Problem, k: int, x) -> Array:
    """Partial gradient of g with respect to block k."""
    v = as_vector(x, problem.dim)
    sl = problem.partition.block_slice(k)  # validates k
    if problem.smooth.block_grad_fn is not None:
        return problem.smooth.block_grad_fn(k, v)
    return problem.smooth.grad(v)[sl]


def full_gradient(problem: Problem, x) -> Array:
    return problem.smooth.grad(as_vector(x, problem.dim))


def objective_with_block(problem: Problem, x: Array, k: int, v_k: Array) -> float:
    """f at x with block k replaced by v_k."""
    y = np.array(x, dtype=float)
    y[problem.partition.block_slice(k)] = v_k
    return eval_objective(problem, y)


def feasible_start(problem: Problem) -> Array:
    """Deterministic feasible initial point: the projection of the origin."""
    return project_feasible(problem, np.zeros(problem.dim))


def project_feasible(problem: Problem, v: Array) -> Array:
    x = np.array(v, dtype=float)
    for k in problem.layout.project_blocks:
        sl = problem.partition.block_slice(k)
        x[sl] = problem.constraints[k].project(x[sl])
    return x


def block_norms(problem: Problem, d: Array) -> Array:
    """||d_k|| for every block k, as np.linalg.norm gives it block by block."""
    lay = problem.layout
    norms = np.empty(problem.n_blocks)
    single = d[lay.scalar_coords]
    norms[lay.scalar] = np.sqrt(single * single)
    for k in lay.wide:
        norms[k] = np.linalg.norm(problem.partition.block(d, k))
    return norms


def nonsmooth_value(problem: Problem, x: Array) -> float:
    return float(np.add.accumulate(block_values(problem, x))[-1])


def squares_dual(problem: Problem) -> Optional[Callable[[Array], float]]:
    """x -> D(u), a lower bound on min f read off x, when f = ||Ax - b||^2 + h
    with every h_k a positively weighted l1 or group-l2 norm and no block
    constrained; None for any other problem.

    u = 2(Ax - b), which is the dual optimum at a minimizer, is scaled down
    until ||A_k^T u||_inf <= w_k on l1 blocks and ||A_k^T u||_2 <= w_k on
    group-l2 blocks, the domain of h*(-A^T u); there the Fenchel dual is
    D(u) = -||u||^2/4 - u^T b (Fercoq, Gramfort & Salmon 2015).  A zero
    weight would shrink its block's dual set to A_k^T u = 0, so it gets None.
    """
    lin = problem.smooth.linear
    if (lin is None or lin.phi.name != "squares" or problem.layout.project_blocks
            or not all(h.kind in ("l1", "group-l2") and h.weight > 0.0
                       for h in problem.nonsmooth)):
        return None
    A, b = lin.A, lin.b
    offsets = np.asarray(problem.partition.offsets)
    weights = np.array([h.weight for h in problem.nonsmooth])
    group = np.array([h.kind == "group-l2" for h in problem.nonsmooth])

    def dual(x: Array) -> float:
        u = 2.0 * (A @ x - b)
        c = A.T @ u
        norms = np.where(group, np.sqrt(np.add.reduceat(c * c, offsets)),
                         np.maximum.reduceat(np.abs(c), offsets))
        u = u / max(1.0, float(np.max(norms / weights)))
        return -0.25 * float(u @ u) - float(u @ b)

    return dual


def nonsmooth_lipschitz(problem: Problem) -> float:
    """Lipschitz constant of h(x) = sum_k h_k(x_k) w.r.t. the l2 norm."""
    per_block = [
        h.lipschitz_bound(s) for h, s in zip(problem.nonsmooth, problem.partition.sizes)
    ]
    return float(np.sqrt(np.sum(np.square(per_block))))
