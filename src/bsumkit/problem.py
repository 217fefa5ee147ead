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
            return self.weight * math.sqrt(float(v.dot(v)))  # np.linalg.norm's arithmetic
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
    # strong-convexity modulus of g restricted to each block (0 when absent);
    # this is the curvature an exact per-block solve gets to exploit
    block_curvature: Optional[tuple[float, ...]] = None
    linear: Optional["LinearLoss"] = None  # g = phi(Ax - b), when declared

    @property
    def max_block_lipschitz(self) -> float:
        return max(self.block_lipschitz)


@dataclass(frozen=True, eq=False)
class SeparableLoss:
    """phi(r) = sum_i ell(r_i): its value, gradient and per-entry terms ell,
    with strong_convexity <= ell'' <= curvature."""

    name: str  # "squares", "logistic" or "squared-hinge"
    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    pointwise: Callable[[Array], Array]
    curvature: float  # c: phi' is c-Lipschitz
    strong_convexity: float = 0.0  # mu: phi is mu-strongly convex (0 when not)
    # phi*(v) = sum_i ell*(v_i) for v whose entries lie in conjugate_domain,
    # the closed interval outside which ell* is +inf; None when not declared
    conjugate: Optional[Callable[[Array], float]] = None
    conjugate_domain: tuple[float, float] = (-math.inf, math.inf)


@dataclass(frozen=True, eq=False)
class LinearLoss:
    """g(x) = phi(A x - b) for a separable loss phi, with G = A^T A and the
    eigendecomposition (eigenvalues clipped at 0) of each diagonal block G_kk."""

    phi: SeparableLoss
    A: Array
    b: Array
    gram: Array
    block_eigh: tuple[tuple[Array, Array], ...]


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Blocks grouped by regularizer and constraint kind, for whole-array oracles.

    Coordinates of l1 blocks (grouped by block size) are handled as arrays.
    A block whose array form would not reproduce the per-block arithmetic
    bit for bit keeps its per-block call: group-l2 norms (a BLAS dot per
    block) and unknown kinds.  Every constrained block is projected per block.
    """

    slices: tuple[slice, ...]  # every block's coordinates
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
        slices=tuple(map(partition.block_slice, range(K))),
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
    # exact_solver(k, x, on_cap=None): the exact per-block minimizer of
    # g(., x_{-k}) + h_k over X_k; on_cap, when given, is called once for a
    # solve whose inner loop stopped at its cap (the group solve's Newton
    # iteration).  A model that declares exact_sweep and no solver gets the
    # sweep run on block k alone.
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
        if self.exact_solver is None and self.exact_sweep is not None:
            sweep, slices = self.exact_sweep, self.layout.slices

            def solver(k, x, on_cap=None):
                return sweep((k,), x, False, on_cap)[0][slices[k]]

            self.exact_solver = solver

    @property
    def n_blocks(self) -> int:
        return self.partition.n_blocks

    @property
    def dim(self) -> int:
        return self.partition.dim

    def inner_unique(self, k: int) -> bool:
        """Whether an exact solve of block k has one minimizer, read off the
        declared curvature; without a declaration, True."""
        curv = self.smooth.block_curvature
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
        vals[k] = problem.nonsmooth[k].value(x[lay.slices[k]])
    return vals


def eval_objective(problem: Problem, x) -> float:
    """f(x) = g(x) + sum_k h_k(x_k); +inf outside the domain of f.

    The h_k are added to g left to right over the blocks, as a loop adding
    them one by one would.
    """
    v = as_vector(x, problem.dim)
    total = float(problem.smooth.value(v))
    lay = problem.layout
    if lay.l1_groups:
        return float(np.add.accumulate(np.concatenate(([total], block_values(problem, v))))[-1])
    if len(lay.value_blocks) < problem.n_blocks:
        # a zero block's +0.0 changes only a running total of -0.0, to +0.0,
        # so adding it first gives the bits it gives at its own place
        total += 0.0
    for k in lay.value_blocks:
        total += problem.nonsmooth[k].value(v[lay.slices[k]])
    return float(total)


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
        dk = d[lay.slices[k]]
        norms[k] = math.sqrt(float(dk.dot(dk)))
    return norms


def _penalized(problem: Problem) -> bool:
    """Whether every h_k is a positively weighted l1 or group-l2 norm and no
    block is constrained."""
    return not problem.layout.project_blocks and all(
        h.kind in ("l1", "group-l2") and h.weight > 0.0 for h in problem.nonsmooth)


def linear_dual(problem: Problem) -> Optional[Callable[[Array], float]]:
    """x -> D(v), a lower bound on min f read off x, for f = phi(Ax - b) + h
    whose loss declares its conjugate, no block constrained and either every
    h_k zero or every h_k a positively weighted l1 or group-l2 norm; None for
    any other problem.

    The Fenchel dual is D(v) = -phi*(v) - v^T b - h*(-A^T v), where
    phi*(v) = sum_i ell*(v_i) is +inf outside the conjugate's domain (Fercoq,
    Gramfort & Salmon 2015).  v starts from u = phi'(Ax - b), the dual
    optimum at a minimizer, and is moved into the domain of h*(-A^T .):
    - penalized: u is scaled down until ||A_k^T u||_inf <= w_k on l1 blocks
      and ||A_k^T u||_2 <= w_k on group-l2 blocks;
    - every h_k zero: h* is 0 at 0 and +inf elsewhere, so A^T v = 0.  On the
      support S = {u_i != 0}, v_S = u_S - A_S z is u_S minus its least-squares
      fit z (rank-deficient A_S allowed), and v is 0 off S; an empty support
      gives v = 0.
    There h*(-A^T v) = 0.  A v outside the conjugate's domain gives -inf: the
    point certifies nothing.
    """
    lin = problem.smooth.linear
    if lin is None or lin.phi.conjugate is None or problem.layout.project_blocks:
        return None
    phi, A, b = lin.phi, lin.A, lin.b
    lo, hi = phi.conjugate_domain

    def value(v: Array) -> float:
        if not np.all((lo <= v) & (v <= hi)):
            return -math.inf
        return -phi.conjugate(v) - float(v @ b)

    if all(h.is_zero for h in problem.nonsmooth):
        def dual(x: Array) -> float:
            u = phi.grad(A @ x - b)
            S = np.flatnonzero(u)
            v = np.zeros_like(u)
            if S.size:
                A_S, u_S = A[S], u[S]
                v[S] = u_S - A_S @ np.linalg.lstsq(A_S, u_S, rcond=None)[0]
            return value(v)

        return dual
    if not _penalized(problem):
        return None
    offsets = np.asarray(problem.partition.offsets)
    weights = np.array([h.weight for h in problem.nonsmooth])
    group = np.array([h.kind == "group-l2" for h in problem.nonsmooth])

    def dual(x: Array) -> float:
        u = phi.grad(A @ x - b)
        c = A.T @ u
        norms = np.where(group, np.sqrt(np.add.reduceat(c * c, offsets)),
                         np.maximum.reduceat(np.abs(c), offsets))
        return value(u / max(1.0, float(np.max(norms / weights))))

    return dual


POLISH_STEPS = 3  # Newton steps on one support
POLISH_ROUNDS = 3  # supports tried; each drops the l1 coordinates whose sign flipped
POLISH_SETTLE = 1e-2  # largest last Newton step, relative to the point it gives


def squares_polish(problem: Problem) -> Optional[Callable[[Array], Optional[Array]]]:
    """x -> a point on x's support where f is no larger than at x, or None,
    for f = ||Ax - b||^2 + h with h as _penalized admits, so that linear_dual
    can certify every polished point; None for any other problem.

    The support is x's nonzero l1 coordinates, their signs fixed, and its
    nonzero group-l2 blocks.  There f is ||A_S y - b||^2 + sum w s_i y_i +
    sum w_k ||y_k||, smooth, and up to POLISH_STEPS Newton steps from x_S
    minimize it: the gradient is 2 A_S^T (A_S y - b) plus w s_i on l1
    coordinates and w_k y_k/||y_k|| on groups; the Hessian is 2 G_SS plus
    (w_k/||y_k||)(I - u_k u_k^T), u_k = y_k/||y_k||, on groups.  With l1
    terms alone f is quadratic there, and the later steps refine the first
    solve.  An l1 coordinate whose sign flips leaves the support and the
    steps start again, POLISH_ROUNDS supports in all.  A degenerate support
    is rejected, not forced: an empty support, a singular or non-finite
    solve, steps that do not settle below POLISH_SETTLE (a nearly singular
    system), a group whose norm reaches 0, a sign that still flips in the
    last round and a rise of f give None (support identification: Nutini,
    Schmidt & Hare 2019).
    """
    lin = problem.smooth.linear
    if lin is None or lin.phi.name != "squares" or not _penalized(problem):
        return None
    A, b, gram = lin.A, lin.b, lin.gram
    l1_weight = problem.layout.l1_weight
    l1 = l1_weight > 0.0  # every l1 weight is positive here
    groups = [(problem.partition.block_slice(k), h.weight)
              for k, h in enumerate(problem.nonsmooth) if h.kind == "group-l2"]

    def newton(x: Array, S: Array, groups_at: list) -> Optional[Array]:
        A_S = A[:, S]
        hess = 2.0 * gram[np.ix_(S, S)]
        l1_grad = l1_weight[S] * np.sign(x[S])
        y = x[S]
        for _ in range(POLISH_STEPS):
            grad = 2.0 * (A_S.T @ (A_S @ y - b)) + l1_grad
            h = hess.copy() if groups_at else hess
            for sl, w in groups_at:
                norm = math.sqrt(float(y[sl] @ y[sl]))
                if norm == 0.0:
                    return None
                u = y[sl] / norm
                grad[sl] += w * u
                h[sl, sl] += (w / norm) * (np.eye(len(u)) - np.outer(u, u))
            try:
                step = np.linalg.solve(h, grad)
            except np.linalg.LinAlgError:
                return None
            y = y - step
            if not np.all(np.isfinite(y)):
                return None
        settled = np.linalg.norm(step) <= POLISH_SETTLE * np.linalg.norm(y)
        if not settled or any(not y[sl].any() for sl, _ in groups_at):
            return None
        return y

    def polish(x: Array) -> Optional[Array]:
        x = np.asarray(x, dtype=float)
        sign = np.sign(x)
        keep = l1 & (x != 0.0)
        active = [(sl, w) for sl, w in groups if x[sl].any()]
        for sl, _ in active:
            keep[sl] = True
        # a nearly singular solve can overflow on its way to a non-finite
        # result, which gives None; numpy need not warn about it
        with np.errstate(all="ignore"):
            for _ in range(POLISH_ROUNDS):
                S = np.flatnonzero(keep)
                if S.size == 0:
                    return None
                # an active group's coordinates are contiguous in S
                starts = np.searchsorted(S, [sl.start for sl, _ in active])
                groups_at = [(slice(p, p + sl.stop - sl.start), w)
                             for (sl, w), p in zip(active, starts.tolist())]
                y = newton(x, S, groups_at)
                if y is None:
                    return None
                flipped = l1[S] & (np.sign(y) != sign[S])
                if not flipped.any():
                    break
                keep[S[flipped]] = False
            else:
                return None
            cand = np.zeros_like(x)
            cand[S] = y
            f_cand = eval_objective(problem, cand)
            return cand if f_cand <= eval_objective(problem, x) else None

    return polish


def nonsmooth_lipschitz(problem: Problem) -> float:
    """Lipschitz constant of h(x) = sum_k h_k(x_k) w.r.t. the l2 norm."""
    per_block = [
        h.lipschitz_bound(s) for h, s in zip(problem.nonsmooth, problem.partition.sizes)
    ]
    return float(np.sqrt(np.sum(np.square(per_block))))
