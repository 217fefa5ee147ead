"""Concrete problem instances with exact block solvers and declared constants.

Families: least squares with l1 penalty (scalar blocks), grouped least
squares with l2-norm penalties (rank-deficient blocks allowed), sparse
logistic regression, squared-hinge SVM loss, smoothed sums of norms solved
by iterative reweighting, and synthetic PSD quadratics.  Dense storage
throughout; instances are desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .problem import (
    Array,
    BlockPartition,
    ConstraintSet,
    LinearLoss,
    NonsmoothBlock,
    Problem,
    SeparableLoss,
    SmoothPart,
    UnsupportedCombination,
    all_space,
    is_integer,
    is_number,
    make_partition,
)
from .surrogate import Surrogate, prox_block


# ---------------------------------------------------------------------------
# spectral helpers and separable losses


def spectral_norm_psd(S: Array) -> float:
    """Largest eigenvalue of a symmetric PSD matrix (its spectral norm)."""
    return float(np.linalg.eigvalsh(np.asarray(S, dtype=float))[-1])


def _block_eighs(blocks) -> list[tuple[Array, Array]]:
    """Eigendecomposition of each symmetric PSD block, eigenvalues clipped at 0."""
    return [(np.maximum(evals, 0.0), vecs) for evals, vecs in map(np.linalg.eigh, blocks)]


def _hinge(r: Array) -> Array:
    return np.maximum(0.0, -r)


def _squared_hinge_value(r: Array) -> float:
    q = _hinge(r)
    return float(q @ q)


def sigmoid(t: Array) -> Array:
    """1 / (1 + exp(-t)), as 1/(1+e) or e/(1+e) with e = exp(-|t|), which cannot overflow."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0, e) / (1.0 + e)


def _quarter_square_sum(v: Array) -> float:
    return 0.25 * float(v @ v)


# phi(r) = ||r||^2; ell*(v) = v^2/4 on all of R
SQUARES = SeparableLoss(name="squares", value=lambda r: float(r @ r),
                        grad=lambda r: 2.0 * r, pointwise=np.square,
                        curvature=2.0, strong_convexity=2.0,
                        conjugate=_quarter_square_sum)
# phi(z) = sum_i log(1 + exp(-z_i)), z_i the signed margins; its ell'' is
# sigma(z)(1 - sigma(z)) <= 1/4 (Bohning & Lindsay 1988); its conjugate, an
# entropy on [-1, 0], is not declared
LOGISTIC = SeparableLoss(name="logistic",
                         value=lambda z: float(np.sum(np.logaddexp(0.0, -z))),
                         grad=lambda z: -sigmoid(-z),
                         pointwise=lambda z: np.logaddexp(0.0, -z), curvature=0.25)
# phi(r) = sum_i max(0, -r_i)^2, r_i = <a_i, x> - 1; ell*(v) = v^2/4 for
# v <= 0 and +inf for v > 0
SQUARED_HINGE = SeparableLoss(name="squared-hinge", value=_squared_hinge_value,
                              grad=lambda r: -2.0 * _hinge(r),
                              pointwise=lambda r: np.square(_hinge(r)), curvature=2.0,
                              conjugate=_quarter_square_sum,
                              conjugate_domain=(-math.inf, 0.0))


def linear_smooth(phi: SeparableLoss, A: Array, b: Array,
                  partition: BlockPartition) -> SmoothPart:
    """The smooth part g(x) = phi(A x - b), with its oracles and constants.

    The Hessian A^T diag(phi'') A lies between mu G and c G, G = A^T A, for
    phi's strong_convexity mu and curvature c.  So M = c lambda_max(G),
    M_k = c lambda_max(G_kk) and, when mu > 0, the block curvature is
    mu lambda_min(G_kk), or 0 when that is at rounding level (as
    block_hessian drops such directions).  G and the eigendecompositions of
    its diagonal blocks stay on the declaration for the exact solves.
    """
    gram = A.T @ A
    one = np.ones((1, 1))
    # a 1x1 block, a sum of squares, is its own eigendecomposition
    eighs = tuple(
        (gram[o:o + 1, o], one) if s == 1 else _block_eighs([gram[o:o + s, o:o + s]])[0]
        for o, s in zip(partition.offsets, partition.sizes))
    c, mu = phi.curvature, phi.strong_convexity
    curv = None
    if mu > 0.0:
        curv = tuple(mu * float(ev[0]) if mu * ev[0] > 1e-12 * max(mu * ev[-1], 1.0) else 0.0
                     for ev, _ in eighs)

    def value(x):
        return phi.value(A @ x - b)

    def grad(x):
        return A.T @ phi.grad(A @ x - b)

    def block_grad(k, x):
        return A[:, partition.block_slice(k)].T @ phi.grad(A @ x - b)

    return SmoothPart(value=value, grad=grad, lipschitz=c * spectral_norm_psd(gram),
                      block_lipschitz=tuple(c * float(ev[-1]) for ev, _ in eighs),
                      block_grad_fn=block_grad, block_curvature=curv,
                      linear=LinearLoss(phi=phi, A=A, b=b, gram=gram, block_eigh=eighs))


def _constraint_interval(cs: ConstraintSet) -> tuple[float, float]:
    """Scalar constraint sets as an interval."""
    if cs.kind == "all-space":
        return (-np.inf, np.inf)
    if cs.kind == "box":
        return (float(cs.lo[0]), float(cs.hi[0]))
    if cs.kind == "nonneg":
        return (0.0, np.inf)
    if cs.kind == "ball":
        c = float(cs.center[0])
        return (c - cs.radius, c + cs.radius)
    raise ValueError(f"unknown constraint kind {cs.kind!r}")


def _default_constraints(partition: BlockPartition, constraints) -> tuple[ConstraintSet, ...]:
    if constraints is None:
        return tuple(all_space(s) for s in partition.sizes)
    return tuple(constraints)  # Problem checks that there is one per block


# ---------------------------------------------------------------------------
# one-dimensional piecewise-quadratic minimization (exact, by a search across pieces)


def _interval_quadratic_min(quad: float, cross: float, a: float, b: float) -> float:
    """argmin over [a, b] of (quad/2) t^2 - cross t, for quad >= 0.

    With quad = 0 the slope -cross picks an end, or the point nearest 0 when
    it is zero; an infinite end is returned as is: the problem is unbounded.
    """
    if quad > 0.0:
        return min(max(cross / quad, a), b)
    if cross < 0.0:
        return a
    if cross > 0.0:
        return b
    return min(max(0.0, a), b)


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
    quad = 2.0 * float(np.add.reduce(da * da))
    cross = 2.0 * float(np.add.reduce(c[act] * da))
    return quad, cross - lam * sgn


def piecewise_quadratic_min(
    c: Array,
    d: Array,
    lam: float = 0.0,
    lo: float = -np.inf,
    hi: float = np.inf,
    start: float = 0.0,
) -> float:
    """Minimize sum_i max(0, c_i - d_i t)^2 + lam|t| over [lo, hi].

    The objective is convex piecewise quadratic between the breakpoints c_i/d_i
    (and 0 when lam > 0).  The search starts on the piece holding start,
    clamped into [lo, hi]: a warm start is the block's current value.  Each
    step minimizes the piece's quadratic in closed form and stops when that
    point stays in the piece; otherwise the slope's sign moves one end of a
    bracket [a, b] that holds a minimizer to the piece's edge, and the next
    piece is the one holding the quadratic's minimizer.  A minimizer outside
    the bracket, or a bracket whose breakpoints did not halve in two steps,
    gives way to the median breakpoint inside it, so a search takes
    O(log m) steps of O(m) and a warm one usually one step.  The piece's
    closed form is returned, exact up to first-order rounding.  On a flat set
    of minimizers (lam = 0) the search stops at the first
    of its points it reaches: an edge, or the point nearest 0 inside a piece.
    """
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
        # knots lies inside (a, b) once an end is finite, so the ends matter
        # only when no knot is on their side
        left, right = knots[below], knots[~below]
        left = float(left.max()) if left.size else a
        right = float(right.min()) if right.size else b
        quad, cross = _piece_quadratic(c, d, lam, left, right)
        x = _interval_quadratic_min(quad, cross, left, right)
        if x == right != b:  # the slope at right is negative (or the piece flat)
            a, knots = right, knots[knots > right]
        elif x == left != a:
            b, knots = left, knots[knots < left]
        else:
            return float(x)
        t = cross / quad if quad > 0.0 else math.nan


# ---------------------------------------------------------------------------
# l2-norm block subproblem (exact, by a one-dimensional secular equation)

# On the exact-tall group lasso (seeds 1 and 2) a solve evaluates q 1.71 and
# 1.87 times on average from a warm start (1 to 3 times) and 4 times from 0;
# each bisection halves the bracket
SECULAR_MAX_ITER = 200


def _secular_root(a: Array, c: Array, hi: float, start: float = 0.0,
                  on_cap: Optional[Callable[[], None]] = None) -> tuple[float, Optional[Array]]:
    """Root s in [0, hi] of psi(s) = 1/||q(s)|| - 1, where q_i = a_i / (s + c_i)
    with every shift c_i > 0, and q(s) when it was evaluated there (else None).

    psi is concave and increasing with psi(0) < 0 <= psi(hi).  The iteration
    starts at min(start, hi).  A Newton step below 1e-15 (1 + s) stops it at
    the Newton point, from either side of the root.  From a start right of
    the root one Newton step, clamped at 0, lands at or left of it: the
    tangent of a concave function lies above it.  From the left Newton steps
    climb to the root (More & Sorensen 1983).  They pass the root, or hi,
    only by rounding: a step past hi stops at hi, and a Newton point right
    of the root is returned.  A step that is not finite bisects [lo, hi]
    instead, and a bisection point right of the root is the new hi.  After
    SECULAR_MAX_ITER steps it calls on_cap, when given, and returns the last
    point left of the root.
    """
    lo, s = 0.0, min(start, hi)
    newton = True
    for i in range(SECULAR_MAX_ITER):
        den = s + c
        q = a / den
        qq = float(q.dot(q))
        if qq <= 1.0 and i > 0:  # at or right of the root
            if newton:
                return s, q
            hi, s = s, 0.5 * (lo + s)
            continue
        # -psi(s) / psi'(s), with psi'(s) = sum_i q_i^2 / (s + c_i) / ||q||^3
        slope = float((q / den).dot(q))
        step = (math.sqrt(qq) - 1.0) * qq / slope if slope > 0.0 else math.inf
        if abs(step) <= 1e-15 * (1.0 + s):
            return s + step, None
        if qq <= 1.0:  # a start right of the root (psi(0) < 0 puts 0 left of it)
            hi, s = s, (max(s + step, 0.0) if step < math.inf else 0.0)
            continue
        lo = s
        newton = step < math.inf
        s = min(s + step, hi) if newton else 0.5 * (lo + hi)
    if on_cap is not None:
        on_cap()
    return lo, None


class BlockHessian(NamedTuple):
    """The Hessian V diag(d) V^T of a block subproblem's quadratic part, the
    directions whose d rises above rounding, d with the other directions set
    to 1 (a divisor), the smallest kept d, and whether every direction is kept."""

    vecs: Array
    d: Array
    kept: Array
    d_div: Array
    d_min: float
    all_kept: bool


def block_hessian(evals: Array, vecs: Array) -> BlockHessian:
    """2 A^T A, given A^T A = vecs diag(evals) vecs^T.  A direction is kept
    when its d exceeds 1e-12 max d: the floor scales with A."""
    d = 2.0 * evals
    kept = d > 1e-12 * float(np.max(d))
    return BlockHessian(vecs, d, kept, np.where(kept, d, 1.0),
                        float(np.min(d, initial=np.inf, where=kept)), bool(kept.all()))


def group_l2_block_min(h: BlockHessian, z: Array, weight: float, start: float = 0.0,
                       on_cap: Optional[Callable[[], None]] = None) -> Array:
    """V^T u for u = argmin_u (1/2) u^T H u - rhs^T u + weight ||u||, given
    z = V^T rhs, with H = V diag(d) V^T given by h.

    ||A u - rho||^2 + weight ||u|| is this problem with h =
    block_hessian(evals, vecs), for the eigendecomposition of A^T A, and
    rhs = 2 A^T rho.  Rank-deficient A is allowed; the weight == 0 branch
    returns the minimum-norm least-squares solution.  With weight > 0 the
    minimizer is V^T u = q(s) s, q_i(s) = a_i / (s + c_i), with a = z / d and
    c = weight / d on the kept directions and a = 0 on the others, and
    s = ||u|| the root of ||q(s)|| = 1, found by a safeguarded Newton iteration
    from start (the block's current norm is a warm start) that never fails;
    one that reaches SECULAR_MAX_ITER calls on_cap, when given.
    """
    if weight == 0.0:
        return z / h.d_div if h.all_kept else np.where(h.kept, z / h.d_div, 0.0)
    # rhs lies in the range of H: z outside the kept directions is
    # rounding, and without it ||q(s)|| <= ||z|| / (d_min s + weight) bounds the root
    if not h.all_kept:
        z = np.where(h.kept, z, 0.0)
    zz = float(z.dot(z))
    if zz <= weight * weight:
        return np.zeros_like(z)
    # a dropped direction divides by 1: its a is 0 and its shift the weight
    a, c = z / h.d_div, weight / h.d_div
    s, q = _secular_root(a, c, (math.sqrt(zz) - weight) / h.d_min, start, on_cap)
    return (a / (s + c) if q is None else q) * s


# ---------------------------------------------------------------------------
# least squares + l1 (scalar blocks carry an exact soft-threshold solve)


def build_lasso(A, b, lam: float, block_sizes=None, constraints=None) -> Problem:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("need A of shape (m, n) and b of length m")
    if lam < 0:
        raise ValueError("l1 weight must be nonnegative")
    n = A.shape[1]
    part = make_partition(block_sizes if block_sizes is not None else [1] * n)
    if part.dim != n:
        raise ValueError("block sizes must partition the columns of A")
    cons = _default_constraints(part, constraints)
    nonsmooth = tuple(NonsmoothBlock(kind="l1", weight=lam) for _ in range(part.n_blocks))
    smooth = linear_smooth(SQUARES, A, b, part)
    gram = smooth.linear.gram

    sweep = None
    diag = np.diagonal(gram)  # G_jj = ||a_j||^2
    if all(s == 1 for s in part.sizes) and np.all(diag > 0.0):
        diag_f = diag.tolist()
        with np.errstate(all="ignore"):  # a non-finite b makes a non-finite run, not a warning
            atb = (A.T @ b).tolist()
        # prox_block's soft-threshold sign(v) * max(|v| - lam/beta, 0) at
        # beta = 2 G_jj, in Python floats
        thresh = [lam / (2.0 * q) for q in diag_f]
        # a move d of block j moves grad g = 2 (G w - A^T b) by 2 d G[:, j]
        grad_sq = (4.0 * np.sum(gram * gram, axis=0)).tolist()
        constrained = {k for k, cs in enumerate(cons) if cs.kind != "all-space"}

        def sweep(blocks, x, record_grads, on_cap=None):
            # block j reads c_j = (A^T (A w - b))_j = G[j] w - (A^T b)_j off its
            # Gram row; its minimizer before the prox is w_j - c_j / G_jj
            w = np.array(x, dtype=float)
            grad_stat = 0.0 if record_grads else None
            for j in blocks:
                old = w.item(j)
                v = old - (float(gram[j].dot(w)) - atb[j]) / diag_f[j]
                if j in constrained:
                    v = prox_block(nonsmooth[j], cons[j], 2.0 * diag_f[j], [v]).item()
                elif lam != 0.0:
                    s = abs(v) - thresh[j]
                    s = 0.0 if s <= 0.0 else s
                    v = s if v >= 0.0 else -s
                if v != old:
                    w[j] = v
                    if record_grads:
                        grad_stat += grad_sq[j] * (v - old) ** 2
            return w, grad_stat

    return Problem(
        partition=part, smooth=smooth, nonsmooth=nonsmooth, constraints=cons,
        name="lasso", exact_sweep=sweep,
    )


# ---------------------------------------------------------------------------
# grouped least squares + per-block l2-norm penalties


def build_group_lasso(block_mats: Sequence[Array], b, weights, constraints=None) -> Problem:
    mats = [np.asarray(Ak, dtype=float) for Ak in block_mats]
    b = np.asarray(b, dtype=float)
    m = b.shape[0]
    if any(Ak.ndim != 2 or Ak.shape[0] != m for Ak in mats):
        raise ValueError("every block matrix needs m rows matching b")
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (len(mats),))
    if np.any(weights < 0):
        raise ValueError("penalty weights must be nonnegative")
    part = make_partition([Ak.shape[1] for Ak in mats])
    cons = _default_constraints(part, constraints)
    A = np.hstack(mats)
    nonsmooth = tuple(NonsmoothBlock(kind="group-l2", weight=float(w)) for w in weights)
    smooth = linear_smooth(SQUARES, A, b, part)
    gram = smooth.linear.gram

    # V is block diagonal with the blocks' eigenvectors V_k, and H = V^T G V
    # is the Gram matrix in their eigen-coordinates, built block by block.
    # In y = V^T w, block k's target V_k^T rhs is d y_k + 2 V_k^T A_k^T (b - A w)
    # = C_k y + c_k: C_k is block k's rows of -2 H with its own diagonal block
    # (-2 diag(evals) = -d) cut out, and c_k = 2 V_k^T A_k^T b.  A move e of
    # block k moves grad g by 2 V H[:, k] e, of squared norm e^T P_k e with
    # P_k = 4 H[k, :] H[:, k].
    slices = [part.block_slice(k) for k in range(part.n_blocks)]
    hess = [block_hessian(*eig) for eig in smooth.linear.block_eigh]
    vbd, gv = np.zeros_like(gram), np.empty_like(gram)
    for sl, h in zip(slices, hess):
        vbd[sl, sl] = h.vecs
        gv[:, sl] = gram[:, sl] @ h.vecs  # G V
    targets = 2.0 * vbd.T.dot(A.T.dot(b))
    per_block = []
    for sl, h, wk in zip(slices, hess, weights):
        cross = -2.0 * (h.vecs.T @ gv[sl])  # block k's rows of -2 H
        pk = cross @ cross.T
        cross[:, sl] = 0.0
        per_block.append((sl, h, cross, targets[sl], pk, float(wk)))

    constrained = {k for k, cs in enumerate(cons) if cs.kind != "all-space"}

    def sweep(blocks, x, record_grads, on_cap=None):
        # no quantity is carried from block to block.  y is rotated back once;
        # the blocks the sweep did not visit keep their values.
        if constrained and not constrained.isdisjoint(blocks):
            raise UnsupportedCombination("exact group solve needs an unconstrained block")
        x = np.asarray(x, dtype=float)
        y = vbd.T.dot(x)
        grad_stat = 0.0 if record_grads else None
        unvisited = [True] * part.n_blocks
        for k in blocks:
            sl, h, cross, ck, pk, wk = per_block[k]
            yk = y[sl]  # a view: read before y[sl] is written
            new = group_l2_block_min(h, cross.dot(y) + ck, wk, math.sqrt(yk.dot(yk)), on_cap)
            if record_grads:
                e = new - yk
                grad_stat += float(pk.dot(e).dot(e))
            y[sl] = new
            unvisited[k] = False
        w = vbd.dot(y)
        for sl in compress(slices, unvisited):
            w[sl] = x[sl]
        return w, grad_stat

    return Problem(
        partition=part, smooth=smooth, nonsmooth=nonsmooth, constraints=cons,
        name="group-lasso", exact_sweep=sweep,
    )


# ---------------------------------------------------------------------------
# sparse logistic regression (prox-linear only)


def build_logistic(A, y, weight: float, block_sizes=None, constraints=None) -> Problem:
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.shape != (A.shape[0],):
        raise ValueError("need data rows (I, n) and one label per row")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    rows, n = A.shape
    part = make_partition(block_sizes if block_sizes is not None else [1] * n)
    if part.dim != n:
        raise ValueError("block sizes must partition the features")
    cons = _default_constraints(part, constraints)
    nonsmooth = tuple(
        NonsmoothBlock(kind="l1", weight=float(weight)) for _ in range(part.n_blocks)
    )
    smooth = linear_smooth(LOGISTIC, A * y[:, None], np.zeros(rows), part)
    return Problem(
        partition=part, smooth=smooth, nonsmooth=nonsmooth, constraints=cons,
        name="logistic",
    )


# ---------------------------------------------------------------------------
# squared-hinge SVM loss (scalar blocks carry an exact breakpoint-search solve)


def build_l2svm(rows, block_sizes=None, l1_weight: float = 0.0, constraints=None) -> Problem:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("need data rows of shape (I, n)")
    if l1_weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    n_rows, n = rows.shape
    part = make_partition(block_sizes if block_sizes is not None else [1] * n)
    if part.dim != n:
        raise ValueError("block sizes must partition the features")
    cons = _default_constraints(part, constraints)
    kind = "l1" if l1_weight > 0.0 else "zero"
    nonsmooth = tuple(
        NonsmoothBlock(kind=kind, weight=float(l1_weight)) for _ in range(part.n_blocks)
    )
    smooth = linear_smooth(SQUARED_HINGE, rows, np.ones(n_rows), part)

    solver = None
    if all(s == 1 for s in part.sizes):
        cols = np.ascontiguousarray(rows.T)  # row k: block k's column, contiguous
        bounds = [_constraint_interval(cs) for cs in cons]
        lam = float(l1_weight)

        def solver(k, x, on_cap=None):
            dcol = cols[k]
            xk = x[k]
            cvec = (1.0 - rows @ x) + dcol * xk
            lo, hi = bounds[k]
            t = piecewise_quadratic_min(cvec, dcol, lam=lam, lo=lo, hi=hi, start=float(xk))
            return np.array([t])

    return Problem(
        partition=part, smooth=smooth, nonsmooth=nonsmooth, constraints=cons,
        name="l2svm", exact_solver=solver,
    )


# ---------------------------------------------------------------------------
# smoothed sum of norms, solved by reweighted least squares

# prox-gradient steps of the reweighting bound's inner loop (l1 or constrained case)
PROX_LOOP_CAP = 20000


def smoothed_norms(mats: Sequence[Array], offsets: Sequence[Array], eta: float,
                   x: Array) -> Array:
    """sqrt(||A_j x + b_j||^2 + eta^2) for every term j."""
    residuals = (A @ x + b for A, b in zip(mats, offsets))
    return np.array([np.sqrt(r @ r + eta**2) for r in residuals])


class ReweightingBound(Surrogate):
    """Model-specific upper bound for the smoothed sum-of-norms objective.

    Freezing each term's denominator at the anchor gives a convex quadratic
    that dominates the objective (arithmetic-geometric mean inequality) and
    touches it at the anchor; minimizing it is one reweighting step.  It
    declares no curvature and no anchor constant.  With an l1 term or a
    constraint the minimization is an inner prox loop; a solve that reaches
    PROX_LOOP_CAP steps returns its last iterate and counts in capped_solves.
    """

    def __init__(self, problem: Problem, mats: tuple[Array, ...],
                 offsets: tuple[Array, ...], eta: float):
        super().__init__(problem=problem, kinds=("model-custom",),
                         lip=(problem.smooth.lipschitz,))
        self.mats, self.offsets, self.eta = mats, offsets, eta
        self._grams = tuple(A.T @ A for A in mats)
        self._cross = tuple(A.T @ b for A, b in zip(mats, offsets))

    def value(self, k: int, v, anchor) -> float:
        v = np.asarray(v, dtype=float)
        w = smoothed_norms(self.mats, self.offsets, self.eta, np.asarray(anchor, dtype=float))
        total = 0.0
        for j, (A, b) in enumerate(zip(self.mats, self.offsets)):
            r = A @ v + b
            total += 0.5 * ((r @ r + self.eta**2) / w[j] + w[j])
        return float(total)

    def argmin(self, k: int, anchor, grad_k=None) -> Array:
        anchor = np.asarray(anchor, dtype=float)
        p = self.problem
        w = smoothed_norms(self.mats, self.offsets, self.eta, anchor)
        dim = p.dim
        H = np.zeros((dim, dim))
        rhs = np.zeros(dim)
        for j in range(len(self._grams)):
            H += self._grams[j] / w[j]
            rhs -= self._cross[j] / w[j]
        h = p.nonsmooth[0]
        cs = p.constraints[0]
        if h.is_zero and cs.kind == "all-space":
            try:
                return np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(H, rhs, rcond=None)[0]
        # strongly convex quadratic plus a simple regularizer: inner prox loop
        # on the bound itself, whose gradient is H x - rhs
        beta = spectral_norm_psd(H)
        x = cs.project(anchor)
        for _ in range(PROX_LOOP_CAP):
            g = H @ x - rhs
            x_new = prox_block(h, cs, beta, x - g / beta)
            if np.linalg.norm(x_new - x) <= 1e-13 * (1.0 + np.linalg.norm(x_new)):
                return x_new
            x = x_new
        self.count_cap()
        return x


def build_irls(mats: Sequence[Array], offsets: Sequence[Array], eta: float,
               l1_weight: float = 0.0, constraint: Optional[ConstraintSet] = None) -> Problem:
    if eta <= 0:
        raise ValueError("smoothing parameter must be positive")
    if l1_weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    mats = tuple(np.asarray(A, dtype=float) for A in mats)
    offsets = tuple(np.asarray(b, dtype=float) for b in offsets)
    dim = mats[0].shape[1]
    if any(A.shape[1] != dim for A in mats) or any(
        b.shape != (A.shape[0],) for A, b in zip(mats, offsets)
    ):
        raise ValueError("inconsistent term shapes")
    part = make_partition([dim])
    cons = (constraint if constraint is not None else all_space(dim),)
    S = np.zeros((dim, dim))
    for A in mats:
        S += A.T @ A
    lip = spectral_norm_psd(S) / eta

    def value(x):
        # left to right over the terms, as a running total would add them
        return float(sum(smoothed_norms(mats, offsets, eta, x)))

    def grad(x):
        g = np.zeros(dim)
        for A, b in zip(mats, offsets):
            r = A @ x + b
            g += (A.T @ r) / np.sqrt(r @ r + eta**2)
        return g

    kind = "l1" if l1_weight > 0.0 else "zero"
    smooth = SmoothPart(value=value, grad=grad, lipschitz=lip, block_lipschitz=(lip,))
    return Problem(
        partition=part, smooth=smooth,
        nonsmooth=(NonsmoothBlock(kind=kind, weight=float(l1_weight)),),
        constraints=cons, name="irls",
        custom_surrogate_factory=lambda p: ReweightingBound(p, mats, offsets, float(eta)),
    )


# ---------------------------------------------------------------------------
# synthetic PSD quadratics


def build_quadratic(Q, c, block_sizes=None, constraints=None) -> Problem:
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or c.shape != (n,):
        raise ValueError("need square Q and matching linear term")
    scale = max(1.0, float(np.max(np.abs(Q))))
    if np.max(np.abs(Q - Q.T)) > 1e-10 * scale:
        raise ValueError("Q must be symmetric")
    part = make_partition(block_sizes if block_sizes is not None else [n])
    if part.dim != n:
        raise ValueError("block sizes must partition the rows of Q")
    cons = _default_constraints(part, constraints)

    def value(x):
        return float(x @ (Q @ x) + c @ x)

    def grad(x):
        return 2.0 * (Q @ x) + c

    eigs = _block_eighs(Q[sl, sl] for sl in map(part.block_slice, range(part.n_blocks)))
    mk = [2.0 * float(evals[-1]) for evals, _ in eigs]
    curv = [2.0 * float(evals[0]) for evals, _ in eigs]
    big_m = 2.0 * spectral_norm_psd(Q)

    smooth = SmoothPart(value=value, grad=grad, lipschitz=big_m, block_lipschitz=tuple(mk),
                        block_curvature=tuple(curv))
    nonsmooth = tuple(NonsmoothBlock(kind="zero") for _ in range(part.n_blocks))

    def solver(k, x, on_cap=None):
        sl = part.block_slice(k)
        rest = 2.0 * (Q[sl, :] @ x) - 2.0 * (Q[sl, sl] @ x[sl]) + c[sl]
        if part.sizes[k] == 1:
            a2 = 2.0 * float(Q[sl, sl][0, 0])
            t = _interval_quadratic_min(a2, -float(rest[0]), *_constraint_interval(cons[k]))
            if not np.isfinite(t):
                raise UnsupportedCombination("unbounded scalar quadratic subproblem")
            return np.array([t])
        if cons[k].kind != "all-space":
            raise UnsupportedCombination("exact quadratic solve needs an unconstrained block")
        # minimum-norm solution of the block optimality system
        h = block_hessian(*eigs[k])
        return h.vecs @ group_l2_block_min(h, h.vecs.T @ -rest, 0.0)

    def reference():
        x_star, *_ = np.linalg.lstsq(2.0 * Q, -c, rcond=None)
        resid = float(np.linalg.norm(2.0 * (Q @ x_star) + c))
        if resid > 1e-7 * max(1.0, float(np.linalg.norm(c))):
            raise ValueError("quadratic has no attained minimum (linear term escapes)")
        return x_star, value(x_star)

    unconstrained = all(cs.kind == "all-space" for cs in cons)
    return Problem(
        partition=part, smooth=smooth, nonsmooth=nonsmooth, constraints=cons,
        name="quadratic", exact_solver=solver,
        reference_solver=reference if unconstrained else None,
    )


# ---------------------------------------------------------------------------
# seeded instance generators


def gen_lasso(m: int, n: int, lam: float, seed: int, density: float = 1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    if density < 1.0:
        mask = rng.random((m, n)) < density
        for j in range(n):
            if not mask[:, j].any():
                mask[rng.integers(m), j] = True  # keep every column nonzero
        A = A * mask
    b = rng.standard_normal(m) * 2.0
    return A, b, float(lam)


def gen_group_lasso(m: int, sizes: Sequence[int], weight: float, seed: int,
                    deficient: Sequence[int] = ()):
    rng = np.random.default_rng(seed)
    mats = []
    for k, s in enumerate(sizes):
        Ak = rng.standard_normal((m, s))
        if k in set(deficient) and s >= 2:
            half = max(1, s // 2)
            Ak[:, half:] = Ak[:, : s - half]  # duplicated columns: rank-deficient block
        mats.append(Ak)
    b = rng.standard_normal(m) * 2.0
    return mats, b, [float(weight)] * len(sizes)


def gen_logistic(n_rows: int, dim: int, weight: float, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_rows, dim))
    planted = rng.standard_normal(dim)
    y = np.where(A @ planted + 0.5 * rng.standard_normal(n_rows) > 0.0, 1.0, -1.0)
    return A, y, float(weight)


def gen_l2svm(n_rows: int, dim: int, seed: int):
    # rows >> dim keeps the data non-separable, so level sets stay compact
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, dim))
    signs = rng.choice([-1.0, 1.0], size=n_rows)
    return rows * signs[:, None]


def gen_quadratic(sizes: Sequence[int], seed: int, rank_deficit: int = 0):
    rng = np.random.default_rng(seed)
    n = int(np.sum(sizes))
    rank = max(1, n - int(rank_deficit))
    G = rng.standard_normal((rank, n))
    Q = G.T @ G / np.sqrt(n)
    target = rng.standard_normal(n)
    c = -2.0 * (Q @ target)
    return Q, c


def gen_two_block_quadratic(n_inner: int, n_outer: int, seed: int,
                            zero_eigs: int = 1, min_pos: float = 1e-4):
    """Two-block PSD quadratic: inner block identity (unique inner solves),
    outer block singular with a controlled smallest positive reduced eigenvalue.

    Returns (Q, c, sizes) with the inner block first.
    """
    if not 1 <= zero_eigs < n_outer:
        raise ValueError("need 1 <= zero_eigs < n_outer")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n_outer, n_outer)))
    spectrum = np.concatenate((
        np.zeros(zero_eigs),
        np.geomspace(min_pos, 1.0, n_outer - zero_eigs),
    ))
    reduced = (basis * spectrum) @ basis.T
    null_dir = basis[:, 0]
    coupling = 0.3 * rng.standard_normal((n_inner, n_outer))
    coupling -= np.outer(coupling @ null_dir, null_dir)  # keep the outer block singular
    upper_left = np.eye(n_inner)
    lower_right = reduced + coupling.T @ coupling
    Q = np.block([[upper_left, coupling], [coupling.T, lower_right]])
    Q = 0.5 * (Q + Q.T)
    target = rng.standard_normal(n_inner + n_outer)
    c = -2.0 * (Q @ target)
    return Q, c, (n_inner, n_outer)


def gen_fermat_weber(n_terms: int, dim: int, seed: int):
    """Distance-sum instance: identity maps to randomly placed anchor points."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_terms, dim)) * 3.0
    mats = [np.eye(dim) for _ in range(n_terms)]
    offsets = [-points[j] for j in range(n_terms)]
    return mats, offsets


# ---------------------------------------------------------------------------
# plain-text matrix format: header line "rows cols", row-major values


def matrix_text(M) -> str:
    """M as the text read_matrix reads, at 17 significant digits."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in M]
    return "\n".join(lines) + "\n"


def read_matrix(path) -> Array:
    """The matrix in a file of matrix_text's format.  A malformed header or
    value is a ValueError naming the path, the line, the place and the token."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or len(lines[0].split()) != 2:
        raise ValueError(f"{path}: expected header 'rows cols'")
    values = []
    for line_no, line in enumerate(lines, 1):
        for place, token in enumerate(line.split(), 1):
            try:
                v = float(token)
            except ValueError:
                v = math.nan
            if not math.isfinite(v) or (line_no == 1 and not token.isdigit()):
                kind = "a nonnegative integer" if line_no == 1 else "a finite number"
                raise ValueError(f"{path}: line {line_no}, token {place}: {token!r} is not {kind}")
            values.append(v)
    rows, cols = map(int, lines[0].split())
    data = np.array(values[2:])
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {data.size}")
    return data.reshape(rows, cols)


# ---------------------------------------------------------------------------
# model families as experiment configs name them


@dataclass(frozen=True, eq=False)
class Family:
    """A model family: its config keys, generator, builder and block count.

    generate(params, seed) returns the named arrays that `bsumkit gen` writes
    and that a run's file keys (file_<name>) replace.  build(arrays, params)
    makes the Problem.  block_count(params) is None when only files fix it.
    required names the keys without a default; its generator keys are not
    needed when the file keys are given.
    """

    gen_keys: frozenset
    generate: Callable[[dict, int], dict]
    build: Callable[[dict, dict], Problem]
    block_count: Callable[[dict], Optional[int]]
    build_keys: frozenset = frozenset()
    file_keys: frozenset = frozenset()
    required: frozenset = frozenset()

    def check_keys(self, params: dict) -> None:
        """Raise ValueError for an unknown or a missing key.

        File keys must come all together and without the generator keys.
        """
        given = set(params)
        unknown = given - {"family", "seed"} - self.gen_keys - self.build_keys - self.file_keys
        if unknown:
            raise ValueError(f"unknown model fields {sorted(unknown)}")
        files = given & self.file_keys
        if files and (files != self.file_keys or given & self.gen_keys):
            raise ValueError(f"model files {sorted(self.file_keys)} come together and "
                             f"replace the fields {sorted(self.gen_keys)}")
        missing = self.required - given - (self.gen_keys if files else frozenset())
        if missing:
            raise ValueError(f"missing model fields {sorted(missing)}")


# numeric model fields: JSON integers, finite JSON numbers, and lists of JSON integers
INT_FIELDS = frozenset({"m", "n", "rows", "terms", "n_inner", "n_outer", "zero_eigs",
                        "rank_deficit", "seed"})
FLOAT_FIELDS = frozenset({"lam", "density", "weight", "l1_weight", "eta", "min_pos"})
INT_LIST_FIELDS = frozenset({"sizes", "blocks", "deficient"})


def check_numbers(params: dict) -> None:
    """Raise ValueError naming the first numeric model field whose value is not
    of its kind; the values themselves are left as given."""
    for key, value in params.items():
        if key in INT_FIELDS and not is_integer(value):
            kind = "an integer"
        elif key in FLOAT_FIELDS and not is_number(value):
            kind = "a finite number"
        elif key in INT_LIST_FIELDS and not (isinstance(value, list)
                                             and all(map(is_integer, value))):
            kind = "a list of integers"
        else:
            continue
        raise ValueError(f"model field {key!r} must be {kind}, not {value!r}")


def _group_lasso_arrays(p: dict, seed: int) -> dict:
    mats, b, _ = gen_group_lasso(int(p["m"]), [int(s) for s in p["sizes"]], 0.0, seed,
                                 deficient=p.get("deficient", ()))
    return {**{f"A{k}": Ak for k, Ak in enumerate(mats)}, "b": b}


# dict(zip(names, gen_...)) names a generator's leading outputs and drops its pass-through weight
FAMILIES = {
    "lasso": Family(
        gen_keys=frozenset({"m", "n", "density"}), build_keys=frozenset({"lam", "blocks"}),
        file_keys=frozenset({"file_A", "file_b"}), required=frozenset({"m", "n", "lam"}),
        generate=lambda p, seed: dict(zip(("A", "b"), gen_lasso(
            int(p["m"]), int(p["n"]), 0.0, seed, density=float(p.get("density", 1.0))))),
        build=lambda a, p: build_lasso(a["A"], a["b"].ravel(), float(p["lam"]),
                                       block_sizes=p.get("blocks")),
        block_count=lambda p: len(p["blocks"]) if "blocks" in p else p.get("n"),
    ),
    "group-lasso": Family(
        gen_keys=frozenset({"m", "sizes", "deficient"}), build_keys=frozenset({"weight"}),
        required=frozenset({"m", "sizes"}),
        generate=_group_lasso_arrays,
        build=lambda a, p: build_group_lasso([a[f"A{k}"] for k in range(len(a) - 1)],
                                             a["b"].ravel(), float(p.get("weight", 0.0))),
        block_count=lambda p: len(p["sizes"]) if "sizes" in p else None,
    ),
    "logistic": Family(
        gen_keys=frozenset({"rows", "n"}), build_keys=frozenset({"weight"}),
        required=frozenset({"rows", "n"}),
        generate=lambda p, seed: dict(zip(("A", "y"), gen_logistic(
            int(p["rows"]), int(p["n"]), 0.0, seed))),
        build=lambda a, p: build_logistic(a["A"], a["y"].ravel(), float(p.get("weight", 0.0))),
        block_count=lambda p: p.get("n"),
    ),
    "l2svm": Family(
        gen_keys=frozenset({"rows", "n"}), build_keys=frozenset({"l1_weight"}),
        file_keys=frozenset({"file_rows"}), required=frozenset({"rows", "n"}),
        generate=lambda p, seed: {"rows": gen_l2svm(int(p["rows"]), int(p["n"]), seed)},
        build=lambda a, p: build_l2svm(a["rows"], l1_weight=float(p.get("l1_weight", 0.0))),
        block_count=lambda p: p.get("n"),
    ),
    "quadratic": Family(
        gen_keys=frozenset({"sizes", "rank_deficit"}), build_keys=frozenset({"blocks"}),
        file_keys=frozenset({"file_Q", "file_c"}), required=frozenset({"sizes"}),
        generate=lambda p, seed: dict(zip(("Q", "c"), gen_quadratic(
            [int(s) for s in p["sizes"]], seed, rank_deficit=int(p.get("rank_deficit", 0))))),
        # blocks partitions Q whether it was generated or read; sizes is the default
        build=lambda a, p: build_quadratic(a["Q"], a["c"].ravel(),
                                           block_sizes=p.get("blocks", p.get("sizes"))),
        block_count=lambda p: (len(p["blocks"]) if "blocks" in p
                               else len(p["sizes"]) if "sizes" in p else 1),
    ),
    "two-block-quadratic": Family(
        gen_keys=frozenset({"n_inner", "n_outer", "zero_eigs", "min_pos"}),
        required=frozenset({"n_inner", "n_outer"}),
        generate=lambda p, seed: dict(zip(("Q", "c"), gen_two_block_quadratic(
            int(p["n_inner"]), int(p["n_outer"]), seed, zero_eigs=int(p.get("zero_eigs", 1)),
            min_pos=float(p.get("min_pos", 1e-4))))),
        build=lambda a, p: build_quadratic(a["Q"], a["c"].ravel(),
                                           block_sizes=[int(p["n_inner"]), int(p["n_outer"])]),
        block_count=lambda p: 2,
    ),
    "fermat-weber": Family(
        gen_keys=frozenset({"terms", "n"}), build_keys=frozenset({"eta"}),
        required=frozenset({"terms", "n", "eta"}),
        # the anchor points, which gen writes as P
        generate=lambda p, seed: {"P": -np.array(gen_fermat_weber(
            int(p["terms"]), int(p["n"]), seed)[1])},
        build=lambda a, p: build_irls([np.eye(a["P"].shape[1])] * len(a["P"]),
                                      [-pt for pt in a["P"]], float(p["eta"])),
        block_count=lambda p: 1,
    ),
}
