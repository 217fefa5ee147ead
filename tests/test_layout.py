"""Whole-array oracles against the per-block loops they replace.

The objective and the all-blocks virtual update work on arrays grouped by
regularizer and constraint kind; the feasibility projection visits only the
constrained blocks.  Each property
here writes the per-block definition out again and asks for the same bits
(or, for the residual-based MBI scores, agreement to rounding).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import bsumkit as bk
from bsumkit import models, schedule
from bsumkit.problem import project_feasible

FAMILIES = ("lasso", "group-lasso", "logistic", "l2svm")
WEIGHTS = (0.0, 0.4, 1.7)


def h_value(h, v):
    if h.kind == "zero" or h.weight == 0.0:
        return 0.0
    if h.kind == "l1":
        return h.weight * float(np.sum(np.abs(v)))
    assert h.kind == "group-l2"
    return h.weight * float(np.linalg.norm(v))


def blocks(p, v):
    return [v[p.partition.block_slice(k)] for k in range(p.n_blocks)]


def objective_loop(p, x):
    total = float(p.smooth.value(x))
    for h, xk in zip(p.nonsmooth, blocks(p, x)):
        total += h_value(h, xk)
    return total


def project_loop(p, v):
    x = np.array(v, dtype=float)
    for k, c in enumerate(p.constraints):
        sl = p.partition.block_slice(k)
        x[sl] = c.project(x[sl])
    return x


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def constraint(kind, size, rng):
    if kind == "box":
        lo = rng.uniform(-1.0, 0.5, size)
        return bk.box(lo, lo + rng.uniform(0.0, 1.5, size))
    if kind == "nonneg":
        return bk.nonneg(size)
    if kind == "ball":
        return bk.ball(0.3 * rng.standard_normal(size), rng.uniform(0.5, 2.0))
    if kind == "origin-ball":
        return bk.ball(np.zeros(size), rng.uniform(0.5, 2.0))
    return bk.all_space(size)


@st.composite
def problems(draw):
    """A small model of one family with mixed blocks, regularizers and sets."""
    family = draw(st.sampled_from(FAMILIES))
    if family != "group-lasso" and draw(st.booleans()):
        sizes = [1] * draw(st.integers(1, 10))  # scalar blocks carry exact solvers
    else:
        sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    K = len(sizes)
    if family == "group-lasso":
        weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=K, max_size=K))
    else:
        weights = [draw(st.sampled_from(WEIGHTS))] * K
    # a set each block's regularizer has a closed-form prox with
    kinds = []
    for w in weights:
        if w == 0.0:
            options = ("all-space", "box", "nonneg", "ball", "origin-ball")
        elif family == "group-lasso":
            options = ("all-space", "origin-ball")
        else:
            options = ("all-space", "box", "nonneg")
        kinds.append(draw(st.sampled_from(options)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 15))
    cons = [constraint(kind, s, rng) for kind, s in zip(kinds, sizes)]
    n = sum(sizes)
    if family == "lasso":
        p = models.build_lasso(rng.standard_normal((m, n)), rng.standard_normal(m),
                               weights[0], block_sizes=sizes, constraints=cons)
    elif family == "group-lasso":
        mats = [rng.standard_normal((m, s)) for s in sizes]
        p = models.build_group_lasso(mats, rng.standard_normal(m), weights, constraints=cons)
    elif family == "logistic":
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        p = models.build_logistic(rng.standard_normal((m, n)), y, weights[0],
                                  block_sizes=sizes, constraints=cons)
    else:
        p = models.build_l2svm(rng.standard_normal((m, n)), block_sizes=sizes,
                               l1_weight=weights[0], constraints=cons)
    # prox-linear, exact or mixed, where the model has an exact block solver
    # (the group solve needs an unconstrained block)
    exact_ok = [p.exact_solver is not None and (family != "group-lasso" or kind == "all-space")
                for kind in kinds]
    mode = draw(st.sampled_from(("prox-linear", "exact", "mixed")))
    if mode == "mixed":
        picks = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    else:
        picks = [mode == "exact"] * K
    surrogate_kinds = tuple("exact" if ok and pick else "prox-linear"
                            for ok, pick in zip(exact_ok, picks))
    s = bk.make_surrogate(p, "mixed", kinds=surrogate_kinds)
    points = [draw(st.sampled_from((0.1, 1.0, 10.0))) * rng.standard_normal(n)
              for _ in range(4)]
    return p, s, points


@given(problems())
def test_objective_and_projection_equal_block_loops(case):
    p, _, points = case
    assert same_bits(bk.feasible_start(p), project_loop(p, np.zeros(p.dim)))
    for v in points:
        assert same_bits(project_feasible(p, v), project_loop(p, v))
        for x in (v, project_loop(p, v)):
            assert same_bits(bk.eval_objective(p, x), objective_loop(p, x))


@given(problems())
def test_virtual_update_equals_argmin_loop(case):
    p, s, points = case
    mbi = bk.make_schedule("mbi", p.n_blocks)
    for v in points:
        x = project_loop(p, v)
        grad = p.smooth.grad(x)
        x_hat = np.array(x)
        for k in range(p.n_blocks):
            sl = p.partition.block_slice(k)
            x_hat[sl] = s.argmin(k, x, grad_k=grad[sl])
        norms = [np.linalg.norm(a - b) for a, b in zip(blocks(p, x_hat), blocks(p, x))]
        objs = []
        for k in range(p.n_blocks):
            y = np.array(x)
            y[p.partition.block_slice(k)] = x_hat[p.partition.block_slice(k)]
            objs.append(objective_loop(p, y))
        objs = np.array(objs)

        vu = bk.virtual_updates(p, s, x)
        assert same_bits(vu.x_hat, x_hat)
        assert same_bits(vu.step_norms, norms)
        tol = 1e-12 * (1.0 + abs(objective_loop(p, x)))
        assert np.all(np.abs(vu.objectives - objs) <= tol)
        chosen = mbi.select(0, vu)[0]
        best = int(np.argmin(objs))
        runner_up = np.partition(objs, 1)[1] if len(objs) > 1 else np.inf
        if runner_up - objs[best] > 2.0 * tol:
            assert chosen == best
        else:  # a tie to rounding: either pick is the argmin
            assert objs[chosen] <= objs[best] + 2.0 * tol


def test_objectives_are_computed_on_first_read_only(monkeypatch):
    calls = []
    vu = bk.VirtualUpdate(x_hat=np.ones(4), step_norms=np.ones(4),
                          objectives=lambda: calls.append(1) or np.arange(4.0))
    assert calls == []
    assert same_bits(vu.objectives, np.arange(4.0))
    assert same_bits(vu.objectives, np.arange(4.0))
    assert calls == [1]

    scored = []
    score = schedule.candidate_objectives
    monkeypatch.setattr(schedule, "candidate_objectives",
                        lambda *args: scored.append(1) or score(*args))
    A, b, lam = models.gen_lasso(10, 8, 0.5, seed=4)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p)
    bk.run_bsum(p, s, bk.make_schedule("gauss-southwell", 8, q=0.7), iterations=5)
    assert scored == []  # Gauss-Southwell never reads the objectives
    bk.run_bsum(p, s, bk.make_schedule("mbi", 8), iterations=5)
    assert scored == [1] * 5


def test_group_l2_and_ball_blocks_keep_per_block_calls():
    mats, b, _ = models.gen_group_lasso(5, [3, 2, 4], 0.0, seed=8)
    cons = [bk.all_space(3), bk.ball(np.ones(2), 0.5), bk.box(-np.ones(4), np.ones(4))]
    p = models.build_group_lasso(mats, b, [0.7, 0.0, 0.0], constraints=cons)
    lay = p.layout
    assert lay.value_blocks == (0,)
    assert lay.project_blocks == (1, 2)
    assert lay.l1_groups == ()
    assert list(lay.coordwise) == [False, False, False]
