"""Prox operators, surrogate values/minimizers, and bound-validity sampling."""

import dataclasses

import numpy as np
import pytest

import bsumkit as bk
from bsumkit import models
from bsumkit.problem import NonsmoothBlock, UnsupportedCombination
from bsumkit.surrogate import prox_block

from conftest import grid_min_1d

L1 = lambda w: NonsmoothBlock(kind="l1", weight=w)
GROUP = lambda w: NonsmoothBlock(kind="group-l2", weight=w)
ZERO = NonsmoothBlock(kind="zero")


def test_prox_closed_forms():
    free = bk.all_space(1)
    assert prox_block(L1(0.5), free, 2.0, [1.0])[0] == pytest.approx(0.75)
    assert prox_block(L1(0.5), free, 2.0, [-0.2])[0] == pytest.approx(0.0)
    got = prox_block(GROUP(1.0), bk.all_space(2), 1.0, [3.0, 4.0])
    assert np.allclose(got, [2.4, 3.2])


def test_prox_matches_grid_oracle_frozen_case():
    # argmin over u of 0.3|u| + 0.5 (0.9 - u)^2, dense grid
    t = grid_min_1d(lambda u: 0.3 * np.abs(u) + 0.5 * (0.9 - u) ** 2)
    assert t == pytest.approx(0.6, abs=1e-5)
    assert prox_block(L1(0.3), bk.all_space(1), 1.0, [0.9])[0] == pytest.approx(0.6)


def test_prox_rejects_bad_beta():
    with pytest.raises(ValueError):
        prox_block(L1(0.5), bk.all_space(1), 0.0, [1.0])


def test_prox_unsupported_pairings():
    with pytest.raises(UnsupportedCombination):
        prox_block(GROUP(1.0), bk.nonneg(2), 1.0, [1.0, 1.0])
    with pytest.raises(UnsupportedCombination):
        prox_block(L1(1.0), bk.ball(np.ones(2), 1.0), 1.0, [1.0, 1.0])


def test_prox_against_grid_oracle_200_cases():
    rng = np.random.default_rng(42)
    free1, free2 = bk.all_space(1), bk.all_space(2)
    for case in range(200):
        beta = float(rng.uniform(0.5, 4.0))
        if case % 2 == 0:  # scalar l1, optionally boxed
            lam = float(rng.uniform(0.0, 1.5))
            v = float(rng.uniform(-1.5, 1.5))
            if case % 4 == 0:
                lo, hi = sorted(rng.uniform(-1.2, 1.2, size=2))
                cs = bk.box(np.array([lo]), np.array([hi]))
            else:
                lo, hi, cs = -2.0, 2.0, free1
                lo_g, hi_g = -2.0, 2.0
            lo_g, hi_g = (lo, hi) if cs.kind == "box" else (-2.0, 2.0)
            got = prox_block(L1(lam), cs, beta, [v])[0]
            want = grid_min_1d(
                lambda u: lam * np.abs(u) + 0.5 * beta * (u - v) ** 2,
                lo=lo_g, hi=hi_g,
            )
            assert abs(got - want) <= 1e-4
        else:  # 2-D group shrinkage: radial profile is one-dimensional
            w = float(rng.uniform(0.0, 2.0))
            v = rng.uniform(-1.5, 1.5, size=2)
            nv = np.linalg.norm(v)
            got = prox_block(GROUP(w), free2, beta, v)
            t = grid_min_1d(
                lambda t_: w * np.abs(t_) + 0.5 * beta * (t_ - nv) ** 2,
                lo=0.0, hi=nv + 1.0,
            )
            want = v * (t / nv) if nv > 0 else np.zeros(2)
            assert np.linalg.norm(got - want) <= 1e-4


def scalar_quadratic():
    return models.build_quadratic(np.array([[1.0]]), np.zeros(1))


def worked_two_block():
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])


def test_surrogate_value_tightness_and_bounds():
    p = scalar_quadratic()  # g = x^2
    s = bk.make_surrogate(p, "prox-linear", lip=(2.0,))
    anchor = np.array([1.0])
    # tight at the anchor for any kind
    assert s.value(0, [1.0], anchor) == pytest.approx(1.0)
    # matching curvature: bound equals g at the step target
    assert s.value(0, [0.0], anchor) == pytest.approx(0.0)
    s4 = bk.make_surrogate(p, "prox-linear", lip=(4.0,))
    assert s4.value(0, [0.0], anchor) == pytest.approx(1.0)
    assert s4.value(0, [0.0], anchor) >= 0.0  # dominates g(0) = 0


def test_surrogate_argmin_examples():
    p = scalar_quadratic()
    s = bk.make_surrogate(p, "prox-linear", lip=(2.0,))
    assert s.argmin(0, np.array([1.0]))[0] == pytest.approx(0.0)

    p2 = worked_two_block()
    s2 = bk.make_surrogate(p2, "exact")
    assert s2.argmin(1, np.array([1.0, 0.3]))[0] == pytest.approx(0.5)

    lasso = models.build_lasso(np.eye(2), np.array([1.0, 0.2]), 0.5)
    sl = bk.make_surrogate(lasso, "prox-linear", lip=(2.0, 2.0))
    got = sl.argmin(0, np.zeros(2))[0]
    want = grid_min_1d(lambda u: (u - 1.0) ** 2 + 0.04 + 0.5 * np.abs(u))
    assert got == pytest.approx(0.75)
    assert abs(got - want) <= 1e-4


def test_surrogate_argmin_needs_registered_solver():
    A, y, nu = models.gen_logistic(30, 6, 0.1, seed=0)
    p = models.build_logistic(A, y, nu)  # no exact block solver
    with pytest.raises(UnsupportedCombination):
        bk.make_surrogate(p, "exact")


@pytest.mark.parametrize("kinds", [
    ("foo", "exact", "model-custom"),  # each block is exact or prox-linear
    ("exact", "model-custom", "prox-linear"),
    ("exact", "prox-linear"),  # one kind per block
    None,
])
def test_mixed_surrogate_rejects_bad_block_kinds(kinds):
    p = models.build_lasso(np.eye(3), np.ones(3), 0.5)
    with pytest.raises(ValueError, match="mixed surrogate needs a list of 3 kinds"):
        bk.make_surrogate(p, "mixed", kinds=kinds)
    assert bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear", "exact")).kind == "mixed"


def test_nonpositive_step_constants_are_named_by_block():
    p = models.build_lasso(np.eye(3), np.ones(3), 0.5)
    with pytest.raises(ValueError, match=r"blocks \[1, 2\] have \[0.0, -2.0\]"):
        bk.make_surrogate(p, "prox-linear", lip=(1.0, 0.0, -2.0))
    # an exact block takes its declared constant, whatever lip says
    s = bk.make_surrogate(p, "mixed", kinds=("prox-linear", "exact", "exact"),
                          lip=(3.0, 0.0, -2.0))
    assert s.lip == (3.0, 2.0, 2.0)


@pytest.mark.parametrize("kind,kinds", [
    ("prox-linear", None),
    ("exact", None),
    ("mixed", ("exact", "prox-linear") * 3),
])
def test_certificate_constants_follow_kinds_and_lip(kind, kinds):
    # gamma and G_max derive from the kinds and the step constants, so a copy
    # with new steps certifies as a fresh surrogate built with them would
    p = models.build_lasso(*models.gen_lasso(10, 6, 0.5, seed=1))
    s = bk.make_surrogate(p, kind, kinds=kinds)
    # make_surrogate keeps an exact block's declared constant, so double only
    # the prox-linear steps
    lip = tuple(2.0 * lk if k == "prox-linear" else lk for k, lk in zip(s.kinds, s.lip))
    copy = dataclasses.replace(s, lip=lip)
    fresh = bk.make_surrogate(p, kind, kinds=kinds, lip=lip)
    assert (copy.gamma, copy.l_max, copy.g_max) == (fresh.gamma, fresh.l_max, fresh.g_max)
    big_m, curv = p.smooth.lipschitz, p.smooth.block_curvature
    assert fresh.gamma == 0.5 * min(curv[k] if k_ == "exact" else lip[k]
                                    for k, k_ in enumerate(s.kinds))
    assert fresh.g_max == max(big_m + lip[k] if k_ == "prox-linear" else big_m
                              for k, k_ in enumerate(s.kinds))
    if "prox-linear" in s.kinds:  # the copy does not certify with the old constants
        assert copy.g_max > s.g_max
    if kind == "prox-linear":
        assert copy.gamma == 2.0 * s.gamma


def test_reweighting_bound_declares_no_curvature_and_no_anchor_constant():
    p = models.build_irls(*models.gen_fermat_weber(6, 4, seed=5), 0.2)
    s = bk.make_surrogate(p, "model-custom")
    assert s.gamma == 0.0 and s.g_max is None
    assert s.l_max == p.smooth.lipschitz


def test_prox_linear_first_order_certificate():
    # x+ is a fixed point of the prox-gradient map of its own subproblem
    A, b, lam = models.gen_lasso(10, 14, 1.0, seed=8)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p, "prox-linear")
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(14)
        k = int(rng.integers(14))
        xk = x[p.partition.block_slice(k)]
        plus = s.argmin(k, x)
        grad_at_plus = bk.block_gradient(p, k, x) + s.lip[k] * (plus - xk)
        again = prox_block(p.nonsmooth[k], p.constraints[k], s.lip[k],
                           plus - grad_at_plus / s.lip[k])
        assert np.linalg.norm(again - plus) <= 1e-8


def test_validate_upper_bound_prox_linear():
    A, b, lam = models.gen_lasso(10, 12, 0.7, seed=3)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p, "prox-linear")
    report = bk.validate_upper_bound(s, n_samples=50, seed=1)
    assert report.max_violation() <= 1e-6


def test_validate_upper_bound_reweighting():
    mats, offs = models.gen_fermat_weber(8, 4, seed=2)
    p = models.build_irls(mats, offs, 0.3)
    s = bk.make_surrogate(p, "model-custom")
    report = bk.validate_upper_bound(s, n_samples=50, seed=2)
    assert report.domination <= 1e-10  # mean inequality is never violated
    assert report.tightness <= 1e-10


def test_validate_upper_bound_flags_understated_constant():
    # curvature exceeds the declared bound: domination must be violated
    p = scalar_quadratic()  # g = x^2, true curvature 2
    s = bk.make_surrogate(p, "prox-linear", lip=(0.2,))
    report = bk.validate_upper_bound(s, n_samples=50, seed=0)
    assert report.domination > 0.0
    # analytic check at anchor 0, candidate 1: bound 0.1 < g = 1
    assert s.value(0, [1.0], np.zeros(1)) == pytest.approx(0.1)


def test_reweighting_bound_gradient_lipschitz_transfers():
    # the bound's own step constant also bounds the smooth part's gradient
    mats, offs = models.gen_fermat_weber(8, 4, seed=7)
    p = models.build_irls(mats, offs, 0.25)
    L = p.smooth.lipschitz
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        lhs = np.linalg.norm(p.smooth.grad(x) - p.smooth.grad(v))
        assert lhs <= L * np.linalg.norm(x - v) * (1 + 1e-9)


def test_projected_gradient_step_form():
    # with no regularizer the prox-linear update is a projected gradient step
    Q = np.array([[1.0]])
    p = models.build_quadratic(
        Q, np.array([-4.0]), block_sizes=[1],
        constraints=[bk.box(np.array([-1.0]), np.array([1.0]))],
    )  # g = x^2 - 4x, unconstrained min at 2, box caps it at 1
    s = bk.make_surrogate(p, "prox-linear")
    tr = bk.run_sum(p, s, x0=np.array([-1.0]), iterations=30)
    assert tr.iterates[-1][0] == pytest.approx(1.0, abs=1e-12)
    f = tr.fvals()
    assert np.all(f[1:] <= f[:-1] + 1e-12)


def test_mixed_surrogate_kind_label():
    Q, c, sizes = models.gen_two_block_quadratic(3, 4, seed=0)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    s = bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear"))
    assert s.kind == "mixed"
    assert s.kinds == ("exact", "prox-linear")
