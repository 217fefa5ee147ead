"""Problem oracles: partitions, projections, objectives, gradients."""

import numpy as np
import pytest

import bsumkit as bk
from bsumkit import models


def test_make_partition_prefix_sums():
    part = bk.make_partition([2, 3])
    assert part.n_blocks == 2
    assert part.dim == 5
    assert part.offsets == (0, 2)


def test_make_partition_single_block():
    part = bk.make_partition([1])
    assert part.n_blocks == 1 and part.dim == 1


def test_make_partition_scalar_blocks():
    part = bk.make_partition([1, 1, 1, 1])
    assert part.n_blocks == 4
    assert part.block_slice(2) == slice(2, 3)


def test_make_partition_rejects_bad_sizes():
    with pytest.raises(ValueError):
        bk.make_partition([])
    with pytest.raises(ValueError):
        bk.make_partition([2, 0])


def quadratic_worked_example():
    # g(x1, x2) = (x1 - x2)^2 + x2^2
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])


def test_eval_objective_examples():
    lasso = models.build_lasso(np.eye(2), np.array([1.0, 0.2]), 0.5)
    assert bk.eval_objective(lasso, np.zeros(2)) == pytest.approx(1.04, abs=1e-15)

    quad = quadratic_worked_example()
    assert bk.eval_objective(quad, np.array([1.0, 1.0])) == pytest.approx(1.0)

    svm = models.build_l2svm(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    assert bk.eval_objective(svm, np.zeros(2)) == pytest.approx(3.0)


def test_eval_objective_keeps_a_nan_and_an_infinity():
    # a NaN in the data is a NaN objective, not a point outside the domain
    lasso = models.build_lasso(np.eye(2), np.array([np.nan, 0.2]), 0.5)
    assert np.isnan(bk.eval_objective(lasso, np.zeros(2)))
    far = models.build_lasso(np.eye(2), np.array([np.inf, 0.2]), 0.5)
    assert bk.eval_objective(far, np.zeros(2)) == np.inf


def test_block_gradient_examples():
    quad = quadratic_worked_example()
    x = np.array([1.0, 1.0])
    assert bk.block_gradient(quad, 0, x) == pytest.approx(0.0)
    assert bk.block_gradient(quad, 1, x) == pytest.approx(2.0)
    with pytest.raises(IndexError):
        bk.block_gradient(quad, 2, x)


def test_block_gradient_matches_finite_differences():
    lasso = models.build_lasso(np.eye(2), np.array([1.0, 0.2]), 0.5)
    g0 = bk.block_gradient(lasso, 0, np.zeros(2))[0]
    h = 1e-6
    fd = (bk.eval_objective(lasso, np.array([h, 0.0]))
          - bk.eval_objective(lasso, np.array([-h, 0.0]))) / (2 * h)
    # remove the l1 part: it is zero at the origin along the step anyway
    assert g0 == pytest.approx(-2.0, abs=1e-6)
    assert fd == pytest.approx(g0, abs=1e-6)


def test_projections():
    b = bk.box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.allclose(b.project(np.array([2.0, -0.5])), [1.0, -0.5])
    a = bk.all_space(3)
    v = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(a.project(v), v)
    s = bk.ball(np.zeros(2), 1.0)
    assert np.allclose(s.project(np.array([3.0, 4.0])), [0.6, 0.8])
    nn = bk.nonneg(2)
    assert np.allclose(nn.project(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(0)
    sets = [
        bk.box(-np.ones(4), np.ones(4)),
        bk.ball(rng.standard_normal(4), 2.0),
        bk.nonneg(4),
        bk.all_space(4),
    ]
    for cs in sets:
        for _ in range(100):
            u = 3.0 * rng.standard_normal(4)
            v = 3.0 * rng.standard_normal(4)
            pu, pv = cs.project(u), cs.project(v)
            assert np.allclose(cs.project(pu), pu, atol=1e-12)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def _all_models():
    A, b, lam = models.gen_lasso(12, 20, 1.0, seed=1)
    yield models.build_lasso(A, b, lam)
    mats, bg, w = models.gen_group_lasso(10, [4, 4, 4], 0.3, seed=2, deficient=[1])
    yield models.build_group_lasso(mats, bg, w)
    Al, y, nu = models.gen_logistic(40, 8, 0.2, seed=3)
    yield models.build_logistic(Al, y, nu)
    yield models.build_l2svm(models.gen_l2svm(30, 6, seed=4))
    fm, fo = models.gen_fermat_weber(6, 4, seed=5)
    yield models.build_irls(fm, fo, 0.2)
    Q, c = models.gen_quadratic([3, 3], seed=6)
    yield models.build_quadratic(Q, c, block_sizes=[3, 3])


def test_gradient_consistency_all_models():
    # block gradients against central finite differences at seeded points
    for problem in _all_models():
        rng = np.random.default_rng(11)
        pts = [rng.standard_normal(problem.dim) for _ in range(20)]
        assert bk.fd_gradient_check(problem, pts, step=1e-6) <= 1e-5


def test_declared_lipschitz_constant_all_models():
    for problem in _all_models():
        rep = bk.check_gradient_lipschitz(problem, n_pairs=100, seed=3, tolerance=1e-9)
        assert rep.passed, f"{problem.name}: violation {rep.max_violation}"


def test_nonsmooth_lipschitz_bound_sampled():
    from bsumkit.problem import nonsmooth_lipschitz, nonsmooth_value

    A, b, lam = models.gen_lasso(8, 10, 1.5, seed=9)
    problem = models.build_lasso(A, b, lam)
    lh = nonsmooth_lipschitz(problem)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        gap = abs(nonsmooth_value(problem, x) - nonsmooth_value(problem, y))
        assert gap <= lh * np.linalg.norm(x - y) + 1e-12
