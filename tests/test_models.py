"""Model builders: declared constants, exact solvers, generators, file IO."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bsumkit as bk
from bsumkit import cli, models
from bsumkit.problem import Array, UnsupportedCombination

from conftest import golden_section, grid_min_1d
from reference_oracles import lasso_block_solve


def test_lasso_identity_constants():
    p = models.build_lasso(np.eye(2), np.array([1.0, 0.2]), 0.5)
    assert bk.eval_objective(p, np.zeros(2)) == pytest.approx(1.04)
    assert p.smooth.lipschitz == pytest.approx(2.0)
    assert p.smooth.block_curvature == pytest.approx((2.0, 2.0))


def test_constraint_sets_must_match_the_block_count():
    with pytest.raises(ValueError, match="must match the block count"):
        models.build_lasso(np.eye(2), np.ones(2), 0.5, constraints=[bk.all_space(1)])


def test_lasso_zero_column_blocks_exact_requests():
    A = np.array([[1.0, 0.0], [0.5, 0.0]])
    p = models.build_lasso(A, np.array([1.0, 1.0]), 0.3)  # construction fine
    assert p.exact_solver is None
    with pytest.raises(UnsupportedCombination):
        bk.make_surrogate(p, "exact")


def test_lasso_lipschitz_matches_eigensolver():
    A, b, lam = models.gen_lasso(20, 50, 2.0, seed=101)
    p = models.build_lasso(A, b, lam)
    want = 2.0 * np.linalg.eigvalsh(A.T @ A)[-1]
    assert abs(p.smooth.lipschitz - want) <= 1e-8 * want


def test_quadratic_lipschitz_matches_eigensolver():
    rng = np.random.default_rng(17)
    G = rng.standard_normal((15, 12))
    Q = G.T @ G
    p = models.build_quadratic(Q, np.zeros(12), block_sizes=[6, 6])
    want = 2.0 * np.linalg.eigvalsh(Q)[-1]
    assert abs(p.smooth.lipschitz - want) <= 1e-8 * want


def test_spectral_norm_is_the_largest_eigenvalue_200_gram_matrices():
    # the declared M must bound the true constant, not approach it from below
    rng = np.random.default_rng(2013)
    for _ in range(200):
        G = rng.standard_normal((30, 30))
        S = G.T @ G
        want = np.linalg.norm(S, 2)
        assert abs(models.spectral_norm_psd(S) - want) <= 1e-12 * want


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        models.build_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_quadratic_reference_examples():
    p = models.build_quadratic(np.eye(2), np.zeros(2))
    ref = bk.reference_solve(p)
    assert ref.f == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(ref.x, 0.0)

    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    p2 = models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])
    ref2 = bk.reference_solve(p2)
    assert ref2.f == pytest.approx(0.0, abs=1e-14)


def test_lasso_reference_soft_threshold_solution():
    p = models.build_lasso(np.eye(2), np.array([1.0, 0.2]), 0.5)
    ref = bk.reference_solve(p)
    assert np.allclose(ref.x, [0.75, 0.0], atol=1e-10)
    # (1 - 0.75)^2 + 0.2^2 + 0.5 * 0.75
    assert ref.f == pytest.approx(0.4775, abs=1e-12)


def test_l2svm_single_row_reference():
    p = models.build_l2svm(np.array([[1.0]]))
    ref = bk.reference_solve(p)
    assert ref.f == pytest.approx(0.0, abs=1e-16)

    p2 = models.build_l2svm(np.array([[2.0]]))
    t = p2.exact_solver(0, np.zeros(1))[0]
    assert t == pytest.approx(0.5)
    assert bk.eval_objective(p2, np.array([t])) == pytest.approx(0.0)


def test_l2svm_oracles():
    rows = models.gen_l2svm(50, 10, seed=104)
    p = models.build_l2svm(rows)
    assert np.allclose(np.maximum(0.0, 1.0 - rows @ np.zeros(10)), 1.0)
    assert bk.eval_objective(p, np.zeros(10)) == pytest.approx(50.0)
    x = np.random.default_rng(0).standard_normal(10)
    q = np.maximum(0.0, 1.0 - rows @ x)
    assert np.allclose(bk.block_gradient(p, 3, x),
                       -2.0 * rows[:, 3:4].T @ q)


def test_logistic_examples():
    A, y, nu = models.gen_logistic(40, 8, 0.2, seed=3)
    p = models.build_logistic(A, y, nu)
    assert bk.eval_objective(p, np.zeros(8)) == pytest.approx(
        40 * np.log(2.0) + 0.0
    )
    want = -0.5 * np.sum(y[:, None] * A, axis=0)
    got = np.concatenate([bk.block_gradient(p, k, np.zeros(8)) for k in range(8)])
    assert np.allclose(got, want)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        models.build_logistic(np.ones((3, 2)), np.array([1.0, 0.0, -1.0]), 0.1)


def test_group_lasso_rank_deficient_line_of_minimizers():
    a = np.array([[1.0], [0.0]])
    p = models.build_group_lasso([a, a], np.array([1.0, 0.0]), [0.0, 0.0])
    assert bk.eval_objective(p, np.zeros(2)) == pytest.approx(1.0)  # ||b||^2
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, iterations=3)
    assert tr.records[-1].f == pytest.approx(0.0, abs=1e-28)
    # hand-solved normal equations: first sweep lands on (1, 0)
    assert np.allclose(tr.iterates[1], [1.0, 0.0])


def test_group_lasso_shrinks_to_zero_for_large_weight():
    mats, b, _ = models.gen_group_lasso(10, [3, 3], 1.0, seed=5)
    thresh = max(2.0 * np.linalg.norm(Ak.T @ b) for Ak in mats)
    p = models.build_group_lasso(mats, b, [thresh + 1.0] * 2)
    ref = bk.reference_solve(p)
    assert np.allclose(ref.x, 0.0, atol=1e-12)
    assert ref.f == pytest.approx(float(b @ b))


def test_group_block_solver_against_golden_section_radius():
    # minimize ||A u - rho||^2 + w ||u||: radial profile in the eigenbasis
    rng = np.random.default_rng(21)
    mats, b, _ = models.gen_group_lasso(12, [5, 5], 0.8, seed=6, deficient=[0])
    p = models.build_group_lasso(mats, b, [0.8, 0.8])
    for trial in range(40):
        x = rng.standard_normal(10)
        k = trial % 2
        u = p.exact_solver(k, x)
        sl = p.partition.block_slice(k)

        def fobj(uvec):
            y = x.copy()
            y[sl] = uvec
            return bk.eval_objective(p, y)

        base = fobj(u)
        for _ in range(25):  # local perturbations cannot improve the solve
            assert base <= fobj(u + 1e-4 * rng.standard_normal(5)) + 1e-12


def bisect_group_l2_block_min(evals, vecs, target, weight):
    """group_l2_block_min by bisection on the secular equation, run until no
    float lies strictly between the ends.

    With s = ||u||, the minimizer is V (z s / (d s + weight)) where
    sum_i (z_i / (d_i s + weight))^2 = 1.  Components of z along directions
    with d_i at most 1e-12 max d are rounding of a target in the range of
    A^T A and are dropped, as the weight == 0 solve drops them.
    """
    z = vecs.T @ (2.0 * target)
    d = 2.0 * evals
    z = np.where(d > 1e-12 * float(np.max(d)), z, 0.0)
    if float(np.linalg.norm(z)) <= weight:
        return np.zeros_like(z)

    def excess(s):
        return float(np.sum((z / (d * s + weight)) ** 2)) - 1.0

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return vecs @ (z * hi / (d * hi + weight))


@st.composite
def group_subproblems(draw):
    """Blocks of 1 to 16 columns, half of them with duplicated columns
    (rank-deficient), targets A^T rho scaled by 1e-3 .. 1e3, and weights below
    and above ||z||."""
    size = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((size + draw(st.integers(0, 8)), size))
    if size >= 2 and draw(st.booleans()):
        half = size // 2
        A[:, half:] = A[:, :size - half]
    (evals, vecs), = models._block_eighs([A.T @ A])
    target = A.T @ rng.standard_normal(A.shape[0]) * 10.0 ** draw(st.integers(-3, 3))
    d = 2.0 * evals
    z = vecs.T @ (2.0 * target)
    znorm = float(np.linalg.norm(z[d > 1e-12 * float(np.max(d))]))
    ratio = draw(st.one_of(st.floats(0.02, 0.9), st.floats(1.1, 3.0)))
    return evals, vecs, target, ratio * znorm


@settings(max_examples=300)
@given(problem=group_subproblems(),
       where=st.sampled_from(("zero", "below", "root", "above", "past hi")),
       frac=st.floats(0.0, 1.0))
def test_group_l2_block_min_matches_a_bisection_to_adjacent_floats(problem, where, frac):
    # the Newton iteration starts at 0, left or right of the root s = ||u||,
    # at it, or past the upper end hi of its bracket
    evals, vecs, target, weight = problem
    want = bisect_group_l2_block_min(*problem)
    h = models.block_hessian(evals, vecs)
    rhs = 2.0 * target
    root = float(np.linalg.norm(want))
    hi = max(float(np.linalg.norm(np.where(h.kept, vecs.T @ rhs, 0.0))) - weight, 0.0) / h.d_min
    start = {"zero": 0.0, "below": frac * root, "root": root,
             "above": root + frac * (hi - root), "past hi": (1.0 + frac) * hi + 1.0}[where]
    got = vecs @ models.group_l2_block_min(h, vecs.T @ rhs, weight, start)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@settings(max_examples=100)
@given(problem=group_subproblems())
def test_a_start_one_float_right_of_the_root_stops_on_its_first_evaluation(problem):
    # the Newton step there is already below its stop: one evaluation returns,
    # while a start at 0 needs more and reaches a cap of 1.  Rounding in
    # ||q||^2 can push that step past the stop; on these examples it stays
    # below half of it.
    evals, vecs, target, weight = problem
    want = bisect_group_l2_block_min(*problem)
    root = float(np.linalg.norm(want))
    if root == 0.0:  # the weight is at least ||z||: no secular solve
        return
    h = models.block_hessian(evals, vecs)
    z = vecs.T @ (2.0 * target)
    capped = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "SECULAR_MAX_ITER", 1)
        got = vecs @ models.group_l2_block_min(h, z, weight, float(np.nextafter(root, np.inf)),
                                               lambda: capped.append(1))
        assert capped == []
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        models.group_l2_block_min(h, z, weight, 0.0, lambda: capped.append(1))
    assert capped == [1]


@settings(max_examples=200)
@given(problem=group_subproblems(), scale=st.sampled_from([0.0, 1.0, 1e3]),
       start=st.sampled_from([0.0, 1.0]))
def test_a_rank_deficient_solve_is_zero_along_dropped_directions(problem, scale, start):
    # along a dropped direction z is rounding, or here any value: the shifted
    # solve divides it by 1, gives it a of 0 and returns exactly 0 there,
    # with or without a weight and without a floating-point warning
    evals, vecs, target, weight = problem
    h = models.block_hessian(evals, vecs)
    assume(not h.all_kept)
    z = vecs.T @ (2.0 * target) + np.where(h.kept, 0.0, scale)
    want = bisect_group_l2_block_min(*problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for wk in (0.0, weight):
            got = models.group_l2_block_min(h, z, wk, start * float(np.linalg.norm(want)))
            assert np.all(got[~h.kept] == 0.0)
    assert np.linalg.norm(vecs @ got - want) <= 1e-13 * np.linalg.norm(want)


def test_a_block_at_a_small_column_scale_keeps_every_direction():
    # the floor on d is relative: columns scaled by 1e-7, and the weights
    # with them, keep the optimum, and the exact run and the reference reach it
    mats, b, _ = models.gen_group_lasso(30, [4, 4], 0.0, seed=3)
    want = bk.reference_solve(models.build_group_lasso(mats, b, [1e-3] * 2))
    p = models.build_group_lasso([1e-7 * Ak for Ak in mats], b, [1e-3 * 1e-7] * 2)
    assert all(models.block_hessian(*eig).all_kept for eig in p.smooth.linear.block_eigh)
    ref = bk.reference_solve(p)
    assert want.converged and ref.converged
    assert abs(ref.f - want.f) <= 1e-12 * want.f
    tr = bk.run_bsum(p, bk.make_surrogate(p, "exact"), bk.make_schedule("gauss-seidel", 2),
                     iterations=200)
    assert abs(tr.records[-1].f - want.f) <= 1e-12 * want.f


def test_group_lasso_reference_with_a_tiny_weight_finishes(monkeypatch):
    # a rank-deficient block, a large target and a weight near zero: the
    # rounding of z along the null space, divided by the weight, alone exceeds
    # 1 in ||q(s)||, so the secular equation has a root only once it is dropped
    mats, b, _ = models.gen_group_lasso(25, [8] * 4, 0.0, seed=102, deficient=[1])
    rhs, weight = 1e3 * b, 1e-12
    p = models.build_group_lasso(mats, rhs, [weight] * 4)
    solve = models.group_l2_block_min
    worst = []

    def checked(h, z, wk, start=0.0, on_cap=None):
        # group-l2 optimality of the block solve in eigen-coordinates, with
        # 2 A_k^T A_k = V diag(d) V^T, z = V^T rhs, rhs = 2 A_k^T rho and
        # y = V^T u: 2 (A_k^T A_k u - A_k^T rho) + weight u/||u|| = 0 reads
        # d y - z + weight y/||y|| = 0
        y = solve(h, z, wk, start, on_cap)
        assert np.linalg.norm(y) > 0.0
        worst.append(np.linalg.norm(h.d * y - z + wk * y / np.linalg.norm(y)) / np.linalg.norm(z))
        return y

    monkeypatch.setattr(models, "group_l2_block_min", checked)
    ref = bk.reference_solve(p)
    assert ref.converged and len(worst) == 4 * ref.sweeps
    assert max(worst) <= 1e-12


def test_a_scalar_lasso_reference_sweeps_without_block_solver_calls():
    A, b, lam = models.gen_lasso(30, 12, 1.0, seed=6)
    p = models.build_lasso(A, b, lam)

    def refuse(*args, **kwargs):
        raise AssertionError("the reference called the per-block solver")

    p.exact_solver = refuse
    ref = bk.reference_solve(p)
    assert ref.converged and ref.sweeps > 0
    # its minimizer is that of per-block steps from a fresh residual, to rounding
    q = models.build_lasso(A, b, lam)
    q.exact_sweep = None
    q.exact_solver = lambda k, x, on_cap=None: lasso_block_solve(q, k, x)
    want = bk.reference_solve(q)
    assert np.max(np.abs(ref.x - want.x)) <= 1e-9 and abs(ref.f - want.f) <= 1e-12 * want.f


def correctly_rounded_sigmoid(t: float) -> float:
    return float(1 / (1 + (-Decimal(t)).exp(Context(prec=40))))


def libm_sigmoid(t: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:  # exp(-t) beyond the largest float
        return 0.0


def ulps_apart(a: Array, b: Array) -> Array:
    # nonnegative floats order like their bit patterns
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def test_sigmoid_is_finite_and_silent_at_extreme_margins():
    ts = np.array([0.0, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = models.sigmoid(ts)
        grad = models.LOGISTIC.grad(ts)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(grad))
    assert np.array_equal(grad, -out[[0, 2, 1, 4, 3, 6, 5]])
    assert np.all(ulps_apart(out, [libm_sigmoid(t) for t in ts]) <= 2)


def test_sigmoid_is_within_2_ulp_of_the_correctly_rounded_value():
    # 1/(1 + math.exp(-t)) is itself up to 2 ulp off for t < 0 and is 0 once
    # exp(-t) overflows, so the grid compares with a 40-digit decimal value
    ts = np.concatenate((np.linspace(-745.0, 745.0, 14901),
                         np.random.default_rng(3).standard_normal(2000) * 8.0))
    want = [correctly_rounded_sigmoid(t) for t in ts.tolist()]
    assert int(np.max(ulps_apart(models.sigmoid(ts), want))) <= 2


def test_import_loads_no_scipy():
    code = "import sys, bsumkit; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_exact_scalar_solvers_against_oracles_200_cases():
    rng = np.random.default_rng(77)
    A, b, lam = models.gen_lasso(14, 10, 1.0, seed=31)
    lasso = models.build_lasso(A, b, lam)
    svm = models.build_l2svm(models.gen_l2svm(30, 8, seed=32))
    Q, c = models.gen_quadratic([1] * 6, seed=33)
    quad = models.build_quadratic(Q, c, block_sizes=[1] * 6)
    cases = 0
    for trial in range(80):
        x = rng.standard_normal(10)
        k = int(rng.integers(10))
        t = lasso.exact_solver(k, x)[0]

        def fl(ts):
            xs = np.tile(x, (np.size(ts), 1))
            xs[:, k] = ts
            return np.sum((xs @ A.T - b) ** 2, axis=1) + lam * np.sum(np.abs(xs), axis=1)

        tg = grid_min_1d(fl, lo=t - 1.0, hi=t + 1.0, step=1e-5)
        assert abs(t - tg) <= 1e-4
        cases += 1
    for trial in range(80):
        x = rng.standard_normal(8)
        k = int(rng.integers(8))
        t = svm.exact_solver(k, x)[0]

        def fs(tt):
            y = x.copy()
            y[k] = tt
            return bk.eval_objective(svm, y)

        tg = golden_section(fs, t - 2.0, t + 2.0)
        assert abs(t - tg) <= 1e-4
        cases += 1
    for trial in range(40):
        x = rng.standard_normal(6)
        k = int(rng.integers(6))
        t = quad.exact_solver(k, x)[0]

        def fq(tt):
            y = x.copy()
            y[k] = tt
            return bk.eval_objective(quad, y)

        tg = golden_section(fq, t - 2.0, t + 2.0)
        assert abs(t - tg) <= 1e-4
        cases += 1
    assert cases == 200


@pytest.mark.parametrize("c0,cs,want", [
    (1.0, bk.box([-2.0], [3.0]), -2.0),  # slope > 0: the lower end
    (-1.0, bk.box([-2.0], [3.0]), 3.0),  # slope < 0: the upper end
    (0.0, bk.box([-2.0], [3.0]), 0.0),  # flat: the point nearest 0
    (0.0, bk.box([0.5], [3.0]), 0.5),
    (0.0, bk.box([-2.0], [-1.0]), -1.0),
    (1.0, bk.nonneg(1), 0.0),
    (0.0, bk.all_space(1), 0.0),
])
def test_quadratic_scalar_solve_without_curvature_takes_an_end(c0, cs, want):
    # g = x_1^2 + c0 x_0: block 0 has no curvature, so its slope c0 picks the end
    p = models.build_quadratic(np.diag([0.0, 1.0]), np.array([c0, 0.0]), block_sizes=[1, 1],
                               constraints=[cs, bk.all_space(1)])
    got = p.exact_solver(0, np.array([0.7, -0.4]))
    assert got.tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("c0,cs", [(1.0, bk.all_space(1)), (-1.0, bk.all_space(1)),
                                   (-1.0, bk.nonneg(1)), (1.0, bk.box([-np.inf], [0.0]))])
def test_quadratic_scalar_solve_toward_an_infinite_end_is_unbounded(c0, cs):
    p = models.build_quadratic(np.diag([0.0, 1.0]), np.array([c0, 0.0]), block_sizes=[1, 1],
                               constraints=[cs, bk.all_space(1)])
    with pytest.raises(UnsupportedCombination, match="unbounded scalar quadratic subproblem"):
        p.exact_solver(0, np.array([0.7, -0.4]))


def test_lasso_scalar_step_keeps_prox_blocks_refusals():
    A, b, _ = models.gen_lasso(6, 2, 0.0, seed=4)
    p = models.build_lasso(A, b, 1.0, constraints=[bk.ball([0.0], 1.0)] * 2)
    x = np.zeros(2)
    with pytest.raises(UnsupportedCombination, match="l1 prox with 'ball'"):
        p.exact_solver(0, x)
    # without the l1 term a ball is a plain projection, as prox_block makes it
    p0 = models.build_lasso(A, 10.0 * b, 0.0, constraints=[bk.ball([0.0], 1.0)] * 2)
    assert abs(p0.exact_solver(0, x)[0]) == 1.0


# the config values whose kind a library function checks, and which one:
# make_schedule, period_map_slots and check_block_kinds
LIBRARY_CHECKED = {"rule", "period_map", "surrogate_kinds"}


def test_every_config_key_has_one_declared_kind():
    keys = {f.name for f in fields(cli.ExperimentSpec)} - {"runs"}
    keys |= {f.name for f in fields(cli.RunConfig)} - {"model"}  # model is a section
    keys |= {"family", "seed"}
    for family in models.FAMILIES.values():
        keys |= family.gen_keys | family.build_keys | family.file_keys
    assert set(cli.LIBRARY_CHECKED) == LIBRARY_CHECKED
    assert not LIBRARY_CHECKED & set(cli.KINDS)
    assert keys - LIBRARY_CHECKED == set(cli.KINDS)  # none missing, none unused


def test_numeric_model_fields_take_numpy_integers_and_no_bools():
    cli.check_kinds({"m": np.int64(3), "sizes": [np.int32(2)], "lam": np.int8(1)},
                    "model field ")
    for params in ({"m": True}, {"sizes": [2, False]}, {"lam": True}, {"m": 3.0}):
        with pytest.raises(ValueError, match="model field"):
            cli.check_kinds(params, "model field ")


# The scan over every piece that the sorted search below replaced, verbatim
# but for the quadratic shift it took.
# piecewise_quadratic_min's objective must stay within rounding of its result.
def scan_piecewise_quadratic_min(
    c: Array,
    d: Array,
    lam: float = 0.0,
    lo: float = -np.inf,
    hi: float = np.inf,
) -> float:
    """Minimize sum_i max(0, c_i - d_i t)^2 + lam|t| over [lo, hi].

    The objective is convex piecewise quadratic; every piece is minimized in
    closed form between breakpoints and the best candidate wins.  Ties break
    toward the smallest |t|, then the smallest t, for deterministic traces.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)

    knots = []
    nz = d != 0.0
    if np.any(nz):
        knots.extend((c[nz] / d[nz]).tolist())
    if lam > 0.0:
        knots.append(0.0)
    knots = [t for t in knots if lo < t < hi]
    knots = np.unique(np.asarray(knots, dtype=float)) if knots else np.empty(0)

    cands = list(knots)
    if np.isfinite(lo):
        cands.append(lo)
    if np.isfinite(hi):
        cands.append(hi)

    edges = np.concatenate(([lo], knots, [hi]))
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        if not a < b:
            continue
        if np.isfinite(a) and np.isfinite(b):
            mid = 0.5 * (a + b)
        elif np.isfinite(a):
            mid = a + 1.0
        elif np.isfinite(b):
            mid = b - 1.0
        else:
            mid = 0.0
        act = (c - d * mid) > 0.0
        sgn = 0.0 if lam == 0.0 else float(np.sign(mid))
        quad = 2.0 * float(np.sum(d[act] ** 2))
        cross = 2.0 * float(np.sum(c[act] * d[act]))
        if quad > 0.0:
            cands.append(min(max((cross - lam * sgn) / quad, a), b))
        else:
            slope = lam * sgn - cross
            if slope > 0.0 and np.isfinite(a):
                cands.append(a)
            elif slope < 0.0 and np.isfinite(b):
                cands.append(b)
            else:
                cands.append(min(max(0.0, a), b))

    ts = np.asarray(cands, dtype=float)
    ts = ts[np.isfinite(ts)]
    if ts.size == 0:
        return 0.0
    vals = np.sum(np.maximum(c[:, None] - d[:, None] * ts[None, :], 0.0) ** 2, axis=0)
    vals += lam * np.abs(ts)
    order = np.lexsort((ts, np.abs(ts), vals))
    return float(ts[order[0]])


# The sorted-breakpoint search that the warm-started search replaced, verbatim
# but for its names and the quadratic shift it took.  Where the minimizer is
# unique and off the breakpoints, and the breakpoints are not clustered, the
# search must return its bits.
def sorted_piece_candidate(c: Array, d: Array, lam: float, a: float, b: float) -> float:
    """Closed-form minimizer on the piece [a, b], from the rows active at its midpoint."""
    if np.isfinite(a) and np.isfinite(b):
        mid = 0.5 * (a + b)
    elif np.isfinite(a):
        mid = a + 1.0
    elif np.isfinite(b):
        mid = b - 1.0
    else:
        mid = 0.0
    act = (c - d * mid) > 0.0
    sgn = 0.0 if lam == 0.0 else float(np.sign(mid))
    quad = 2.0 * float(np.sum(d[act] ** 2))
    cross = 2.0 * float(np.sum(c[act] * d[act]))
    return models._interval_quadratic_min(quad, cross - lam * sgn, a, b)


def sorted_minimizing_piece(c: Array, d: Array, lam: float, knots: Array,
                            lo: float, hi: float) -> int:
    """Index of the piece where the objective's slope turns nonnegative.

    Piece p spans (edges[p], edges[p+1]) with edges = [lo, *knots, hi].  A row
    with d > 0 is active left of its knot, so on a prefix of the pieces; a row
    with d < 0 is active right of its knot, so on a suffix.  One suffix sum and
    one prefix sum give every piece's active sums of d^2 and c*d.
    """
    n_pieces = knots.size + 1
    pos, neg = d > 0.0, d < 0.0
    at_pos = c[pos] / d[pos]
    at_neg = c[neg] / d[neg]
    # pieces 0 .. ends-1 hold the d > 0 rows; pieces starts .. n_pieces-1 the d < 0 rows
    ends = np.searchsorted(knots, at_pos, side="right") + (at_pos >= hi)
    starts = np.searchsorted(knots, at_neg, side="left") + (at_neg > lo)

    def active_sums(w_pos: Array, w_neg: Array) -> Array:
        by_end = np.bincount(ends, weights=w_pos, minlength=n_pieces + 1)
        by_start = np.bincount(starts, weights=w_neg, minlength=n_pieces + 1)
        return np.cumsum(by_end[::-1])[::-1][1:] + np.cumsum(by_start)[:-1]

    quad = 2.0 * active_sums(d[pos] ** 2, d[neg] ** 2)
    cross = 2.0 * active_sums(c[pos] * d[pos], c[neg] * d[neg])
    # with lam > 0, zero is a knot or outside (lo, hi): each piece has one sign
    sgn = np.where(np.concatenate(([lo], knots)) >= 0.0, 1.0, -1.0)
    right_slope = quad[:-1] * knots - cross[:-1] + lam * sgn[:-1]
    turned = np.flatnonzero(right_slope >= 0.0)
    return int(turned[0]) if turned.size else n_pieces - 1


def sorted_piecewise_quadratic_min(
    c: Array,
    d: Array,
    lam: float = 0.0,
    lo: float = -np.inf,
    hi: float = np.inf,
) -> float:
    """Minimize sum_i max(0, c_i - d_i t)^2 + lam|t| over [lo, hi].

    The objective is convex piecewise quadratic between the breakpoints c_i/d_i
    (and 0 when lam > 0).  Sorted breakpoints and running sums find the first
    piece whose right-end slope is nonnegative; a minimizer lies on it, and
    its closed form is returned: O(m log m), exact up to first-order rounding.
    A flat set of minimizers (lam = 0) is one piece; the
    search stops on the piece before it, at its left breakpoint, unless that
    slope rounds below 0 or the set starts at lo: then its point nearest 0 wins.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if lo == hi:
        return float(lo)

    nz = d != 0.0
    knots = c[nz] / d[nz]
    if lam > 0.0:
        knots = np.append(knots, 0.0)
    knots = np.unique(knots[(lo < knots) & (knots < hi)])

    p = sorted_minimizing_piece(c, d, lam, knots, lo, hi)
    edges = np.concatenate(([lo], knots, [hi]))
    return float(sorted_piece_candidate(c, d, lam, edges[p], edges[p + 1]))


@st.composite
def scalar_problems(draw):
    """Squared-hinge rows c_i - d_i t with breakpoints on a 0.1 grid (so that
    breakpoints repeat and pieces go flat) or clustered a few rounding units
    apart, plus rows with d = 0, bounds, and a start: inside the
    range, at +-1e6, on a breakpoint, at 0 or at a bound.  Returns
    (c, d, kwargs, start, clustered)."""
    m = draw(st.integers(1, 40))
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=m, max_size=m)))
    if draw(st.booleans()) and draw(st.booleans()):
        signs[:] = 0.0  # no breakpoints at all
    size = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m)))
    offsets = np.array(draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m)))
    clustered = not draw(st.integers(0, 2))
    if not clustered:
        knots = offsets / 10.0
    else:  # all breakpoints within a few rounding units of 0.3
        knots = 0.3 + draw(st.sampled_from((1e-9, 1e-15))) * (offsets % 7 - 3)
    d = signs * size
    flat = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    c = np.where(d != 0.0, d * knots, flat)
    kwargs = {"lam": draw(st.sampled_from((0.0, 0.5, 3.0)))}
    bounds = draw(st.sampled_from(("none", "box", "lo", "hi")))
    edge = st.one_of(st.sampled_from(sorted(set(knots.tolist()))),
                     st.integers(-30, 30).map(lambda i: i / 10.0))
    if bounds == "box":
        ends = sorted({draw(edge), draw(edge)})
        if len(ends) == 2:
            kwargs["lo"], kwargs["hi"] = ends
    elif bounds != "none":
        kwargs[bounds] = draw(edge)
    ends = [kwargs[key] for key in ("lo", "hi") if key in kwargs]
    breakpoints = (c[d != 0.0] / d[d != 0.0]).tolist() + [0.0]
    start = draw(st.one_of(st.floats(kwargs.get("lo", -4.0), kwargs.get("hi", 4.0)),
                           st.sampled_from((-1e6, 1e6, 0.0)), st.sampled_from(breakpoints),
                           *([st.sampled_from(ends)] if ends else [])))
    return c, d, kwargs, start, clustered


def scalar_objective(c, d, t, lam=0.0, lo=-np.inf, hi=np.inf):
    """The objective piecewise_quadratic_min minimizes, evaluated as the scan scores it;
    lo and hi are taken so that a problem's keyword arguments pass through."""
    return float(np.sum(np.maximum(c - d * t, 0.0) ** 2)) + lam * abs(t)


def scalar_rounding_bound(c, d, size, lam=0.0, lo=-np.inf, hi=np.inf):
    """First-order rounding bound of scalar_objective at |t| <= size;
    (|c_i| + |d_i t|)^2 <= 2 c_i^2 + 2 d_i^2 t^2 bounds each row's scale."""
    return (c.size + 8) * np.finfo(float).eps * (
        2.0 * (float(c @ c) + float(d @ d) * size**2) + lam * size)


def has_flat_minimizers(c, d, lam=0.0, lo=-np.inf, hi=np.inf):
    """Whether the minimizers fill an interval: with lam = 0, every t in
    [lo, hi] at which each row with d != 0 is inactive minimizes."""
    if lam > 0.0:
        return False
    left = max([lo] + (c[d > 0.0] / d[d > 0.0]).tolist())
    right = min([hi] + (c[d < 0.0] / d[d < 0.0]).tolist())
    return left < right


@settings(max_examples=400)
@given(problem=scalar_problems())
def test_piecewise_quadratic_min_matches_the_full_scan_up_to_rounding(problem):
    c, d, kwargs, start, clustered = problem
    got = models.piecewise_quadratic_min(c, d, start=start, **kwargs)
    want = scan_piecewise_quadratic_min(c, d, **kwargs)
    assert math.isfinite(got)
    assert kwargs.get("lo", -np.inf) <= got <= kwargs.get("hi", np.inf)
    bound = scalar_rounding_bound(c, d, max(abs(got), abs(want)), **kwargs)
    assert scalar_objective(c, d, got, **kwargs) <= scalar_objective(c, d, want, **kwargs) + bound
    # a minimizer on a breakpoint c_i/d_i, where the objective is smooth,
    # ties the pieces on either side: each search may settle on either one
    ref = sorted_piecewise_quadratic_min(c, d, **kwargs)
    nz = d != 0.0
    tie = bool(np.any(np.abs(c[nz] / d[nz] - ref) <= 1e-9 * (1.0 + abs(ref))))
    if not (clustered or tie or has_flat_minimizers(c, d, **kwargs)):
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


def test_reweighting_l1_step_is_the_soft_threshold():
    # one term |x - 2| smoothed with eta = 1; anchored at 0 its weight is
    # sqrt(5), and the bound plus 0.5|x| is minimized at 2 - 0.5 sqrt(5)
    p = models.build_irls([np.eye(1)], [np.array([-2.0])], 1.0, l1_weight=0.5)
    step = bk.make_surrogate(p, "model-custom").argmin(0, np.zeros(1))
    assert step[0] == pytest.approx(2.0 - 0.5 * np.sqrt(5.0), abs=1e-12)


def test_reweighting_examples():
    A = [np.array([[1.0]])]
    b = [np.array([0.0])]
    p = models.build_irls(A, b, 1.0)
    s = bk.make_surrogate(p, "model-custom")
    x0 = np.zeros(1)
    assert bk.eval_objective(p, x0) == pytest.approx(1.0)
    assert s.value(0, x0, x0) == pytest.approx(1.0)
    # anchored at 1: ((x^2 + 1)/sqrt(2) + sqrt(2)) / 2, tight at x = 1
    anchor = np.ones(1)
    got = s.value(0, np.array([0.5]), anchor)
    want = ((0.25 + 1.0) / np.sqrt(2.0) + np.sqrt(2.0)) / 2.0
    assert got == pytest.approx(want)
    assert s.value(0, anchor, anchor) == pytest.approx(np.sqrt(2.0))
    assert got >= np.sqrt(0.25 + 1.0)

    p2 = models.build_irls(A, b, 0.5)
    assert p2.smooth.lipschitz == pytest.approx(2.0)


def test_reweighting_bound_never_violated_100_points():
    mats, offs = models.gen_fermat_weber(10, 5, seed=200)
    p = models.build_irls(mats, offs, 0.1)
    s = bk.make_surrogate(p, "model-custom")
    rng = np.random.default_rng(9)
    for _ in range(100):
        anchor = rng.standard_normal(5) * 2.0
        v = rng.standard_normal(5) * 2.0
        assert s.value(0, v, anchor) >= p.smooth.value(v) - 1e-10


def test_irls_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        models.build_irls([np.eye(2)], [np.zeros(2)], 0.0)


@pytest.mark.parametrize("build", [
    lambda: models.build_lasso(np.eye(2), np.ones(2), -0.5),
    lambda: models.build_logistic(np.eye(2), np.ones(2), -0.5),
    lambda: models.build_l2svm(np.eye(2), l1_weight=-1.0),
    lambda: models.build_irls([np.eye(2)], [np.zeros(2)], 0.1, l1_weight=-1.0),
], ids=["lasso", "logistic", "l2svm", "irls"])
def test_negative_l1_weights_are_rejected(build):
    with pytest.raises(ValueError, match="l1 weight must be nonnegative"):
        build()


@st.composite
def linear_models(draw):
    """A lasso, group lasso, logistic or l2svm model of random shape and block
    sizes, with its data matrix, block sizes and loss curvature."""
    family = draw(st.sampled_from(["lasso", "group-lasso", "logistic", "l2svm"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    m = draw(st.integers(1, 12))
    A = rng.standard_normal((m, sum(sizes)))
    if family == "lasso":
        p = models.build_lasso(A, rng.standard_normal(m), 0.5, block_sizes=sizes)
    elif family == "group-lasso":
        p = models.build_group_lasso(np.hsplit(A, np.cumsum(sizes)[:-1]),
                                     rng.standard_normal(m), 0.3)
    elif family == "logistic":
        p = models.build_logistic(A, rng.choice([-1.0, 1.0], m), 0.3, block_sizes=sizes)
    else:
        p = models.build_l2svm(A, block_sizes=sizes)
    return p, A, sizes, {"logistic": 0.25}.get(family, 2.0)


@given(case=linear_models(), seed=st.integers(0, 2**16))
def test_declared_constants_are_the_loss_curvature_times_the_gram_spectrum(case, seed):
    p, A, sizes, c = case
    # phi'' <= c, so grad g = A^T phi'(Ax - b) is c lambda_max(A^T A)-Lipschitz
    # (the logistic labels y_i = +-1 leave A^T A as it is)
    want = c * np.linalg.eigvalsh(A.T @ A)[-1]
    assert p.smooth.lipschitz == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert bk.check_nesterov_inequality(p, seed=seed).passed
    rng = np.random.default_rng(seed)
    for k, sl in enumerate(map(p.partition.block_slice, range(p.n_blocks))):
        Ak = A[:, sl]
        mk = c * np.linalg.eigvalsh(Ak.T @ Ak)[-1]
        assert p.smooth.block_lipschitz[k] == pytest.approx(mk, rel=1e-12, abs=1e-12)
        x = rng.standard_normal(p.dim) * 3.0
        v = x.copy()
        v[sl] += rng.standard_normal(sizes[k])
        moved = np.linalg.norm(bk.block_gradient(p, k, x) - bk.block_gradient(p, k, v))
        assert moved <= p.smooth.block_lipschitz[k] * np.linalg.norm(x - v) * (1 + 1e-12) + 1e-12
        if p.smooth.block_curvature is not None:  # squares: a lower curvature bound too
            lin = p.smooth.value(v) - p.smooth.value(x) - p.smooth.grad(x) @ (v - x)
            assert lin >= 0.5 * p.smooth.block_curvature[k] * float((v - x) @ (v - x)) - 1e-9


def test_composite_constants_consistency():
    mats, b, w = models.gen_group_lasso(12, [4, 4, 4], 0.3, seed=41, deficient=[2])
    p = models.build_group_lasso(mats, b, w)
    K = 3
    cert = bk.RateCertificate(
        gamma=0.0, l_max=None, g_max=None, big_m=p.smooth.lipschitz,
        m_max=p.smooth.max_block_lipschitz, radius=1.5, grad_bound=1.0, l_h=0.0,
        q=1.0, period=1, f_star=0.0, f_first=1.0)
    sigma, c, offset = bk.sigma_for("composite-gs", cert, K, problem=p)
    # ||.||^2 has modulus 2 and cross constant 2 sqrt(K - 1) over the maps A_k
    modulus, cross = 2.0, 2.0 * np.sqrt(K - 1.0)
    worst = max(np.linalg.norm(Ak @ Ak.T, 2) * cross**2 for Ak in mats)
    want = modulus / (2.0 * K * cert.radius**2 * worst)
    assert sigma == pytest.approx(want, rel=1e-12)
    assert offset == 0 and c == max(4.0 * sigma - 2.0, cert.f_first - cert.f_star, 2.0)
    # the cross constant is attained: equal moves in the other blocks
    rng = np.random.default_rng(2)
    y = [rng.standard_normal(12) for _ in range(K)]

    def grad_k(yk, others):
        return 2.0 * (yk + sum(others) - b)

    delta = rng.standard_normal(12)
    moved = [y[1] + delta, y[2] + delta]
    lhs = np.linalg.norm(grad_k(y[0], [y[1], y[2]]) - grad_k(y[0], moved))
    rhs = 2.0 * np.sqrt(2.0) * np.linalg.norm(np.concatenate([delta, delta]))
    assert lhs <= rhs + 1e-9


def test_two_block_generator_properties():
    Q, c, sizes = models.gen_two_block_quadratic(6, 8, seed=1, zero_eigs=2)
    evals = np.linalg.eigvalsh(Q)
    assert evals[0] >= -1e-10
    inner = np.linalg.eigvalsh(Q[:6, :6])
    outer = np.linalg.eigvalsh(Q[6:, 6:])
    assert inner[0] > 1e-8  # unique inner solves
    assert outer[0] <= 1e-10  # singular outer block
    # minimum is attained: the linear term lies in the range of Q
    x, *_ = np.linalg.lstsq(2 * Q, -c, rcond=None)
    assert np.linalg.norm(2 * Q @ x + c) <= 1e-8


def test_lasso_density_keeps_columns_nonzero():
    A, b, lam = models.gen_lasso(10, 30, 1.0, seed=5, density=0.1)
    assert np.all(np.sum(A != 0, axis=0) >= 1)


def test_matrix_io_round_trip(tmp_path):
    M = np.random.default_rng(0).standard_normal((7, 3))
    path = tmp_path / "mat.txt"
    path.write_text(models.matrix_text(M), encoding="utf-8")
    back = models.read_matrix(path)
    assert np.array_equal(back, M)  # 17 significant digits round-trip

    with open(tmp_path / "bad.txt", "w") as fh:
        fh.write("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        models.read_matrix(tmp_path / "bad.txt")


@pytest.mark.parametrize("text,where", [
    ("2 x\n1 2\n3 4\n", "line 1, token 2: 'x' is not a nonnegative integer"),
    ("2.0 2\n1 2\n3 4\n", "line 1, token 1: '2.0' is not a nonnegative integer"),
    ("-2 2\n1 2\n3 4\n", "line 1, token 1: '-2' is not a nonnegative integer"),
    ("2 2\n1 2\n3 abc\n", "line 3, token 2: 'abc' is not a finite number"),
    ("2 2\n1 nan\n3 4\n", "line 2, token 2: 'nan' is not a finite number"),
    ("2 2\n1 2\n-inf 4\n", "line 3, token 1: '-inf' is not a finite number"),
    ("2 2\n1 1e999\n3 4\n", "line 2, token 2: '1e999' is not a finite number"),
], ids=["header-word", "header-float", "header-negative", "word", "nan", "inf", "overflow"])
def test_malformed_matrix_files_name_the_path_the_place_and_the_token(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        models.read_matrix(path)
    assert str(err.value) == f"{path}: {where}"
