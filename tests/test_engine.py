"""Engine behavior: sweeps, anchoring, specializations, references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsumkit as bk
from bsumkit import cli, engine, models
from bsumkit.problem import UnsupportedCombination, linear_dual, squares_polish
from bsumkit.surrogate import BLOCK_KINDS

from conftest import MATRIX_MODELS, irls_step


def worked_two_block():
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    return models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])


def test_bcm_sweep_hand_example():
    p = worked_two_block()
    s = bk.make_surrogate(p, "exact")
    x1, step_sq, _ = bk.bsum_sweep(p, s, np.array([1.0, 1.0]), (0, 1))
    assert np.allclose(x1, [1.0, 0.5])
    assert step_sq == pytest.approx(0.25)
    assert bk.eval_objective(p, x1) == pytest.approx(0.5)
    x2, _, _ = bk.bsum_sweep(p, s, x1, (0, 1))
    assert np.allclose(x2, [0.5, 0.25])
    assert bk.eval_objective(p, x2) == pytest.approx(0.125)


def test_bcm_geometric_gap_pattern():
    p = worked_two_block()
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, x0=np.array([1.0, 1.0]), iterations=10)
    tr.attach_reference(np.zeros(2), 0.0)
    deltas = tr.deltas()
    for r in range(11):
        assert deltas[r] == pytest.approx(2.0 ** (1 - 2 * r) if r else 1.0)


def test_empty_selection_is_noop():
    p = worked_two_block()
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("essentially-cyclic", 2, period_map=[[0, 1], []])
    tr = bk.run_bsum(p, s, sch, x0=np.array([1.0, 1.0]), iterations=4)
    assert tr.records[2].step_sq == pytest.approx(0.0)
    assert np.array_equal(tr.iterates[1], tr.iterates[2])


def test_monotone_descent_all_rules_and_surrogates():
    A, b, lam = models.gen_lasso(12, 16, 0.8, seed=21)
    p = models.build_lasso(A, b, lam)
    schedules = [
        bk.make_schedule("gauss-seidel", 16),
        bk.make_schedule("essentially-cyclic", 16,
                         period_map=[list(range(8)), list(range(8, 16))]),
        bk.make_schedule("gauss-southwell", 16, q=0.9),
        bk.make_schedule("mbi", 16),
        bk.make_schedule("random-permutation", 16, seed=5),
    ]
    for kind in ("prox-linear", "exact"):
        s = bk.make_surrogate(p, kind)
        for sch_proto in schedules:
            sch = bk.make_schedule(
                sch_proto.rule, 16, period_map=sch_proto.period_map,
                q=sch_proto.q, seed=5,
            )
            tr = bk.run_bsum(p, s, sch, iterations=40)
            f = tr.fvals()
            assert np.all(f[1:] <= f[:-1] + 1e-12), (kind, sch.rule)


def test_anchor_discipline_instrumented():
    # the block-k subproblem must see exactly the blocks updated before it
    A, b, lam = models.gen_lasso(8, 6, 0.4, seed=2)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p, "prox-linear")
    sch = bk.make_schedule("gauss-seidel", 6)
    seen = []
    argmin = s.argmin

    def recorded(k, anchor, grad_k=None):
        seen.append((k, np.array(anchor)))
        return argmin(k, anchor, grad_k)

    s.argmin = recorded
    tr = bk.run_bsum(p, s, sch, iterations=3)
    assert len(seen) == 18
    for it in range(3):
        x_prev = tr.iterates[it]
        x_next = tr.iterates[it + 1]
        for j in range(6):
            k, w = seen[it * 6 + j]
            assert k == j
            np.testing.assert_array_equal(w[:j], x_next[:j])
            np.testing.assert_array_equal(w[j:], x_prev[j:])


def test_single_block_run_matches_generic_loop():
    mats, offs = models.gen_fermat_weber(6, 4, seed=8)
    p = models.build_irls(mats, offs, 0.2)
    s = bk.make_surrogate(p, "model-custom")
    tr_sum = bk.run_sum(p, s, iterations=30)
    sch = bk.make_schedule("gauss-seidel", 1)
    tr_gen = bk.run_bsum(p, s, sch, iterations=30)
    for a, b_ in zip(tr_sum.iterates, tr_gen.iterates):
        np.testing.assert_array_equal(a, b_)


def test_sum_exact_quadratic_converges_in_one_step():
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    p = models.build_quadratic(Q, np.array([1.0, -0.5]))
    s = bk.make_surrogate(p, "exact")
    tr = bk.run_sum(p, s, iterations=3)
    ref = bk.reference_solve(p)
    assert bk.eval_objective(p, tr.iterates[1]) == pytest.approx(ref.f, abs=1e-14)


def test_sum_prox_linear_gradient_step():
    p = models.build_quadratic(np.array([[1.0]]), np.zeros(1))  # g = x^2
    s = bk.make_surrogate(p, "prox-linear", lip=(2.0,))
    tr = bk.run_sum(p, s, x0=np.array([1.0]), iterations=1)
    assert tr.iterates[1][0] == pytest.approx(0.0)


def test_sum_reweighting_reproduces_classical_iteration():
    mats, offs = models.gen_fermat_weber(10, 5, seed=11)
    p = models.build_irls(mats, offs, 0.1)
    s = bk.make_surrogate(p, "model-custom")
    tr = bk.run_sum(p, s, iterations=50)
    x = bk.feasible_start(p)
    for j in range(1, 51):
        x = irls_step(mats, offs, 0.1, x)
        assert np.max(np.abs(x - tr.iterates[j])) <= 1e-10


def a2bsum_recursion(reduced, iterations, momentum=True):
    """Outer iterates of accelerated prox-gradient on the (unregularized)
    reduced function; momentum=False holds theta at 1, plain prox-gradient."""
    m = reduced.smooth.lipschitz
    x_prev = bk.feasible_start(reduced)
    w = x_prev.copy()
    out = []
    for r in range(1, iterations + 1):
        theta = 2.0 / (r + 1) if momentum else 1.0
        v = (1.0 - theta) * x_prev + theta * w
        x = v - reduced.smooth.grad(v) / m
        w = x_prev + (x - x_prev) / theta
        x_prev = x
        out.append(x)
    return out


def test_a2bsum_theta_and_momentum():
    Q, c, sizes = models.gen_two_block_quadratic(4, 5, seed=2)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    tr = bk.run_a2bsum(p, outer=1, inner=0, iterations=6)
    reduced = bk.reduce_two_block(p)
    sl = p.partition.block_slice(1)
    got = [x[sl] for x in tr.iterates[1:]]
    assert len(got) == 6
    for x, want in zip(got, a2bsum_recursion(reduced, 6)):
        assert np.array_equal(x, want)
    # theta_1 = 1 makes w_1 = x_1, so v_2 = x_1: the first two steps are
    # prox-gradient steps; from r = 3 on the momentum moves the iterate
    plain = a2bsum_recursion(reduced, 6, momentum=False)
    for r, (x, y) in enumerate(zip(got, plain), start=1):
        if r <= 2:
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)
        else:
            assert np.max(np.abs(x - y)) > 1e-3


def test_a2bsum_requires_two_blocks():
    Q, c = models.gen_quadratic([2, 2, 2], seed=3)
    p = models.build_quadratic(Q, c, block_sizes=[2, 2, 2])
    with pytest.raises(UnsupportedCombination):
        bk.run_a2bsum(p, outer=1, inner=0, iterations=5)


def test_a2bsum_warns_on_rank_deficient_inner():
    Q, c, sizes = models.gen_two_block_quadratic(4, 5, seed=4, zero_eigs=2)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    # deliberately treat the singular block as the inner one
    tr = bk.run_a2bsum(p, outer=0, inner=1, iterations=2)
    assert any("non-unique" in w for w in tr.meta["warnings"])


def test_a2bsum_warns_on_a_rank_deficient_group_lasso_inner_block():
    # uniqueness is read off the declared block curvature, for any model that declares it
    mats, b, w = models.gen_group_lasso(10, [4, 3], 0.3, seed=5, deficient=[0])
    p = models.build_group_lasso(mats, b, w)
    tr = bk.run_a2bsum(p, outer=1, inner=0, iterations=2)
    assert tr.meta["warnings"] == ["inner block minimizer may be non-unique"]
    assert bk.run_a2bsum(p, outer=0, inner=1, iterations=2).meta["warnings"] == []


def test_a2bsum_counts_inner_solves_that_hit_their_cap(monkeypatch):
    p = models.build_group_lasso(*models.gen_group_lasso(8, [2, 2], 0.3, seed=5))
    free = bk.run_a2bsum(p, outer=1, inner=0, iterations=5)
    assert free.meta["warnings"] == []
    monkeypatch.setattr(models, "SECULAR_MAX_ITER", 1)
    capped = bk.run_a2bsum(p, outer=1, inner=0, iterations=5)
    # one inner solve at the start, then two per iteration: the gradient's
    # and the recorded point's
    assert capped.meta["warnings"] == ["inner loop hit its cap: 11 times"]
    assert capped.fvals()[-1] > free.fvals()[-1]


def test_a2bsum_beats_plain_two_block():
    Q, c, sizes = models.gen_two_block_quadratic(6, 8, seed=3, zero_eigs=2)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    ref = bk.reference_solve(p)
    s = bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear"))
    sch = bk.make_schedule("gauss-seidel", 2)
    tr_plain = bk.run_bsum(p, s, sch, iterations=500)
    tr_acc = bk.run_a2bsum(p, outer=1, inner=0, iterations=500)
    tr_plain.attach_reference(ref.x, ref.f)
    tr_acc.attach_reference(ref.x, ref.f)
    acc_slope = bk.fit_decay_exponent(tr_acc, burn_in=19)
    plain_slope = bk.fit_decay_exponent(tr_plain, burn_in=19)
    assert acc_slope <= -1.8
    assert acc_slope < plain_slope
    assert tr_acc.deltas()[-1] <= 0.1 * tr_plain.deltas()[-1]


def test_two_block_reduction_equivalence():
    Q, c, sizes = models.gen_two_block_quadratic(5, 7, seed=6)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    s = bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear"))
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, iterations=60)
    red = bk.reduce_two_block(p, outer=1, inner=0)
    s_red = bk.make_surrogate(red, "prox-linear", lip=(p.smooth.block_lipschitz[1],))
    tr_red = bk.run_sum(red, s_red, iterations=60)
    sl = p.partition.block_slice(1)
    for j in range(61):
        assert np.max(np.abs(tr.iterates[j][sl] - tr_red.iterates[j])) <= 1e-10


def test_permutation_rule_preserves_descent():
    mats, b, w = models.gen_group_lasso(12, [4, 4, 4], 0.2, seed=7, deficient=[0])
    p = models.build_group_lasso(mats, b, w)
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("random-permutation", 3, seed=11)
    tr = bk.run_bsum(p, s, sch, iterations=60)
    f = tr.fvals()
    assert np.all(f[1:] <= f[:-1] + 1e-12)


def test_reference_reports_budget_exhaustion():
    A, b, lam = models.gen_lasso(10, 12, 0.5, seed=9)
    p = models.build_lasso(A, b, lam)
    ref = bk.reference_solve(p, max_sweeps=3)
    assert not ref.converged
    assert ref.sweeps == 3
    assert ref.last_change >= 0.0


def test_reference_stops_at_a_non_finite_objective(monkeypatch):
    A, b, lam = models.gen_lasso(10, 12, 0.5, seed=9)
    bad_b = b.copy()
    bad_b[0] = np.nan
    ref = bk.reference_solve(models.build_lasso(A, bad_b, lam))
    assert not ref.converged and ref.sweeps == 0
    closed_form = bk.reference_solve(models.build_quadratic(np.eye(2), np.array([np.nan, 0.0])))
    assert not closed_form.converged

    # an objective that turns NaN at the fourth sweep ends the solve there
    evaluate, calls = engine.eval_objective, []

    def nan_after_three_sweeps(problem, x):
        calls.append(1)
        return np.nan if len(calls) > 4 else evaluate(problem, x)

    monkeypatch.setattr(engine, "eval_objective", nan_after_three_sweeps)
    ref = bk.reference_solve(models.build_lasso(A, b, lam))
    assert not ref.converged and ref.sweeps == 4 and np.isfinite(ref.f)


@pytest.mark.parametrize("problem, has_dual", [
    (lambda: models.build_lasso(*models.gen_lasso(30, 12, 1.0, seed=6)), True),
    (lambda: models.build_group_lasso(*models.gen_group_lasso(12, [3, 3, 2], 0.4, seed=5)),
     True),
    (lambda: models.build_l2svm(models.gen_l2svm(20, 4, seed=4)), True),
    (lambda: models.build_logistic(*models.gen_logistic(30, 6, 0.5, seed=3)), False),
])
def test_reference_sweeps_count_bsum_sweep_calls(monkeypatch, problem, has_dual):
    # extrapolations are not sweeps: the benchmark reads bsum_sweep calls as
    # run iterations plus reference sweeps
    sweep, calls = engine.bsum_sweep, []

    def counted(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(engine, "bsum_sweep", counted)
    ref = bk.reference_solve(problem())
    assert ref.converged and ref.sweeps == len(calls) > 0
    assert (ref.gap is not None) == has_dual
    calls.clear()
    capped = bk.reference_solve(problem(), max_sweeps=3)
    assert capped.sweeps == len(calls) == 3


def test_a_rejected_extrapolation_leaves_the_iterate_and_objective(monkeypatch):
    A, b, lam = models.gen_lasso(30, 12, 1.0, seed=6)
    p = models.build_lasso(A, b, lam)
    monkeypatch.setattr(engine, "_anderson_point", lambda history: None)
    plain = bk.reference_solve(p)
    offered = []

    def worse(history):
        offered.append(1)
        return history[-1] + 1.0  # a point with a larger objective

    monkeypatch.setattr(engine, "_anderson_point", worse)
    ref = bk.reference_solve(p)
    # every candidate was refused, so the solve is the plain one, bit for bit
    assert offered and len(offered) == ref.sweeps // engine.ANDERSON_K
    assert ref.sweeps == plain.sweeps and ref.f == plain.f and ref.gap == plain.gap
    assert np.array_equal(ref.x, plain.x)


def test_the_reference_of_a_box_constrained_lasso_stays_feasible(monkeypatch):
    A, b, lam = models.gen_lasso(20, 10, 0.5, seed=3)
    p = models.build_lasso(A, b, lam, constraints=[bk.box([-0.2], [0.2])] * 10)
    anderson, outside = engine._anderson_point, []

    def spy(history):
        x = anderson(history)
        outside.append(x is not None and bool(np.any(np.abs(x) > 0.2)))
        return x

    monkeypatch.setattr(engine, "_anderson_point", spy)
    ref = bk.reference_solve(p)
    assert any(outside)  # some extrapolation left the box before its projection
    assert ref.converged and ref.gap is None  # no dual for constrained blocks
    assert np.all(np.abs(ref.x) <= 0.2) and np.any(np.abs(ref.x) == 0.2)


@pytest.mark.parametrize("box", [False, True])
def test_an_optimal_start_extrapolates_without_warnings(box):
    # lam >= 2 ||A^T b||_inf makes 0 the minimizer: every sweep stays at the
    # start, U = 0, and the extrapolation's system is singular
    A, b, _ = models.gen_lasso(8, 5, 1.0, seed=2)
    lam = 2.0 * float(np.max(np.abs(A.T @ b))) + 1.0
    cons = [bk.box([-1.0], [1.0])] * 5 if box else None
    p = models.build_lasso(A, b, lam, constraints=cons)
    assert engine._anderson_point([np.zeros(5)] * (engine.ANDERSON_K + 1)) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = bk.reference_solve(p)
    assert ref.converged and np.array_equal(ref.x, np.zeros(5))
    # the dual's gap stops at the first extrapolation point; the stall rule
    # needs its 50 sweeps
    assert ref.sweeps == (50 if box else engine.ANDERSON_K)
    assert ref.gap == (None if box else 0.0)


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3, 1e4])
def test_a_scaled_lasso_reference_converges_in_as_many_sweeps(scale):
    # f scales by scale^2; the stall threshold follows |f| and so fires
    # where an absolute 1e-12 lies below one ulp of f
    A, b, lam = models.gen_lasso(20, 50, 2.0, seed=101)
    unit = bk.reference_solve(models.build_lasso(A, b, lam))
    ref = bk.reference_solve(models.build_lasso(A, scale * b, scale * lam))
    assert ref.converged and ref.sweeps <= 2 * unit.sweeps
    assert abs(ref.f - scale**2 * unit.f) <= 1e-12 * scale**2 * unit.f
    # the gap stop fired: the gap sits within its rounding level, and the
    # stall rule would have needed STALL_SWEEPS sweeps
    assert ref.sweeps < engine.STALL_SWEEPS
    assert ref.gap <= max(engine.GAP_TOL, engine.GAP_ULPS * np.finfo(float).eps * ref.f)


def test_the_greedy_wide_reference_stops_on_its_duality_gap():
    # the polish on the identified support closes the gap within two
    # extrapolation points; plain extrapolated sweeps took 55 to 65
    for seed in (1, 2, 3):
        model = {"family": "lasso", "m": 300, "n": 150, "lam": 2.0, "seed": seed}
        ref = bk.reference_solve(cli.build_model(model, 1))
        assert ref.converged and ref.sweeps <= 10 and ref.polishes >= 1
        assert abs(ref.gap) <= engine.GAP_TOL


EXACT_TALL_GLASSO = {"family": "group-lasso", "m": 200, "sizes": [16] * 8, "weight": 0.4,
                     "deficient": [1]}


@pytest.mark.parametrize("model, most", [
    (dict(EXACT_TALL_GLASSO, seed=1), 10),
    (dict(EXACT_TALL_GLASSO, seed=2), 10),
    (MATRIX_MODELS["lasso"], 30),
    (MATRIX_MODELS["glasso"], 10),
], ids=["exact-tall-glasso-1", "exact-tall-glasso-2", "matrix-lasso", "matrix-glasso"])
def test_polished_references_close_their_gaps_in_few_sweeps(model, most):
    # sweep counts repeat exactly, so they guard the reference's cost where
    # timings cannot; without the polish these took 80, 85, 160 and 215
    ref = bk.reference_solve(cli.build_model(model, 1))
    # a Python bool, which report.json can hold; np.bool_ would not serialize
    assert ref.converged is True and ref.sweeps <= most and ref.polishes >= 1
    assert abs(ref.gap) <= 1e-12


def plain_sweeps_value(p, sweeps: int) -> float:
    """f after the given number of plain reference sweeps from the start.

    A sweep is a function of its start point, so once an iterate repeats the
    rest of the sequence cycles, and the point after the given count is read
    off the cycle instead of swept."""
    surrogate = engine._strongest_surrogate(p)
    blocks = tuple(range(p.n_blocks))
    x = bk.feasible_start(p)
    seen, points = {}, []
    while x.tobytes() not in seen and len(points) < sweeps:
        seen[x.tobytes()] = len(points)
        points.append(x)
        x, _, _ = bk.bsum_sweep(p, surrogate, x, blocks)
    if len(points) < sweeps:
        first = seen[x.tobytes()]
        x = points[first + (sweeps - first) % (len(points) - first)]
    return bk.eval_objective(p, x)


@st.composite
def squares_problems(draw):
    """A small random lasso (scalar blocks or one block) or group lasso, zero
    weights included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 8))
    weights = st.sampled_from([0.0, 0.1, 1.0, 5.0])
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        return models.build_group_lasso(
            [rng.standard_normal((m, s)) for s in sizes], 2.0 * rng.standard_normal(m),
            draw(st.lists(weights, min_size=len(sizes), max_size=len(sizes))))
    n = draw(st.integers(1, 5))
    return models.build_lasso(rng.standard_normal((m, n)), 2.0 * rng.standard_normal(m),
                              draw(weights), block_sizes=draw(st.sampled_from([None, [n]])))


@settings(max_examples=40, deadline=None)
@given(p=squares_problems())
def test_the_reference_gap_bounds_its_distance_to_a_long_solve(p):
    ref = bk.reference_solve(p)
    assert ref.converged
    # a dual point is projected onto A^T v = 0 when every weight is zero and
    # scaled into the weights' balls when every weight is positive; a mix of
    # the two gets none
    zero = [h.weight == 0.0 for h in p.nonsmooth]
    assert (ref.gap is None) == (any(zero) and not all(zero))
    if ref.gap is not None:
        assert ref.gap >= -1e-12
        assert ref.f - plain_sweeps_value(p, 20000) <= ref.gap + 1e-12


@st.composite
def svm_dual_cases(draw):
    """A small l2svm, its l1 weight zero or positive, and a random point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    rows = models.gen_l2svm(draw(st.integers(3 * n, 12)), n, seed=int(rng.integers(2**31)))
    p = models.build_l2svm(rows, l1_weight=draw(st.sampled_from([0.0, 0.1, 1.0])))
    return p, rng.standard_normal(n) * draw(st.sampled_from([0.1, 1.0, 10.0]))


@settings(max_examples=40, deadline=None)
@given(case=svm_dual_cases())
def test_the_svm_dual_value_is_a_lower_bound(case):
    # weak duality: every dual value lies below every primal value
    p, x = case
    dual = linear_dual(p)
    f_ref = bk.eval_objective(p, bk.reference_solve(p).x)
    assert dual(x) <= f_ref + 1e-9 * max(1.0, abs(f_ref))


def test_an_empty_svm_support_gives_a_zero_bound():
    # every margin above 1: u = phi'(Ax - b) = 0, and so is v
    p = models.build_l2svm(np.array([[1.0], [2.0]]))
    assert linear_dual(p)(np.array([5.0])) == 0.0


def test_a_rank_deficient_svm_support_gives_a_bound():
    rows = models.gen_l2svm(30, 3, seed=5)
    rows[:, 2] = rows[:, 0]  # a duplicated column: A_S^T A_S is singular
    p = models.build_l2svm(rows)
    ref = bk.reference_solve(p)
    lower = linear_dual(p)(ref.x)
    # at a minimizer the dual value meets f up to rounding
    assert np.isfinite(lower) and abs(ref.f - lower) <= engine.GAP_TOL
    assert ref.converged and abs(ref.gap) <= engine.GAP_TOL


def test_a_projection_that_leaves_the_conjugate_domain_gives_no_bound():
    # at x = 0 every residual is -1, u = (-2, -2), and its projection onto
    # A^T v = 0 for A = (1, 2)^T is (-0.8, 0.4): ell*(0.4) = +inf
    p = models.build_l2svm(np.array([[1.0], [2.0]]))
    assert linear_dual(p)(np.zeros(1)) == -np.inf


EXACT_TALL_SVM = {"family": "l2svm", "rows": 400, "n": 10}


@pytest.mark.parametrize("model, most", [
    (dict(EXACT_TALL_SVM, seed=1), 10),
    (dict(EXACT_TALL_SVM, seed=2), 10),
    (MATRIX_MODELS["svm"], 15),
], ids=["exact-tall-svm-1", "exact-tall-svm-2", "matrix-svm"])
def test_svm_references_close_their_gaps_in_few_sweeps(model, most):
    # sweep counts repeat exactly; on the stall rule alone these took 56, 55 and 59
    ref = bk.reference_solve(cli.build_model(model, 1))
    eps = np.finfo(float).eps
    assert ref.converged is True and ref.sweeps <= most
    assert abs(ref.gap) <= max(engine.GAP_TOL, engine.GAP_ULPS * eps * abs(ref.f))


@st.composite
def polish_cases(draw):
    """A small lasso or group lasso with positive weights, some drawn
    degenerate, and a point to polish: random, or a few reference sweeps in.

    Degenerate draws duplicate the first column of A into the last, or put
    the lasso weight exactly at 2 max |A^T b|, the threshold at which the
    minimizer is 0 with a coefficient at its threshold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 8))
    degenerate = draw(st.sampled_from([None, "duplicate", "threshold"]))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        mats = [rng.standard_normal((m, s)) for s in sizes]
        if degenerate == "duplicate":
            mats[-1][:, -1] = mats[0][:, 0]
        p = models.build_group_lasso(mats, 2.0 * rng.standard_normal(m),
                                     draw(st.lists(st.sampled_from([0.1, 1.0, 5.0]),
                                                   min_size=len(sizes), max_size=len(sizes))))
    else:
        n = draw(st.integers(1, 5))
        A, b = rng.standard_normal((m, n)), 2.0 * rng.standard_normal(m)
        lam = draw(st.sampled_from([0.1, 1.0, 5.0]))
        if degenerate == "duplicate":
            A[:, -1] = A[:, 0]
        elif degenerate == "threshold":
            lam = 2.0 * float(np.max(np.abs(A.T @ b)))
        p = models.build_lasso(A, b, lam, block_sizes=draw(st.sampled_from([None, [n]])))
    if draw(st.booleans()):
        x = rng.standard_normal(p.dim) * rng.integers(0, 2, p.dim)
    else:
        surrogate = engine._strongest_surrogate(p)
        x = bk.feasible_start(p)
        for _ in range(draw(st.integers(1, 12))):
            x, _, _ = bk.bsum_sweep(p, surrogate, x, tuple(range(p.n_blocks)))
    return p, x


@settings(max_examples=300, deadline=None)
@given(case=polish_cases())
def test_the_polish_never_raises_f_nor_flips_a_sign(case):
    p, x = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cand = squares_polish(p)(x)
    if cand is None:
        return
    assert bk.eval_objective(p, cand) <= bk.eval_objective(p, x)
    # the candidate lies on x's support: l1 coordinates keep their sign or
    # drop to 0, and a group that is 0 stays 0
    l1 = p.layout.l1_weight > 0.0
    assert np.all((cand[l1] == 0.0) | (np.sign(cand[l1]) == np.sign(x[l1])))
    for k in range(p.n_blocks):
        sl = p.partition.block_slice(k)
        if p.nonsmooth[k].kind == "group-l2" and not x[sl].any():
            assert not cand[sl].any()


def test_the_polish_rejects_a_degenerate_support():
    A, b, lam = models.gen_lasso(10, 4, 0.5, seed=3)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    assert squares_polish(models.build_lasso(A, b, lam))(x) is not None
    # a duplicated column in the support makes the Newton system singular
    A[:, 3] = A[:, 0]
    assert squares_polish(models.build_lasso(A, b, lam))(x) is None
    # an empty support has nothing to polish, and without a dual nothing is
    # polished
    assert squares_polish(models.build_lasso(A, b, lam))(np.zeros(4)) is None
    assert squares_polish(models.build_lasso(A, b, 0.0)) is None
    boxed = models.build_lasso(A, b, lam, constraints=[bk.box([-1.0], [1.0])] * 4)
    assert squares_polish(boxed) is None and linear_dual(boxed) is None


def test_run_config_validation():
    p = worked_two_block()
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    with pytest.raises(ValueError):
        bk.run_bsum(p, s, sch, iterations=0)
    with pytest.raises(ValueError):
        bk.run_bsum(p, s, sch, iterations=5, tol=-1.0)


def test_gap_tolerance_stops_early_when_reference_known():
    p = worked_two_block()
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, x0=np.array([1.0, 1.0]), iterations=500,
                     tol=1e-6, f_star=0.0)
    assert tr.n_iterations < 500
    assert tr.records[-1].f <= 1e-6


@st.composite
def exact_sweeps(draw):
    """A random lasso or group lasso, a mixed surrogate, a random start and a
    block order with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        weights = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 5.0]),
                                min_size=len(sizes), max_size=len(sizes)))
        p = models.build_group_lasso([rng.standard_normal((m, s)) for s in sizes],
                                     2.0 * rng.standard_normal(m), weights)
    else:
        n = draw(st.integers(1, 6))
        p = models.build_lasso(rng.standard_normal((m, n)), 2.0 * rng.standard_normal(m),
                               draw(st.sampled_from([0.0, 0.1, 1.0, 5.0])))
    K = p.n_blocks
    # half the cases are all-exact, which every sweep hands to the model
    kinds = draw(st.just(["exact"] * K) | st.lists(st.sampled_from(BLOCK_KINDS),
                                                   min_size=K, max_size=K))
    surrogate = bk.make_surrogate(p, "mixed", kinds=kinds)
    blocks = tuple(draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=3 * K)))
    return p, surrogate, 2.0 * rng.standard_normal(p.dim), blocks, draw(st.booleans())


def close(got, want) -> bool:
    return bool(np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))))


@settings(max_examples=200, deadline=None)
@given(case=exact_sweeps())
def test_exact_sweep_matches_rebuilt_solves(case):
    p, surrogate, x0, blocks, record_grads = case
    solve = p.exact_solver
    calls = []

    def counted(k, x, **kwargs):
        calls.append(k)
        return solve(k, x, **kwargs)

    p.exact_solver = counted
    x1, _, grad_stat = bk.bsum_sweep(p, surrogate, x0, blocks, record_grads=record_grads)
    p.exact_solver = solve
    exact = [surrogate.kinds[k] == "exact" for k in blocks]
    # an all-exact sweep is the model's own loop; any other runs block by block
    assert calls == ([] if all(exact) else [k for k, e in zip(blocks, exact) if e])

    w = x0.copy()
    g_prev = p.smooth.grad(w)
    want = 0.0
    for k, e in zip(blocks, exact):
        w[p.partition.block_slice(k)] = solve(k, w) if e else surrogate.argmin(k, w)
        g_now = p.smooth.grad(w)
        want += float((g_now - g_prev) @ (g_now - g_prev))
        g_prev = g_now
    assert close(x1, w)
    if record_grads:
        assert abs(grad_stat - want) <= 1e-9 * want
    else:
        assert grad_stat is None


@st.composite
def rank_deficient_group_sweeps(draw):
    """A group lasso of blocks of 1 to 16 columns, m >= size rows, some blocks
    with duplicated columns; per block a weight of 0, a tiny one, or one at
    least ||z|| at the start, so that the block's first solve returns 0; a
    random start and a block order with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    # two rows beyond the widest block keep the distinct columns well conditioned
    m = max(sizes) + draw(st.integers(2, 8))
    mats = []
    for s in sizes:
        distinct = draw(st.integers(1, s))
        cols = rng.standard_normal((m, distinct))
        mats.append(cols[:, np.concatenate((np.arange(distinct),
                                            rng.integers(0, distinct, s - distinct)))])
    b = 2.0 * rng.standard_normal(m)
    x0 = 2.0 * rng.standard_normal(sum(sizes))
    resid = b - np.hstack(mats) @ x0
    weights = []
    for Ak, xk in zip(mats, np.split(x0, np.cumsum(sizes)[:-1])):
        kind = draw(st.sampled_from(("zero", "tiny", "above")))
        znorm = float(np.linalg.norm(2.0 * Ak.T @ (resid + Ak @ xk)))
        weights.append({"zero": 0.0, "tiny": 1e-12,
                        "above": draw(st.floats(1.0, 3.0)) * znorm}[kind])
    p = models.build_group_lasso(mats, b, weights)
    K = p.n_blocks
    blocks = tuple(draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=3 * K)))
    return p, x0, blocks, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=rank_deficient_group_sweeps())
def test_eigenbasis_sweep_on_rank_deficient_blocks_matches_per_block_solves(case):
    p, x0, blocks, record_grads = case
    surrogate = bk.make_surrogate(p, "exact")
    x1, _, grad_stat = bk.bsum_sweep(p, surrogate, x0, blocks, record_grads=record_grads)
    w = x0.copy()
    g_prev = p.smooth.grad(w)
    want = 0.0
    for k in blocks:
        w[p.partition.block_slice(k)] = p.exact_solver(k, w)
        g_now = p.smooth.grad(w)
        want += float((g_now - g_prev) @ (g_now - g_prev))
        g_prev = g_now
    assert close(x1, w)
    # a block the sweep did not visit keeps its bits
    for k in set(range(p.n_blocks)).difference(blocks):
        sl = p.partition.block_slice(k)
        assert np.array_equal(x1[sl], x0[sl])
    if record_grads:
        assert abs(grad_stat - want) <= 1e-9 * want
    else:
        assert grad_stat is None
