"""Engine behavior: sweeps, anchoring, specializations, references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsumkit as bk
from bsumkit import engine, models
from bsumkit.problem import UnsupportedCombination, project_feasible
from bsumkit.surrogate import BLOCK_KINDS

from conftest import irls_step


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
    tr = bk.run_bsum(p, s, sch, iterations=3,
                     on_block_update=lambda k, w: seen.append((k, w)))
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


def test_auxiliary_step_descent_chain():
    # f(x_r) - f(x_{r+1}) >= (gamma/2) ||aux - x_r||^2 with gamma = 4L
    mats, offs = models.gen_fermat_weber(8, 4, seed=13)
    p = models.build_irls(mats, offs, 0.2)
    s = bk.make_surrogate(p, "model-custom")
    tr = bk.run_sum(p, s, iterations=40, compute_auxiliary=True)
    gamma = 4.0 * s.l_max
    f = tr.fvals()
    for j in range(1, 41):
        assert tr.records[j].aux_step_sq is not None
        drop = f[j - 1] - f[j]
        assert drop >= 0.5 * gamma * tr.records[j].aux_step_sq - 1e-9


def test_a2bsum_theta_and_momentum():
    Q, c, sizes = models.gen_two_block_quadratic(4, 5, seed=2)
    p = models.build_quadratic(Q, c, block_sizes=list(sizes))
    tr = bk.run_a2bsum(p, outer=1, inner=0, iterations=3)
    thetas = [st.theta for st in tr.acc_states]
    assert thetas == pytest.approx([1.0, 2.0 / 3.0, 0.5])
    # at theta = 1 the momentum point coincides with the fresh iterate
    sl = p.partition.block_slice(1)
    np.testing.assert_allclose(tr.acc_states[0].w1, tr.iterates[1][sl])


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


def random_scalar_set(kind: str, rng):
    if kind == "box":
        return bk.box([-rng.uniform(0.0, 2.0)], [rng.uniform(0.0, 2.0)])
    return bk.nonneg(1) if kind == "nonneg" else bk.all_space(1)


@st.composite
def carried_sweeps(draw):
    """A random lasso, group lasso or l2svm, an exact or mixed surrogate with at
    least one exact block, a feasible start and a block order with repeats."""
    family = draw(st.sampled_from(["lasso", "group-lasso", "l2svm"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "group-lasso":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        m = draw(st.integers(1, 12))
        weights = draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 5.0]),
                                min_size=len(sizes), max_size=len(sizes)))
        p = models.build_group_lasso([rng.standard_normal((m, s)) for s in sizes],
                                     2.0 * rng.standard_normal(m), weights)
    else:
        n = draw(st.integers(1, 6))
        kinds = draw(st.lists(st.sampled_from(["all-space", "box", "nonneg"]),
                              min_size=n, max_size=n))
        cons = [random_scalar_set(kind, rng) for kind in kinds]
        if family == "lasso":
            m = draw(st.integers(1, 12))
            p = models.build_lasso(rng.standard_normal((m, n)), 2.0 * rng.standard_normal(m),
                                   draw(st.sampled_from([0.0, 0.1, 1.0, 5.0])),
                                   constraints=cons)
        else:
            # with an l1 weight the block minimizer is unique even where the
            # squared hinge is flat along a coordinate
            m = draw(st.integers(3 * n, 3 * n + 10))
            p = models.build_l2svm(models.gen_l2svm(m, n, int(rng.integers(2**31))),
                                   l1_weight=draw(st.sampled_from([0.1, 1.0])),
                                   constraints=cons)
    K = p.n_blocks
    block_kinds = draw(st.lists(st.sampled_from(BLOCK_KINDS), min_size=K, max_size=K)
                       .filter(lambda ks: "exact" in ks))
    surrogate = bk.make_surrogate(p, "mixed", kinds=block_kinds)
    blocks = tuple(draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=3 * K)))
    x0 = project_feasible(p, 2.0 * rng.standard_normal(p.dim))
    return p, surrogate, x0, blocks


def close(got, want) -> bool:
    return bool(np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want))))


@settings(max_examples=150, deadline=None)
@given(case=carried_sweeps())
def test_carried_residual_sweep_matches_rebuilt_solves(case):
    p, surrogate, x0, blocks = case
    A, b = p.smooth.linear.A, p.smooth.linear.b
    solve = p.exact_solver
    seen = []

    def recording(k, x, shift=None, resid=None):
        seen.append((x.copy(), resid.copy()))
        return solve(k, x, shift, resid=resid)

    # a final exact solve reads the residual the listed blocks leave behind
    order = blocks + (surrogate.kinds.index("exact"),)
    p.exact_solver = recording
    x1, _, _ = bk.bsum_sweep(p, surrogate, x0, order)
    p.exact_solver = solve

    w = x0.copy()
    for k in order:
        exact = surrogate.kinds[k] == "exact"
        w[p.partition.block_slice(k)] = solve(k, w) if exact else surrogate.argmin(k, w)
    assert close(x1, w)
    assert len(seen) == sum(surrogate.kinds[k] == "exact" for k in order)
    for anchor, resid in seen:
        assert close(resid, A @ anchor - b)
