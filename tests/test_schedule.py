"""Selection rules, coverage invariants, and the virtual update."""

import tracemalloc

import numpy as np
import pytest

import bsumkit as bk
from bsumkit import models
from bsumkit.schedule import MissingVirtualUpdate, VirtualUpdate


def _fake_virtual(norms, objectives=None):
    k = len(norms)
    return VirtualUpdate(
        anchor=np.zeros(k), x_hat=np.zeros(k),
        step_norms=np.asarray(norms, dtype=float),
        objectives=np.asarray(objectives if objectives is not None else norms, float),
    )


def test_gauss_seidel_fixed_order():
    sch = bk.make_schedule("gauss-seidel", 3)
    for r in range(5):
        assert sch.select(r) == (0, 1, 2)


def test_gauss_southwell_selects_threshold_block():
    sch = bk.make_schedule("gauss-southwell", 3, q=1.0)
    assert sch.select(0, _fake_virtual([0.5, 1.0, 0.3])) == (1,)


def test_gauss_southwell_smallest_qualifying_index():
    sch = bk.make_schedule("gauss-southwell", 3, q=0.5)
    # both 0 and 1 qualify at q=0.5; deterministic tie-break picks 0
    assert sch.select(0, _fake_virtual([0.6, 1.0, 0.1])) == (0,)


def test_gauss_southwell_scale_invariance():
    rng = np.random.default_rng(0)
    sch = bk.make_schedule("gauss-southwell", 6, q=0.8)
    for _ in range(50):
        norms = rng.uniform(0.0, 2.0, size=6)
        base = sch.select(0, _fake_virtual(norms))
        scaled = sch.select(0, _fake_virtual(17.3 * norms))
        assert base == scaled


def test_mbi_selects_largest_improvement():
    sch = bk.make_schedule("mbi", 3)
    vu = _fake_virtual([1.0, 1.0, 1.0], objectives=[8.0, 7.0, 9.0])
    assert sch.select(0, vu) == (1,)


def test_greedy_rules_require_virtual():
    sch = bk.make_schedule("gauss-southwell", 3, q=0.9)
    with pytest.raises(MissingVirtualUpdate):
        sch.select(0)


def test_q_validation():
    with pytest.raises(ValueError, match=r"q must lie in \(0,1\]"):
        bk.make_schedule("gauss-southwell", 3, q=1.5)


@pytest.mark.parametrize("rule", ["gauss-seidel", "essentially-cyclic", "mbi",
                                  "random-permutation"])
def test_q_belongs_to_gauss_southwell(rule):
    period_map = [[0, 1, 2]] if rule == "essentially-cyclic" else None
    with pytest.raises(ValueError, match="q is a gauss-southwell parameter"):
        bk.make_schedule(rule, 3, period_map=period_map, q=0.5)
    assert bk.make_schedule(rule, 3, period_map=period_map, q=1.0).q == 1.0


@pytest.mark.parametrize("rule", ["gauss-seidel", "gauss-southwell", "mbi",
                                  "random-permutation"])
def test_period_map_belongs_to_essentially_cyclic(rule):
    with pytest.raises(ValueError, match="period map is an essentially-cyclic parameter"):
        bk.make_schedule(rule, 3, period_map=[[0, 1, 2]])


def test_period_map_coverage_validation():
    with pytest.raises(ValueError, match="does not cover"):
        bk.make_schedule("essentially-cyclic", 4, period_map=[[0, 1], [2]])
    sch = bk.make_schedule("essentially-cyclic", 4, period_map=[[0, 1], [2, 3]])
    assert sch.period == 2
    assert sch.select(0) == (0, 1)
    assert sch.select(1) == (2, 3)
    assert sch.select(2) == (0, 1)


@pytest.mark.parametrize("period_map", [[[0.9, 1], [2]], [[0, "1"], [2]], [[True, 1], [2]],
                                        [[0, 1], 2], 3])
def test_period_map_entries_must_be_integers(period_map):
    with pytest.raises(ValueError, match="period_map must be a list of lists of integers"):
        bk.make_schedule("essentially-cyclic", 3, period_map=period_map)


def test_period_map_takes_numpy_integers():
    sch = bk.make_schedule("essentially-cyclic", 3, period_map=[np.arange(2), [np.int64(2)]])
    assert sch.period_map == ((0, 1), (2,))
    assert all(type(i) is int for slot in sch.period_map for i in slot)


def test_period_one_recovers_gauss_seidel():
    sch = bk.make_schedule("essentially-cyclic", 3, period_map=[[0, 1, 2]])
    gs = bk.make_schedule("gauss-seidel", 3)
    for r in range(4):
        assert sch.select(r) == gs.select(r)


def test_period_map_coverage_over_any_window():
    sch = bk.make_schedule("essentially-cyclic", 5,
                           period_map=[[0, 4], [1], [2, 3]])
    selections = [set(sch.select(r)) for r in range(12)]
    for start in range(12 - sch.period):
        window = set().union(*selections[start:start + sch.period])
        assert window == {0, 1, 2, 3, 4}


def test_random_permutation_deterministic_stream():
    a = bk.make_schedule("random-permutation", 6, seed=9)
    b = bk.make_schedule("random-permutation", 6, seed=9)
    seq_a = [a.select(r) for r in range(10)]
    seq_b = [b.select(r) for r in range(10)]
    assert seq_a == seq_b
    assert all(sorted(s) == [0, 1, 2, 3, 4, 5] for s in seq_a)
    assert len(set(seq_a)) > 1  # the order actually varies


def test_virtual_updates_separable_exact():
    # g = sum_k (x_k - 1)^2: joint candidates land on all ones
    Q = np.eye(3)
    c = -2.0 * np.ones(3)
    p = models.build_quadratic(Q, c, block_sizes=[1, 1, 1])
    s = bk.make_surrogate(p, "exact")
    vu = bk.virtual_updates(p, s, np.zeros(3))
    assert np.allclose(vu.x_hat, np.ones(3))
    assert np.allclose(vu.step_norms, np.ones(3))


def test_virtual_updates_worked_example():
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    p = models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])
    s = bk.make_surrogate(p, "exact")
    vu = bk.virtual_updates(p, s, np.array([1.0, 1.0]))
    assert np.allclose(vu.x_hat, [1.0, 0.5])
    # objectives are f with one block swapped in
    assert vu.objectives[1] == pytest.approx(
        bk.eval_objective(p, np.array([1.0, 0.5]))
    )


def test_mbi_matches_bruteforce_small_problems():
    A, b, lam = models.gen_lasso(8, 5, 0.6, seed=12)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p, "prox-linear")
    sch = bk.make_schedule("mbi", 5)
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.standard_normal(5)
        vu = bk.virtual_updates(p, s, x)
        chosen = sch.select(0, vu)[0]
        brute = min(
            range(5),
            key=lambda k: bk.eval_objective(
                p, np.where(np.arange(5) == k, vu.x_hat, x)
            ),
        )
        assert chosen == brute


def test_mbi_scores_of_squares_allocate_less_than_a_quarter_of_a():
    # for squares the scores come from the gradient and the Gram matrix, not
    # from the m x K residuals A diag(d) + r
    A, b, lam = models.gen_lasso(2000, 400, 0.5, seed=7)
    p = models.build_lasso(A, b, lam)
    x = np.random.default_rng(7).standard_normal(400)
    vu = bk.virtual_updates(p, bk.make_surrogate(p), x)
    tracemalloc.start()
    try:
        scores = vu.objectives
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A.nbytes / 4
    k = int(np.argmin(scores))
    y = np.array(x)
    y[k] = vu.x_hat[k]
    assert scores[k] == pytest.approx(bk.eval_objective(p, y), rel=1e-12)


def test_gauss_southwell_threshold_invariant_on_runs():
    A, b, lam = models.gen_lasso(10, 8, 0.5, seed=4)
    p = models.build_lasso(A, b, lam)
    s = bk.make_surrogate(p, "prox-linear")
    sch = bk.make_schedule("gauss-southwell", 8, q=0.7)
    tr = bk.run_bsum(p, s, sch, iterations=60)
    for rec, vp, it in zip(tr.records[1:], tr.virtual_points[1:], tr.iterates[:-1]):
        k = rec.blocks[0]
        norms = np.array([
            np.linalg.norm(
                (vp - it)[p.partition.block_slice(j)]
            ) for j in range(8)
        ])
        assert norms[k] >= 0.7 * norms.max() - 1e-12
