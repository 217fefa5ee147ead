"""End-to-end verification suite: one pass/fail line per criterion.

Criteria run against a fixed 12-run matrix (four models, both surrogate
families, all four selection rules, 300 iterations each) plus dedicated
single-block, two-block, and oracle suites.  Tolerances are pinned here;
nothing is deferred to later calibration.
"""

import glob
import os

import numpy as np

import bsumkit as bk
from bsumkit import cli, models

from conftest import MATRIX_RUNS, golden_section, grid_min_1d, irls_step

INEQ_TOL = 1e-9

RULE_TO_DESCENT = {
    "gauss-seidel": "gs-ec",
    "essentially-cyclic": "gs-ec",
    "gauss-southwell": "gso-mbi",
    "mbi": "gso-mbi",
}

EXPECTED_ENVELOPES = {
    "lasso_pl_gs": {"bsum-gs"},
    "lasso_pl_ec": {"bsum-ec"},
    "lasso_pl_gso": {"bsum-gso"},
    "lasso_pl_mbi": {"bsum-mbi"},
    "lasso_ex_gs": {"bsum-gs", "bcm-gs", "composite-gs"},
    "glasso_ex_gs": {"bcm-gs", "composite-gs"},
    "glasso_pl_gs": {"bsum-gs"},
    "logit_pl_gs": {"bsum-gs"},
    "logit_pl_mbi": {"bsum-mbi"},
    "svm_ex_gs": {"bcm-gs", "l2svm-gs"},
    "svm_ex_ec": {"bcm-ec"},
    "svm_pl_gso": {"bsum-gso"},
}


def _criterion(number: int, ok: bool, message: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {message}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_1_sufficient_descent_suite(matrix_outcome):
    results = matrix_outcome["results"]
    worst = 0.0
    for run_id, _, _, rule, _ in MATRIX_RUNS:
        res = results[run_id]
        assert res.error is None, res.error
        want = RULE_TO_DESCENT[rule]
        reports = [c for c in res.checks if c.check_id == "sufficient-descent"]
        variants = {c.variant for c in reports}
        assert want in variants, (run_id, variants)
        for rep in reports:
            worst = max(worst, rep.max_violation)
            assert rep.passed, (run_id, rep.variant, rep.max_violation)
    elapsed = matrix_outcome["elapsed"]
    ok = worst <= INEQ_TOL and elapsed < 60.0
    _criterion(1, ok, f"12-run descent suite, max violation {worst:.2e}, "
                      f"wall time {elapsed:.1f}s")


def test_criterion_2_cost_to_go_suite(matrix_outcome):
    results = matrix_outcome["results"]
    worst = 0.0
    for run_id, *_ in MATRIX_RUNS:
        res = results[run_id]
        reports = [c for c in res.checks if c.check_id == "cost-to-go"]
        assert reports, run_id
        for rep in reports:
            worst = max(worst, rep.max_violation)
            assert rep.passed, (run_id, rep.variant, rep.max_violation)
        prov = res.certificate.provenance
        assert prov["R"] in ("trajectory", "computed-exact")
        # gaps stay nonnegative once the reference is attached
        assert float(np.min(res.trace.deltas())) >= -INEQ_TOL
    _criterion(2, worst <= INEQ_TOL,
               f"cost-to-go suite over the matrix, max violation {worst:.2e}")


def test_criterion_3_rate_envelopes(matrix_outcome):
    results = matrix_outcome["results"]
    worst = 0.0
    for run_id, expected in EXPECTED_ENVELOPES.items():
        res = results[run_id]
        have = {e["id"]: e for e in res.envelopes}
        missing = expected - set(have)
        assert not missing, (run_id, missing)
        for env in res.envelopes:
            worst = max(worst, env["max_violation"])
            assert env["passed"], (run_id, env["id"], env["max_violation"])
    _criterion(3, worst <= INEQ_TOL,
               f"rate envelopes across the matrix, max violation {worst:.2e}")


def test_criterion_4_reweighting_equals_single_block_runs():
    worst_gap = 0.0
    worst_env = 0.0
    for seed in range(5):
        mats, offs = models.gen_fermat_weber(10, 5, seed=200 + seed)
        eta = 0.1
        p = models.build_irls(mats, offs, eta)
        gram_sum = sum(A.T @ A for A in mats)
        want_l = float(np.linalg.eigvalsh(gram_sum)[-1]) / eta
        assert abs(p.smooth.lipschitz - want_l) <= 1e-8 * want_l
        s = bk.make_surrogate(p, "model-custom")
        tr = bk.run_sum(p, s, iterations=200)
        x = bk.feasible_start(p)
        for j in range(1, 201):
            x = irls_step(mats, offs, eta, x)
            worst_gap = max(worst_gap, float(np.max(np.abs(x - tr.iterates[j]))))
        ref = bk.reference_solve(p)
        tr.attach_reference(ref.x, ref.f)
        cert = bk.estimate_constants(p, s, tr)
        sigma, c, off = bk.sigma_for("sum", cert, 1)
        rep = bk.check_rate_envelope(tr, sigma, c, off, label="sum")
        worst_env = max(worst_env, rep.max_violation)
        assert rep.passed
    ok = worst_gap <= 1e-10 and worst_env <= INEQ_TOL
    _criterion(4, ok, f"reweighting vs single-block runs agree to {worst_gap:.2e}; "
                      f"envelope violation {worst_env:.2e}")


def test_criterion_5_acceleration():
    worst_slope = -np.inf
    worst_ratio = 0.0
    worst_env = 0.0
    for seed in range(5):
        Q, c, sizes = models.gen_two_block_quadratic(
            6, 8, seed=300 + seed, zero_eigs=2, min_pos=1e-4
        )
        p = models.build_quadratic(Q, c, block_sizes=list(sizes))
        assert p.inner_unique(0) and not p.inner_unique(1)
        ref = bk.reference_solve(p)
        s = bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear"))
        sch = bk.make_schedule("gauss-seidel", 2)
        tr_plain = bk.run_bsum(p, s, sch, iterations=500)
        tr_plain.attach_reference(ref.x, ref.f)
        tr_acc = bk.run_a2bsum(p, outer=1, inner=0, iterations=500)
        tr_acc.attach_reference(ref.x, ref.f)

        slope = bk.fit_decay_exponent(tr_acc, burn_in=19, r_max=500)
        worst_slope = max(worst_slope, slope)
        assert slope <= -1.5

        cert = bk.estimate_constants(p, s, tr_plain)
        sigma, cc, off = bk.sigma_for(
            "two-block", cert, 2, lip=p.smooth.block_lipschitz[1]
        )
        rep = bk.check_rate_envelope(tr_plain, sigma, cc, off, label="two-block")
        worst_env = max(worst_env, rep.max_violation)
        assert rep.passed

        ratio = float(tr_acc.deltas()[-1] / tr_plain.deltas()[-1])
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= 0.1
    ok = worst_slope <= -1.5 and worst_ratio <= 0.1 and worst_env <= INEQ_TOL
    _criterion(5, ok, f"acceleration: worst slope {worst_slope:.2f}, final-gap "
                      f"ratio {worst_ratio:.2e}, plain envelope violation {worst_env:.2e}")


def test_criterion_6_two_block_reduction_equivalence():
    worst = 0.0
    for seed in range(3):
        Q, c, sizes = models.gen_two_block_quadratic(
            5, 7, seed=400 + seed, zero_eigs=1, min_pos=1e-3
        )
        p = models.build_quadratic(Q, c, block_sizes=list(sizes))
        s = bk.make_surrogate(p, "mixed", kinds=("exact", "prox-linear"))
        sch = bk.make_schedule("gauss-seidel", 2)
        tr = bk.run_bsum(p, s, sch, iterations=100)
        red = bk.reduce_two_block(p, outer=1, inner=0)
        s_red = bk.make_surrogate(red, "prox-linear",
                                  lip=(p.smooth.block_lipschitz[1],))
        tr_red = bk.run_sum(red, s_red, iterations=100)
        sl = p.partition.block_slice(1)
        for j in range(101):
            worst = max(worst, float(np.max(np.abs(
                tr.iterates[j][sl] - tr_red.iterates[j]
            ))))
    _criterion(6, worst <= 1e-10,
               f"two-block runs match the reduced single-block runs to {worst:.2e}")


def _oracle_models():
    A, b, lam = models.gen_lasso(20, 50, 2.0, seed=101)
    yield models.build_lasso(A, b, lam)
    mats, bg, w = models.gen_group_lasso(25, [8, 8, 8, 8], 0.4, seed=102, deficient=[1])
    yield models.build_group_lasso(mats, bg, w)
    Al, y, nu = models.gen_logistic(100, 20, 0.5, seed=103)
    yield models.build_logistic(Al, y, nu)
    yield models.build_l2svm(models.gen_l2svm(50, 10, seed=104))
    fm, fo = models.gen_fermat_weber(10, 5, seed=200)
    yield models.build_irls(fm, fo, 0.1)
    Q, c = models.gen_quadratic([2, 2, 2], seed=105)
    yield models.build_quadratic(Q, c, block_sizes=[2, 2, 2])


def test_criterion_7_oracle_suites():
    from bsumkit.problem import NonsmoothBlock
    from bsumkit.surrogate import prox_block

    rng = np.random.default_rng(2024)
    # prox operators against the dense grid
    worst_prox = 0.0
    for case in range(200):
        beta = float(rng.uniform(0.5, 4.0))
        if case % 2 == 0:
            lam = float(rng.uniform(0.0, 1.5))
            v = float(rng.uniform(-1.5, 1.5))
            got = prox_block(NonsmoothBlock("l1", lam), bk.all_space(1), beta, [v])[0]
            want = grid_min_1d(lambda u: lam * np.abs(u) + 0.5 * beta * (u - v) ** 2)
            worst_prox = max(worst_prox, abs(got - want))
        else:
            w = float(rng.uniform(0.0, 2.0))
            v = rng.uniform(-1.5, 1.5, size=2)
            nv = float(np.linalg.norm(v))
            got = prox_block(NonsmoothBlock("group-l2", w), bk.all_space(2), beta, v)
            t = grid_min_1d(lambda tt: w * np.abs(tt) + 0.5 * beta * (tt - nv) ** 2,
                            lo=0.0, hi=nv + 1.0)
            want = v * (t / nv) if nv > 0 else np.zeros(2)
            worst_prox = max(worst_prox, float(np.linalg.norm(got - want)))
    assert worst_prox <= 1e-4

    # exact scalar block solvers against golden-section search
    A, b, lam = models.gen_lasso(14, 10, 1.0, seed=51)
    lasso = models.build_lasso(A, b, lam)
    svm = models.build_l2svm(models.gen_l2svm(30, 8, seed=52))
    worst_solver = 0.0
    for case in range(200):
        if case % 2 == 0:
            x = rng.standard_normal(10)
            k = int(rng.integers(10))
            t = lasso.exact_solver(k, x)[0]

            def fl(tt):
                y = x.copy()
                y[k] = tt
                return bk.eval_objective(lasso, y)

            worst_solver = max(worst_solver, abs(t - golden_section(fl, t - 2, t + 2)))
        else:
            x = rng.standard_normal(8)
            k = int(rng.integers(8))
            t = svm.exact_solver(k, x)[0]

            def fs(tt):
                y = x.copy()
                y[k] = tt
                return bk.eval_objective(svm, y)

            worst_solver = max(worst_solver, abs(t - golden_section(fs, t - 2, t + 2)))
    assert worst_solver <= 1e-4

    # block gradients against finite differences; curvature inequality
    worst_fd = 0.0
    worst_curv = 0.0
    for problem in _oracle_models():
        pts = [rng.standard_normal(problem.dim) for _ in range(20)]
        worst_fd = max(worst_fd, bk.fd_gradient_check(problem, pts, step=1e-6))
        rep = bk.check_nesterov_inequality(problem, n_pairs=100, seed=7)
        worst_curv = max(worst_curv, rep.max_violation)
        assert rep.passed, problem.name
    assert worst_fd <= 1e-5
    ok = worst_prox <= 1e-4 and worst_solver <= 1e-4 and worst_fd <= 1e-5 \
        and worst_curv <= 1e-10
    _criterion(7, ok, f"oracles: prox {worst_prox:.1e}, exact solves "
                      f"{worst_solver:.1e}, gradients {worst_fd:.1e}, "
                      f"curvature slack {worst_curv:.1e}")


def test_criterion_8_bitwise_determinism(matrix_outcome):
    spec = cli.parse_config(matrix_outcome["config_path"])
    rerun_dir = os.path.join(matrix_outcome["base"], "rerun")
    cli.run_experiment(spec, output_dir=rerun_dir)
    first = sorted(glob.glob(os.path.join(matrix_outcome["outdir"], "*.trace.csv")))
    assert len(first) == 12
    identical = True
    for path in first:
        other = os.path.join(rerun_dir, os.path.basename(path))
        with open(path, "rb") as f1, open(other, "rb") as f2:
            if f1.read() != f2.read():
                identical = False
    _criterion(8, identical, "rerun of the full matrix produced byte-identical traces")
