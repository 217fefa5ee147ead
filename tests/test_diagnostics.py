"""Certificates, sigma formulas, and the inequality checks on small cases."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsumkit as bk
from bsumkit import cli, models
from bsumkit.diagnostics import FD_TOLERANCE, RateCertificate, plan_checks
from bsumkit.engine import IterationRecord, Trace


def make_cert(**overrides):
    base = dict(
        gamma=0.5, l_max=2.0, g_max=2.0, big_m=2.0, m_max=2.0,
        radius=3.0, grad_bound=6.0, l_h=0.0, q=1.0, period=1,
        f_star=0.0, f_first=1.0, provenance={},
    )
    base.update(overrides)
    return RateCertificate(**base)


def synthetic_trace(deltas, f_star=0.0, **meta):
    records = [IterationRecord(r=j, f=f_star + d) for j, d in enumerate(deltas)]
    full_meta = {"rule": "gauss-seidel", "n_blocks": 2, "q": 1.0, "period": 1}
    full_meta.update(meta)
    tr = Trace(records=records, iterates=[np.zeros(1)] * len(deltas),
               virtual_points=[None] * len(deltas), meta=full_meta)
    tr.attach_reference(np.zeros(1), f_star)
    return tr


# ---------------------------------------------------------------------------
# constants


def test_constants_box_interval_exact():
    # g = (x-1)^2 on [-2, 2]: farthest point 3 away, gradient bound 6
    Q = np.array([[1.0]])
    c = np.array([-2.0])
    p = models.build_quadratic(
        Q, c, block_sizes=[1],
        constraints=[bk.box(np.array([-2.0]), np.array([2.0]))],
    )
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 1)
    tr = bk.run_bsum(p, s, sch, x0=np.array([-2.0]), iterations=3)
    ref = bk.reference_solve(p)
    assert ref.x[0] == pytest.approx(1.0, abs=1e-10)
    tr.attach_reference(ref.x, ref.f)
    cert = bk.estimate_constants(p, s, tr)
    assert cert.radius == pytest.approx(3.0, abs=1e-9)
    assert cert.grad_bound == pytest.approx(6.0, abs=1e-8)
    assert cert.provenance["R"] == "computed-exact"
    # grid confirmation of the level-set extrema
    grid = np.linspace(-2.0, 2.0, 400001)
    feas = grid[(grid - 1.0) ** 2 <= (-2.0 - 1.0) ** 2]
    assert np.max(np.abs(feas - 1.0)) == pytest.approx(3.0, abs=1e-5)
    assert np.max(np.abs(2.0 * (feas - 1.0))) == pytest.approx(6.0, abs=1e-5)


def test_constants_of_ball_blocks_are_computed_exactly():
    # scalar blocks, each in a ball of its own: the farthest feasible point
    # lies r_k + |c_k - x*_k| from x* in block k
    Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
    centers, radii = [0.3, -0.5, 2.0], [1.0, 0.5, 0.25]
    p = models.build_quadratic(
        Q, np.array([1.0, -2.0, 0.5]), block_sizes=[1, 1, 1],
        constraints=[bk.ball(np.array([ck]), rk) for ck, rk in zip(centers, radii)],
    )
    s = bk.make_surrogate(p, "exact")
    tr = bk.run_bsum(p, s, bk.make_schedule("gauss-seidel", 3), iterations=5)
    ref = bk.reference_solve(p)
    tr.attach_reference(ref.x, ref.f)
    cert = bk.estimate_constants(p, s, tr)
    assert cert.provenance["R"] == cert.provenance["Q"] == "computed-exact"
    R = np.sqrt(sum((rk + abs(ck - xk)) ** 2 for ck, rk, xk in zip(centers, radii, ref.x)))
    assert cert.radius == pytest.approx(R, rel=1e-12)
    Q_bound = np.linalg.norm(p.smooth.grad(ref.x)) + p.smooth.lipschitz * R
    assert cert.grad_bound == pytest.approx(Q_bound, rel=1e-12)


def test_constants_unconstrained_trajectory_max():
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    p = models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, x0=np.array([1.0, 1.0]), iterations=20)
    tr.attach_reference(np.zeros(2), 0.0)
    cert = bk.estimate_constants(p, s, tr)
    # the level set of f(x^1) is smaller than ||x^0||, so the max sits at r=0
    assert cert.radius == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert cert.provenance["R"] == "trajectory"
    assert cert.radius >= max(np.linalg.norm(it) for it in tr.iterates)


@st.composite
def unbounded_runs(draw):
    """A small random lasso or l2svm run under a random rule, with scalar
    blocks or one block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    blocks = [n] if draw(st.booleans()) else None
    if draw(st.booleans()):
        m = draw(st.integers(1, 10))
        p = models.build_lasso(rng.standard_normal((m, n)), rng.standard_normal(m),
                               draw(st.sampled_from([0.0, 0.5, 2.0])), block_sizes=blocks)
    else:
        p = models.build_l2svm(rng.standard_normal((draw(st.integers(2, 12)), n)),
                               block_sizes=blocks,
                               l1_weight=draw(st.sampled_from([0.0, 0.5])))
    exact = p.exact_solver is not None and draw(st.booleans())  # l2svm: scalar blocks only
    s = bk.make_surrogate(p, "exact" if exact else "prox-linear")
    sch = bk.make_schedule(draw(st.sampled_from(["gauss-seidel", "gauss-southwell", "mbi"])),
                           p.n_blocks)
    tr = bk.run_bsum(p, s, sch, x0=rng.standard_normal(n),
                     iterations=draw(st.integers(1, 8)))
    ref = bk.reference_solve(p)
    tr.attach_reference(ref.x, ref.f)
    return p, s, tr


@settings(max_examples=40, deadline=None)
@given(case=unbounded_runs())
def test_trajectory_constants_are_the_run_maxima(case):
    p, s, tr = case
    points = list(tr.iterates) + [q for q in tr.virtual_points if q is not None]
    cert = bk.estimate_constants(p, s, tr)
    assert cert.radius == max(max(float(np.linalg.norm(q - tr.x_star)) for q in points),
                              1e-12)
    assert cert.grad_bound == max(float(np.linalg.norm(p.smooth.grad(x)))
                                  for x in tr.iterates)
    assert cert.provenance["R"] == cert.provenance["Q"] == "trajectory"
    assert bk.estimate_constants(p, s, tr).to_dict() == cert.to_dict()


def test_constants_require_reference():
    Q = np.array([[1.0]])
    p = models.build_quadratic(Q, np.zeros(1))
    s = bk.make_surrogate(p, "exact")
    tr = bk.run_sum(p, s, iterations=2)
    with pytest.raises(ValueError, match="reference"):
        bk.estimate_constants(p, s, tr)


# ---------------------------------------------------------------------------
# sigma table


def test_sigma_values_frozen_examples():
    cert = make_cert(gamma=0.5, g_max=2.0, radius=3.0)
    sigma, _, off = bk.sigma_for("bsum-gs", cert, 2)
    assert sigma == pytest.approx(0.5 / 72.0)
    assert off == 0

    sigma4, _, off4 = bk.sigma_for("sum", cert, 1, lip=2.0)
    assert sigma4 == pytest.approx(1.0 / 576.0)
    assert off4 == 1

    sigma5, _, off5 = bk.sigma_for("bcm-gs", cert, 2)
    assert sigma5 == pytest.approx(1.0 / 144.0)
    assert off5 == 0


def test_sigma_c_pairing():
    cert = make_cert(f_first=9.0, f_star=0.0)
    _, c, _ = bk.sigma_for("bcm-gs", cert, 2)  # sigma = 0.01 scale: c = max(.., 9, 2)
    assert c == pytest.approx(9.0)
    cert2 = make_cert(f_first=0.5, f_star=0.0)
    _, c2, _ = bk.sigma_for("bcm-gs", cert2, 2)
    assert c2 == pytest.approx(2.0)


def test_sigma_ec_offsets_and_unknown_id():
    cert = make_cert(period=4)
    _, _, off = bk.sigma_for("bsum-ec", cert, 3)
    assert off == 4
    _, _, off2 = bk.sigma_for("bcm-ec", cert, 3)
    assert off2 == 4
    with pytest.raises(ValueError, match="unknown rate id"):
        bk.sigma_for("nope", cert, 3)


def test_unmet_certificate_needs_raise():
    with pytest.raises(ValueError, match="gamma>0"):
        bk.sigma_for("bsum-gs", make_cert(gamma=0.0), 2)
    with pytest.raises(ValueError, match="G_max"):
        bk.sigma_for("bsum-ec", make_cert(g_max=None), 2)
    with pytest.raises(ValueError, match="composite"):
        bk.sigma_for("composite-gs", make_cert(), 2)
    with pytest.raises(ValueError, match="L_max"):
        bk.sigma_for("sum", make_cert(l_max=None), 1)
    assert bk.sigma_for("sum", make_cert(l_max=None), 1, lip=2.0)[2] == 1
    tr = synthetic_trace([1.0, 0.5])
    tr.records[1].step_sq = 0.1
    with pytest.raises(ValueError, match="G_max"):
        bk.check_cost_to_go(tr, make_cert(g_max=None), "gs")
    with pytest.raises(ValueError, match="unknown cost-to-go variant"):
        bk.check_cost_to_go(tr, make_cert(), "nope")


@pytest.mark.parametrize("problem", [
    models.build_lasso(*models.gen_lasso(20, 12, 2.0, seed=101)),
    models.build_group_lasso(*models.gen_group_lasso(25, [4, 3, 1, 4], 0.4, seed=102,
                                                     deficient=[0])),
], ids=["lasso", "group-lasso-deficient"])
def test_composite_gs_sigma_reads_the_declared_block_constants(problem):
    K = problem.n_blocks
    cert = make_cert(radius=1.7, m_max=problem.smooth.max_block_lipschitz)
    sigma, _, _ = bk.sigma_for("composite-gs", cert, K, problem=problem)
    # the formula written out: an eigensolve of every A_k^T A_k
    A = problem.smooth.linear.A
    cross = 2.0 * np.sqrt(K - 1.0)
    worst = max(float(np.linalg.eigvalsh(Ak.T @ Ak)[-1]) * (cross * cross)
                for Ak in (A[:, problem.partition.block_slice(k)] for k in range(K)))
    assert sigma == pytest.approx(2.0 / (2.0 * K * cert.radius**2 * worst), rel=1e-12)


# model -> the structured envelopes an exact gauss-seidel run of it gets; the
# loss declaration g = phi(Ax - b) and the block count decide them
STRUCTURED = ("composite-gs", "l2svm-gs")
STRUCTURE_CASES = [
    ({"family": "lasso", "m": 6, "n": 1, "lam": 0.5}, []),  # one block: no cross term
    ({"family": "group-lasso", "m": 6, "sizes": [3], "weight": 0.3}, []),
    ({"family": "lasso", "m": 6, "n": 3, "lam": 0.5}, ["composite-gs"]),
    ({"family": "group-lasso", "m": 6, "sizes": [3, 2], "weight": 0.3}, ["composite-gs"]),
    ({"family": "l2svm", "rows": 20, "n": 3}, ["l2svm-gs"]),
    ({"family": "l2svm", "rows": 20, "n": 3, "l1_weight": 0.3}, ["l2svm-gs"]),
]


@pytest.mark.parametrize("model,structured", STRUCTURE_CASES)
def test_structured_envelopes_follow_the_declared_loss(tmp_path, model, structured):
    lines = [f"run.r.model.{key} = {json.dumps(value)}" for key, value in model.items()]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 3\n" + "\n".join(lines) + '\nrun.r.surrogate = "exact"\n'
                   "run.r.iterations = 20\n")
    results, code = cli.run_experiment(cli.parse_config(str(cfg)), output_dir=str(tmp_path))
    envelopes = [e["id"] for e in results[0].envelopes]
    assert code == 0 and "bcm-gs" in envelopes
    assert [e for e in envelopes if e in STRUCTURED] == structured


def test_logistic_runs_get_no_structured_envelope():
    A, y, nu = models.gen_logistic(30, 4, 0.2, seed=1)
    p = models.build_logistic(A, y, nu)
    assert p.smooth.linear.phi.name == "logistic"
    # even a run described as exact gauss-seidel, which logistic cannot make
    meta = {"algorithm": "bsum", "rule": "gauss-seidel", "surrogate": "exact"}
    planned = [variant for _, variant in plan_checks(meta, make_cert(), p)]
    assert "bcm-gs" in planned and not set(planned) & set(STRUCTURED)
    for rate, need in zip(STRUCTURED, ("composite", "svm")):
        with pytest.raises(ValueError, match=f"needs {need}"):
            bk.sigma_for(rate, make_cert(), 4, problem=p)


def test_sigma_positivity_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cert = make_cert(
            gamma=float(rng.uniform(0.1, 3.0)), g_max=float(rng.uniform(0.5, 5.0)),
            radius=float(rng.uniform(0.5, 5.0)), big_m=float(rng.uniform(0.5, 5.0)),
        )
        for rate in ("bsum-gs", "bcm-gs"):
            sigma, c, _ = bk.sigma_for(rate, cert, 3)
            assert sigma > 0 and c >= 2.0
    # strictly decreasing in K, R, G; increasing in gamma
    base = make_cert()
    s0 = bk.sigma_for("bsum-gs", base, 2)[0]
    assert bk.sigma_for("bsum-gs", base, 3)[0] < s0
    assert bk.sigma_for("bsum-gs", make_cert(radius=4.0), 2)[0] < s0
    assert bk.sigma_for("bsum-gs", make_cert(g_max=3.0), 2)[0] < s0
    assert bk.sigma_for("bsum-gs", make_cert(gamma=1.0), 2)[0] > s0


def test_enlarging_radius_never_breaks_a_passing_envelope():
    tr = synthetic_trace([3.0, 2.0, 1.0, 0.5])
    cert = make_cert()
    sigma, c, off = bk.sigma_for("bsum-gs", cert, 2)
    assert bk.check_rate_envelope(tr, sigma, c, off).passed
    bigger = make_cert(radius=30.0)
    sigma_b, c_b, off_b = bk.sigma_for("bsum-gs", bigger, 2)
    assert sigma_b < sigma
    assert bk.check_rate_envelope(tr, sigma_b, c_b, off_b).passed


# ---------------------------------------------------------------------------
# descent / cost-to-go / envelope on hand-built traces


def test_descent_check_hand_example():
    # worked two-block run: drop 0.5 over the first sweep, step^2 = 0.25
    Q = np.array([[1.0, -1.0], [-1.0, 2.0]])
    p = models.build_quadratic(Q, np.zeros(2), block_sizes=[1, 1])
    s = bk.make_surrogate(p, "exact")
    sch = bk.make_schedule("gauss-seidel", 2)
    tr = bk.run_bsum(p, s, sch, x0=np.array([1.0, 1.0]), iterations=8)
    tr.attach_reference(np.zeros(2), 0.0)
    cert = bk.estimate_constants(p, s, tr)
    assert cert.gamma == pytest.approx(1.0)  # half the weakest block curvature
    assert tr.records[1].f == pytest.approx(0.5)
    assert tr.records[1].step_sq == pytest.approx(0.25)
    rep = bk.check_sufficient_descent(tr, cert, "gs-ec")
    assert rep.passed
    # the first-sweep inequality is tight here: drop 0.5 vs gamma * 0.25 * 2
    assert rep.slacks[0] == pytest.approx(0.25)


def test_descent_converged_tail_is_tight():
    tr = synthetic_trace([1.0, 0.25, 0.25, 0.25])
    for rec in tr.records[1:]:
        rec.step_sq = 0.0
        rec.grad_diff_sq = 0.0
    tr.records[1].step_sq = 0.5
    cert = make_cert(gamma=1.0)
    rep = bk.check_sufficient_descent(tr, cert, "gs-ec")
    assert rep.passed
    assert rep.slacks[-1] == pytest.approx(0.0)


def test_descent_check_catches_violations():
    tr = synthetic_trace([1.0, 0.9])
    tr.records[1].step_sq = 1.0
    cert = make_cert(gamma=1.0)
    rep = bk.check_sufficient_descent(tr, cert, "gs-ec")
    assert not rep.passed
    assert rep.max_violation == pytest.approx(0.9)


def test_descent_missing_fields_raise():
    tr = synthetic_trace([1.0, 0.5])
    with pytest.raises(ValueError, match="virtual"):
        bk.check_sufficient_descent(tr, make_cert(), "gso-mbi")


def test_cost_to_go_zero_gap_trivial():
    tr = synthetic_trace([0.0, 0.0, 0.0])
    for rec in tr.records[1:]:
        rec.step_sq = 0.0
    rep = bk.check_cost_to_go(tr, make_cert(), "gs")
    assert rep.passed and rep.max_violation == 0.0


def test_envelope_arithmetic_example():
    tr = synthetic_trace([10.0, 3.0, 2.0, 1.2])  # deltas at r=1,2,3
    rep = bk.check_rate_envelope(tr, sigma=0.5, c=2.0, offset=0)
    # bounds 4, 2, 4/3 against 3, 2, 1.2
    assert rep.passed
    assert rep.slacks == pytest.approx([1.0, 0.0, 4.0 / 3.0 - 1.2])


def test_envelope_rejects_a_negative_offset():
    # the gaps from r = offset + 1 on would start at the trace's end
    with pytest.raises(ValueError, match="offset nonnegative"):
        bk.check_rate_envelope(synthetic_trace([10.0, 3.0, 2.0]), sigma=1.0, c=1.0, offset=-1)


def test_envelope_tight_pass():
    deltas = [5.0] + [1.0 / r for r in range(1, 40)]
    tr = synthetic_trace(deltas)
    rep = bk.check_rate_envelope(tr, sigma=1.0, c=1.0, offset=0)
    assert rep.passed and rep.max_violation == 0.0


def test_envelope_failure_detected():
    tr = synthetic_trace([5.0, 3.0, 3.0, 3.0, 3.0])
    rep = bk.check_rate_envelope(tr, sigma=1.0, c=2.0, offset=0)
    assert not rep.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_objectives_fail_the_checks(bad):
    tr = synthetic_trace([5.0, 1.0, bad, 0.5])
    for rec in tr.records[1:]:
        rec.step_sq = 1.0
    reports = [bk.check_rate_envelope(tr, sigma=1.0, c=100.0, offset=0),
               bk.check_sufficient_descent(tr, make_cert(gamma=1e-6), "gs-ec"),
               bk.check_cost_to_go(tr, make_cert(), "gs")]
    for rep in reports:
        assert not rep.passed and rep.max_violation == np.inf


# ---------------------------------------------------------------------------
# curvature inequality and gradient checks


def test_curvature_inequality_quadratic_equality_case():
    p = models.build_quadratic(np.array([[1.0]]), np.zeros(1))  # g = x^2, M = 2
    rep = bk.check_nesterov_inequality(p, seed=1)
    assert rep.passed
    assert rep.max_violation <= 1e-12  # equality case up to rounding


def test_curvature_inequality_logistic_sampled():
    A, y, nu = models.gen_logistic(50, 8, 0.1, seed=5)
    p = models.build_logistic(A, y, nu)
    rep = bk.check_nesterov_inequality(p, seed=2)
    assert rep.passed


def test_curvature_inequality_understated_constant_fails():
    p = models.build_quadratic(np.array([[1.0]]), np.zeros(1))
    rep = bk.check_nesterov_inequality(p, big_m=1.0, seed=3)
    assert not rep.passed
    assert rep.max_violation > 1e-3


def test_fd_gradient_check_models():
    rng = np.random.default_rng(8)
    Q, c = models.gen_quadratic([2, 2], seed=4)
    p = models.build_quadratic(Q, c, block_sizes=[2, 2])
    pts = [rng.standard_normal(4) for _ in range(5)]
    assert bk.fd_gradient_check(p, pts) <= 1e-9

    A, y, nu = models.gen_logistic(30, 6, 0.2, seed=6)
    plog = models.build_logistic(A, y, nu)
    pts = [rng.standard_normal(6) for _ in range(5)]
    assert bk.fd_gradient_check(plog, pts) <= 1e-5

    mats, offs = models.gen_fermat_weber(5, 3, seed=7)
    pirls = models.build_irls(mats, offs, 0.3)
    pts = [rng.standard_normal(3) for _ in range(5)]
    assert bk.fd_gradient_check(pirls, pts) <= 1e-5


@pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-last"])
def test_a_nan_point_fails_the_fd_check_as_an_unbounded_violation(first):
    # a NaN error is kept wherever its point comes, and its report fails
    A, b, lam = models.gen_lasso(10, 4, 0.5, seed=3)
    p = models.build_lasso(A, b, lam)
    x = np.zeros(4)
    x[2] = np.nan
    pts = [np.ones(4), np.full(4, -1.0)]
    pts.insert(0 if first else 2, x)
    err = bk.fd_gradient_check(p, pts)
    assert np.isnan(err)
    rep = cli._fd_report(err)
    assert not rep.passed and rep.max_violation == np.inf and rep.n_checked == 1


def test_the_fd_report_violation_is_the_error_at_the_fd_tolerance():
    assert FD_TOLERANCE == 1e-5
    for err, passed in ((0.0, True), (FD_TOLERANCE, True), (2.0 * FD_TOLERANCE, False)):
        rep = cli._fd_report(err)
        assert (rep.max_violation, rep.tolerance, rep.passed) == (err, FD_TOLERANCE, passed)


def test_fit_decay_exponent_power_laws():
    n = 200
    tr1 = synthetic_trace([2.0] + [1.0 / r for r in range(1, n)])
    assert bk.fit_decay_exponent(tr1, burn_in=5) == pytest.approx(-1.0, abs=1e-6)
    tr2 = synthetic_trace([2.0] + [1.0 / r**2 for r in range(1, n)])
    assert bk.fit_decay_exponent(tr2, burn_in=5) == pytest.approx(-2.0, abs=1e-6)


def test_fit_decay_exponent_insufficient_data():
    tr = synthetic_trace([1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="insufficient"):
        bk.fit_decay_exponent(tr, burn_in=1)
