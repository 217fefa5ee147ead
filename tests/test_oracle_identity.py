"""The per-iterate oracles and the trace checks give the same bits as
reference_oracles.py.

The library's objective, squared-hinge search and virtual update read
their setup off the problem's layout and the surrogate instead of building
it per call, and its trace checks read the trace as columns instead of
record by record; each property here runs both on one input and compares
bytes, so a signed zero or a NaN that comes out differently fails too.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_layout import problems, same_bits

import bsumkit as bk
import reference_oracles as ref
from bsumkit import models
from bsumkit.diagnostics import RateCertificate
from bsumkit.engine import IterationRecord, Trace
from bsumkit.problem import NonsmoothBlock, Problem, SmoothPart, make_partition, project_feasible


def same_objective(p, x):
    # an inf or NaN entry makes numpy warn in either version
    with np.errstate(all="ignore"):
        return same_bits(bk.eval_objective(p, x), ref.eval_objective(p, x))


@given(problems())
def test_objective_of_every_layout_family(case):
    p, _, points = case
    for v in points:
        assert same_objective(p, v)
        assert same_objective(p, project_feasible(p, v))


def test_objective_of_the_families_without_a_layout_strategy():
    Q, c, sizes = models.gen_two_block_quadratic(3, 2, seed=4)
    quad = models.build_quadratic(Q, c, block_sizes=sizes)
    irls = models.build_irls(*models.gen_fermat_weber(4, 3, seed=5), eta=0.1, l1_weight=0.3)
    rng = np.random.default_rng(6)
    for p in (quad, irls):
        for scale in (0.0, 0.1, 10.0):
            assert same_objective(p, scale * rng.standard_normal(p.dim))


ENTRIES = (0.0, -0.0, 0.5, -1.25, 3.0, math.inf, -math.inf, math.nan)


def mixed_problem(sizes, terms, sign):
    """Blocks of the given sizes whose h_k are the (kind, weight) terms,
    under g = sign ||x||^2 (so g can be -0.0)."""
    smooth = SmoothPart(value=lambda x: sign * float(x @ x), grad=lambda x: 2.0 * sign * x,
                        lipschitz=2.0, block_lipschitz=(2.0,) * len(sizes))
    return Problem(partition=make_partition(sizes), smooth=smooth,
                   nonsmooth=tuple(NonsmoothBlock(kind=kind, weight=w) for kind, w in terms),
                   constraints=tuple(bk.all_space(s) for s in sizes))


@st.composite
def mixed_terms(draw):
    """Zero, l1 and group-l2 terms, some of weight 0 and some negative, and
    a point whose entries may be signed zeros, infinities or NaN."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    terms = [(draw(st.sampled_from(("zero", "l1", "group-l2"))),
              draw(st.sampled_from((0.0, 0.4, 1.7, -0.5)))) for _ in sizes]
    p = mixed_problem(sizes, terms, draw(st.sampled_from((1.0, -1.0))))
    finite = st.sampled_from(ENTRIES[:5]) | st.floats(-4.0, 4.0)
    entries = st.sampled_from(ENTRIES) if draw(st.booleans()) else finite
    return p, np.array(draw(st.lists(entries, min_size=p.dim, max_size=p.dim)))


@settings(max_examples=300)
@given(mixed_terms())
# g = -0.0 and group-l2 terms of -0.0 around a zero block, whose +0.0 turns
# the running total to +0.0 wherever it comes
@example((mixed_problem([2, 1, 1], [("group-l2", -0.5), ("zero", 0.0), ("group-l2", -0.5)],
                        -1.0), np.zeros(4)))
@example((mixed_problem([1, 2], [("group-l2", -0.5), ("group-l2", -0.5)], -1.0), np.zeros(3)))
def test_objective_of_mixed_terms_signed_zeros_and_non_finite_points(case):
    p, x = case
    assert same_objective(p, x)


KNOTTY = st.sampled_from((-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0)) | st.floats(-3.0, 3.0)
SLOPES = st.sampled_from((-1.0, -0.5, 0.0, 0.25, 1.0, 2.0)) | st.floats(-2.0, 2.0).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-3)
BOUNDS = st.sampled_from((-math.inf, -1.5, -0.5, 0.0, 0.5, 2.0, math.inf))


@st.composite
def hinge_searches(draw):
    """c, d, lam, lo <= hi and a start of a squared-hinge search; the start
    is a breakpoint c_i/d_i, 0 or any float, and d may hold zeros."""
    m = draw(st.integers(1, 8))
    c = np.array(draw(st.lists(KNOTTY, min_size=m, max_size=m)))
    d = np.array(draw(st.lists(SLOPES, min_size=m, max_size=m)))
    lo, hi = sorted(draw(st.lists(BOUNDS, min_size=2, max_size=2)))
    knots = [ci / di for ci, di in zip(c, d) if di != 0.0]
    start = draw(st.sampled_from(knots + [0.0]) | st.floats(-4.0, 4.0)) if knots \
        else draw(st.floats(-4.0, 4.0))
    return c, d, draw(st.sampled_from((0.0, 0.3, 2.0))), lo, hi, start


def same_search(c, d, lam, lo, hi, start):
    args = (np.array(c, dtype=float), np.array(d, dtype=float), lam, lo, hi, start)
    return same_bits(models.piecewise_quadratic_min(*args), ref.piecewise_quadratic_min(*args))


@settings(max_examples=300)
@given(hinge_searches())
# no breakpoint left of the start, then none right of it
@example((np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, -math.inf, math.inf, -5.0))
@example((np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, -math.inf, math.inf, 5.0))
# l1 term, zero slopes and a start on the knot at 0 appended for it
@example((np.array([1.0, -0.0, 2.0]), np.array([0.0, -1.0, 0.5]), 0.3, -1.0, math.inf, 0.0))
def test_squared_hinge_search(case):
    assert same_search(*case)


def test_squared_hinge_search_on_l2svm_solves():
    # the exact solver's own inputs, at every block of a reference run
    rows = models.gen_l2svm(40, 5, seed=3)
    p = models.build_l2svm(rows, l1_weight=0.2)
    x = bk.run_bsum(p, bk.make_surrogate(p, "exact"), bk.make_schedule("gauss-seidel", 5),
                    iterations=3).iterates[-1]
    for j in range(5):
        c = (1.0 - rows @ x) + rows[:, j] * x[j]
        assert same_search(c, rows[:, j], 0.2, -math.inf, math.inf, float(x[j]))


def same_virtual(p, s, x):
    got, want = bk.virtual_updates(p, s, x), ref.virtual_updates(p, s, x)
    return (same_bits(got.x_hat, want.x_hat) and same_bits(got.step_norms, want.step_norms)
            and same_bits(got.objectives, want.objectives))


@given(problems(), st.sampled_from((0.5, 1.0, 3.0)))
def test_virtual_update_of_mixed_kinds_and_constrained_blocks(case, scale):
    p, s, points = case
    # a surrogate rebuilt with other step constants reads its table off them
    lip = tuple(lk if kind == "exact" else scale * lk for kind, lk in zip(s.kinds, s.lip))
    for surrogate in (s, dataclasses.replace(s, lip=lip)):
        for v in points:
            assert same_virtual(p, surrogate, project_feasible(p, v))


def test_virtual_update_of_the_reweighting_bound():
    mats, offsets = models.gen_fermat_weber(5, 3, seed=2)
    rng = np.random.default_rng(3)
    for l1_weight, constraint in ((0.0, None), (0.2, None), (0.0, bk.box(-np.ones(3), np.ones(3)))):
        p = models.build_irls(mats, offsets, eta=0.5, l1_weight=l1_weight, constraint=constraint)
        s = bk.make_surrogate(p, "model-custom")
        for _ in range(3):
            assert same_virtual(p, s, project_feasible(p, rng.standard_normal(3)))


@st.composite
def group_sweeps(draw):
    """An all-exact group lasso sweep over a block order with repeats and
    blocks left out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    m = draw(st.integers(1, 10))
    p = models.build_group_lasso([rng.standard_normal((m, s)) for s in sizes],
                                 rng.standard_normal(m), 0.3)
    K = len(sizes)
    blocks = tuple(draw(st.lists(st.integers(0, K - 1), max_size=2 * K)))
    return p, rng.standard_normal(p.dim), blocks


@given(group_sweeps())
def test_group_sweep_keeps_the_bits_of_blocks_it_does_not_visit(case):
    p, x, blocks = case
    w, _, _ = bk.bsum_sweep(p, bk.make_surrogate(p, "exact"), x, blocks)
    for k in set(range(p.n_blocks)) - set(blocks):
        sl = p.partition.block_slice(k)
        assert same_bits(w[sl], x[sl])


# ---------------------------------------------------------------------------
# trace checks: columns against records

COLUMNS = ("step_sq", "virt_step_sq", "grad_diff_sq")
OBJECTIVES = st.sampled_from((math.nan, math.inf, -math.inf, 0.0)) | st.floats(-3.0, 3.0)
STATS = st.sampled_from((0.0, 1e-12, 2.5)) | st.floats(0.0, 4.0)


@st.composite
def check_traces(draw):
    """Objectives (NaN and +-inf in some traces), a reference value, the
    statistic columns with a record missing from some, an essentially-cyclic
    period that may exceed the run, an envelope and a decay fit's burn-in."""
    n = draw(st.integers(1, 50))
    objectives = OBJECTIVES if draw(st.booleans()) else st.floats(-3.0, 3.0)
    fs = draw(st.lists(objectives, min_size=n, max_size=n))
    cols = {}
    for name in COLUMNS:
        col = draw(st.lists(STATS, min_size=n - 1, max_size=n - 1))
        if col and draw(st.integers(0, 3)) == 0:
            col[draw(st.integers(0, len(col) - 1))] = None
        cols[name] = col
    setting = dict(f_star=draw(st.floats(-4.0, 3.0)), period=draw(st.integers(1, 60)),
                   rule=draw(st.sampled_from(("gauss-seidel", "gauss-southwell"))),
                   n_blocks=draw(st.integers(1, 4)), gamma=draw(st.sampled_from((0.3, 1.7))),
                   radius=draw(st.sampled_from((0.5, 3.0))),
                   envelope=(draw(st.sampled_from((0.01, 0.7, 5.0))),
                             draw(st.sampled_from((0.0, 2.0, 40.0))), draw(st.integers(0, 5))),
                   burn_in=draw(st.integers(-2, 10)))
    return fs, cols, setting


def check_trace(fs, cols, setting):
    records = [IterationRecord(r=0, f=fs[0])] + [
        IterationRecord(r=j, f=fs[j], **{name: cols[name][j - 1] for name in COLUMNS})
        for j in range(1, len(fs))]
    tr = Trace(records=records, iterates=[np.zeros(1)] * len(fs),
               virtual_points=[None] * len(fs),
               meta={"rule": setting["rule"], "n_blocks": setting["n_blocks"]})
    tr.attach_reference(np.zeros(1), setting["f_star"])
    cert = RateCertificate(
        gamma=setting["gamma"], l_max=2.0, g_max=1.5, big_m=2.0, m_max=1.0,
        radius=setting["radius"], grad_bound=4.0, l_h=0.5, q=0.8, period=setting["period"],
        f_star=setting["f_star"], f_first=fs[min(1, len(fs) - 1)], provenance={})
    return tr, cert


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeWarning) as exc:  # a numpy warning is raised as an error
        return exc


def same_outcome(got, want):
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    if isinstance(want, float):
        return same_bits(got, want)
    return (np.array_equal(got.slacks, want.slacks, equal_nan=True)
            and same_bits(got.slacks, want.slacks) and got.to_dict() == want.to_dict())


@settings(max_examples=300)
@given(check_traces())
# NaN and +-inf objectives, runs of inf - inf drops, a virtual step column
# with a record missing, and a period of 9 over a 5-iteration run
@example(([1.0, math.nan, math.inf, math.inf, -math.inf, -math.inf],
          {"step_sq": [0.5, 0.0, 1.0, 2.0, 0.1], "virt_step_sq": [0.5, None, 1.0, 2.0, 0.1],
           "grad_diff_sq": [1.0, 1.0, 0.0, 0.0, 3.0]},
          dict(f_star=-0.5, period=9, rule="gauss-southwell", n_blocks=3, gamma=0.3,
               radius=3.0, envelope=(0.7, 2.0, 1), burn_in=0)))
# gaps whose square libm's pow rounds one ulp away from x * x
@example(([2.0, 1.9072620013546644, 1.6132881288657748, 0.4786618688802179],
          {name: [0.25, 0.5, 1.0] for name in COLUMNS},
          dict(f_star=0.0, period=2, rule="gauss-seidel", n_blocks=2, gamma=1.7,
               radius=0.5, envelope=(5.0, 40.0, 0), burn_in=0)))
def test_trace_checks_read_as_columns_give_the_bits_of_the_record_loops(case):
    tr, cert = check_trace(*case)
    calls = [(fn, (tr, cert, variant)) for fn, variants in (
        ("check_sufficient_descent", ("gs-ec", "gso-mbi", "bcm")),
        ("check_cost_to_go", ("gs", "ec", "gso-mbi", "bcm-gs"))) for variant in variants]
    sigma, c, offset = case[2]["envelope"]
    calls += [("check_rate_envelope", (tr, sigma, c, offset)),
              ("fit_decay_exponent", (tr, case[2]["burn_in"]))]
    for name, args in calls:
        got, want = outcome(getattr(bk, name), *args), outcome(getattr(ref, name), *args)
        assert same_outcome(got, want), (name, args[2:])


def test_cost_to_go_needs_the_reference():
    tr, cert = check_trace([1.0, 0.5], {name: [0.1] for name in COLUMNS},
                           dict(f_star=0.0, period=1, rule="gauss-seidel", n_blocks=1,
                                gamma=0.3, radius=1.0, envelope=None, burn_in=0))
    tr.f_star = None
    with pytest.raises(ValueError, match="attach a reference solution"):
        bk.check_cost_to_go(tr, cert, "gs")
