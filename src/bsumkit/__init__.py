"""Block-coordinate upper-bound minimization with rate diagnostics."""

from .problem import (
    BlockPartition,
    ConstraintSet,
    NonsmoothBlock,
    Problem,
    SmoothPart,
    UnsupportedCombination,
    all_space,
    ball,
    block_gradient,
    box,
    eval_objective,
    feasible_start,
    make_partition,
    nonneg,
)
from .surrogate import Surrogate, make_surrogate, prox_block, validate_upper_bound
from .schedule import (
    Schedule,
    VirtualUpdate,
    make_schedule,
    virtual_updates,
)
from .engine import (
    Trace,
    bsum_sweep,
    reduce_two_block,
    reference_solve,
    run_a2bsum,
    run_bsum,
    run_sum,
)
from .diagnostics import (
    RateCertificate,
    CheckReport,
    check_cost_to_go,
    check_nesterov_inequality,
    check_rate_envelope,
    check_sufficient_descent,
    estimate_constants,
    fd_gradient_check,
    fit_decay_exponent,
    sigma_for,
)
from . import models

__all__ = [
    "BlockPartition", "ConstraintSet", "NonsmoothBlock", "Problem",
    "SmoothPart", "UnsupportedCombination", "all_space", "ball", "box",
    "nonneg", "block_gradient", "eval_objective", "feasible_start",
    "make_partition",
    "Surrogate", "make_surrogate", "prox_block", "validate_upper_bound",
    "Schedule", "VirtualUpdate", "make_schedule",
    "virtual_updates",
    "Trace", "bsum_sweep", "reduce_two_block", "reference_solve",
    "run_a2bsum", "run_bsum", "run_sum",
    "RateCertificate", "CheckReport", "check_cost_to_go",
    "check_nesterov_inequality", "check_rate_envelope", "check_sufficient_descent",
    "estimate_constants", "fd_gradient_check", "fit_decay_exponent", "sigma_for",
    "models",
]
