"""Hyperplane fitting with ordered-median criteria and norm-based residuals."""

from .criteria import Criterion, evaluate, evaluate_rcentrum, is_monotone, preset
from .evaluation import CvSummary, StripMetrics, kfold_cv, strip_metrics, synthetic_generate
from .geometry import (
    Block,
    Dataset,
    Hyperplane,
    LTau,
    Point,
    Polytope,
    Vertical,
    block_norm,
    dual_norm,
    inscribed_polytope,
    kappa,
    ltau_norm,
    marginal_variation,
    polar_polytope,
    projection_response,
    residual,
)
from .omp1d import OmpResult, candidate_set, gcod, solve_omp
from .solvers import (
    FitRequest,
    FitResult,
    brute_force_fit_2d,
    fit,
    fit_block_norm,
    fit_lad,
    fit_lss,
    fit_ltau_approx,
    fit_vertical_general,
    phi_at,
    sd_measure,
)

__version__ = "0.1.0"
