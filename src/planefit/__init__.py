"""Hyperplane fitting with ordered-median criteria and norm-based residuals."""

from .criteria import Criterion, evaluate, is_monotone, preset
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
    fit,
    fit_lad,
    fit_lss,
    phi_at,
    sd_measure,
)

__version__ = "0.1.0"
