"""Reference computations that the tests check the library against.

None is part of the library: a dense grid scan is no solver, the
telescoped centrum identity recomputes ``evaluate`` by another sum, and the
alternating projection is an inexact stand-in for the exact one that the
solvers make.
"""

import math

import numpy as np

from planefit.criteria import Criterion, _ordered_median, _powered
from planefit.geometry import Dataset, NormSpec, Vertical, dual_norm
from planefit.solvers import FitResult, SolverError, _finalize


def brute_force_fit_2d(data: Dataset, criterion: Criterion, norm: NormSpec,
                       grid: tuple = None) -> FitResult:
    """Verification oracle: dense scan over direction x offset, one refinement.

    For norm residuals the direction sweeps half the dual unit sphere by
    angle; for vertical residuals it sweeps the slope range directly.
    """
    if data.dim != 2:
        raise SolverError("the brute-force oracle is two-dimensional")
    y = data.matrix[:, 2]
    x = data.matrix[:, 1]
    if grid is None:
        slope_span = 4.0 * (np.ptp(y) + 1.0) / max(np.ptp(x), 1e-9)
        grid = ((-slope_span, slope_span), (float(y.min() - np.ptp(y) - 1.0),
                                            float(y.max() + np.ptp(y) + 1.0)), 1e-2)
    (t_lo, t_hi), (o_lo, o_hi), resolution = grid

    vertical = isinstance(norm, Vertical)

    def scan(tl, th, ol, oh, steps):
        ts = np.linspace(tl, th, steps)
        os_ = np.linspace(ol, oh, steps)
        best = (np.inf, None)
        for t in ts:
            if vertical:
                res = np.abs(y - t * x - os_[:, None])
            else:
                direction = np.array([math.cos(t), math.sin(t)])
                scale = dual_norm(direction, norm)
                direction = direction / scale
                proj = data.matrix[:, 1:] @ direction
                res = np.abs(proj + os_[:, None])
            vals = _ordered_median(res, criterion.lam, criterion.p_float)
            k = int(np.argmin(vals))
            if vals[k] < best[0]:
                best = (float(vals[k]), (t, float(os_[k])))
        return best

    if not vertical:
        t_lo, t_hi = 0.0, math.pi
    steps = max(8, int(math.ceil((t_hi - t_lo) / max(resolution, 1e-9))) + 1)
    steps = min(steps, 2001)
    val, (t, o) = scan(t_lo, t_hi, o_lo, o_hi, steps)
    dt = (t_hi - t_lo) / (steps - 1)
    do = (o_hi - o_lo) / (steps - 1)
    val2, (t2, o2) = scan(t - dt, t + dt, o - do, o + do, 81)
    if val2 < val:
        t, o, val = t2, o2, val2
    if vertical:
        beta = np.array([o, t, -1.0])
    else:
        direction = np.array([math.cos(t), math.sin(t)])
        direction = direction / dual_norm(direction, norm)
        beta = np.concatenate([[o], direction])
    return _finalize(data, criterion, norm, beta, "oracle", 1)


def evaluate_rcentrum(criterion: Criterion, residuals) -> float:
    """Same value as ``planefit.criteria.evaluate``, via the telescoped
    centrum identity.

    With theta_k the sum of the k largest powered residuals,

        value = lam[0] * sum(eps^p) + sum_{r=2..n} (lam[r-1] - lam[r-2]) * theta_{n-r+1}

    The differences may be negative for non-monotone lam; the identity holds
    for any weights and provides an independent cross-check of ``evaluate``.
    """
    eps = np.asarray(residuals, dtype=float)
    if eps.shape != (criterion.n,):
        raise ValueError(
            f"residual vector has length {eps.size}, criterion expects {criterion.n}"
        )
    if np.any(eps < 0):
        raise ValueError("residuals must be nonnegative")
    powered = np.sort(_powered(eps, criterion.p))  # nondecreasing
    n = criterion.n
    lam = criterion.lam
    total = lam[0] * float(powered.sum())
    # suffix_sums[k] = sum of the k largest
    suffix = np.concatenate([[0.0], np.cumsum(powered[::-1])])
    for r in range(2, n + 1):
        diff = lam[r - 1] - lam[r - 2]
        if diff != 0.0:
            total += diff * suffix[n - r + 1]
    return float(total)


def alternating_projection(prob, v: np.ndarray) -> np.ndarray:
    """Cheap repeated projection onto the feasible set of a subproblem: each
    of at most 8 sweeps clips v to the bounds, then projects it onto the
    violated general half-spaces in turn.  Not the Euclidean projection
    where general rows meet, but feasible within round-off after a sweep
    that changes nothing."""
    lo, hi = prob.bounds.T
    for _ in range(8):
        v = np.minimum(np.maximum(v, lo), hi)
        done = True
        for row, rhs in zip(prob.rows, prob.rhs):
            gap = row @ v - rhs
            if gap > 1e-12:
                v -= gap / (row @ row) * row
                done = False
        if done:
            break
    return v
