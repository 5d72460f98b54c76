"""One-dimensional ordered-median location and the goodness-of-fit index.

The best constant model X_d = beta0 under a criterion (lam, p) minimizes

    f(beta0) = sum_i lam[i] * |x_i - beta0|_(i)^p

over the real line.  An optimal beta0 always lies in the candidate set made
of the breakpoints (the data values and the pairwise midpoints, where two
absolute residuals cross) and at most one stationary point of f inside each
interval between consecutive breakpoints.  Enumerating that set solves the
problem exactly, and the optimum normalizes the fitting objective into
GCoD = 1 - phi/phi0.

The set is found and scored in one pass over the sorted breakpoints, a block
of about ``_BLOCK_CELLS`` (intervals x points) at a time.  Inside an interval
the ranking of |x_i - beta0| is fixed, so one row-wise argsort at its
midpoint gives each point its weight, and f is a convex weighted power sum
there: f and f' at both exact endpoints are row-wise dot products, and an
interior minimum (only where f'(a) < 0 < f'(b)) is found by a vectorised
bisection over those rows.  For p = 1, f is linear on each interval and the
breakpoints alone are scored, by a blocked row sort.  With O(n^2)
breakpoints that is O(n^3 log n) time and O(n^2 + block) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Criterion
from .geometry import Dataset, NormSpec, Vertical, kappa

__all__ = ["OmpResult", "candidate_set", "solve_omp", "gcod"]

_BISECT_ITERS = 60
_BLOCK_CELLS = 1 << 18  # rows x points held by one block of the pass


@dataclass(frozen=True)
class OmpResult:
    beta0: float
    value: float
    candidates_evaluated: int


def _breakpoints(values: np.ndarray) -> np.ndarray:
    """Sorted data values and the pairwise midpoints strictly inside their range."""
    if values.size == 0:
        raise ValueError("values must be nonempty")
    base = np.unique(values)
    if base.size == 1:
        return base
    iu, ju = np.triu_indices(values.size, 1)
    mids = (values[iu] + values[ju]) / 2.0
    mids = mids[(mids > base[0]) & (mids < base[-1])]
    return np.unique(np.concatenate([base, mids]))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _sorted_objective(points: np.ndarray, values: np.ndarray,
                      lam: np.ndarray) -> np.ndarray:
    """f at every point for p = 1 (or where every residual is zero)."""
    rows = max(1, _BLOCK_CELLS // values.size)
    out = np.empty(points.size)
    for s in range(0, points.size, rows):
        res = np.abs(points[s: s + rows, None] - values[None, :])
        res.sort(axis=1)
        out[s: s + rows] = res @ lam
    return out


def _interval_pass(points: np.ndarray, values: np.ndarray, lam: np.ndarray,
                   p: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidates (breakpoints and stationary points) and f at each, p > 1."""
    n = values.size
    rows = max(1, _BLOCK_CELLS // n)
    # f does not depend on the order of the points; sorted, each row of
    # |m - x| is two sorted runs, which a stable sort merges in linear time
    values = np.sort(values)
    f_points = np.empty(points.size)
    roots, f_roots = [], []
    for s in range(0, points.size - 1, rows):
        ends = points[s: s + rows + 1]
        a, b = ends[:-1], ends[1:]
        # the ranking of |x - beta0| is fixed inside (a, b): read it at the midpoint
        order = np.argsort(np.abs((0.5 * (a + b))[:, None] - values[None, :]), axis=1,
                           kind="stable")
        weight = np.empty((a.size, n))
        np.put_along_axis(weight, order, lam[None, :], axis=1)
        del order
        diff = ends[:, None] - values[None, :]
        level = np.abs(diff)
        slope = level ** (p - 1.0)
        level *= slope                       # |beta0 - x|^p
        np.copysign(slope, diff, out=slope)  # each point's share of f' / p
        del diff
        f_points[s: s + a.size] = _rowdot(weight, level[:-1])
        # f is convex on [a, b]: an interior minimum needs f'(a) < 0 < f'(b)
        act = np.flatnonzero((_rowdot(weight, slope[:-1]) < 0.0)
                             & (_rowdot(weight, slope[1:]) > 0.0))
        if act.size:
            w = weight[act]
            lo, hi = a[act], b[act]
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                d = mid[:, None] - values[None, :]
                fm = _rowdot(w, np.copysign(np.abs(d) ** (p - 1.0), d))
                lo = np.where(fm <= 0.0, mid, lo)
                hi = np.where(fm >= 0.0, mid, hi)
            root = 0.5 * (lo + hi)
            roots.append(root)
            f_roots.append(_rowdot(w, np.abs(root[:, None] - values[None, :]) ** p))
    f_points[-1] = weight[-1] @ level[-1]
    cands = np.concatenate([points, *roots])
    objs = np.concatenate([f_points, *f_roots])
    # a root that rounds onto a breakpoint is the same candidate; keep the breakpoint
    cands, first = np.unique(cands, return_index=True)
    return cands, objs[first]


def candidate_set(values, lam, p) -> np.ndarray:
    """Sorted candidate locations guaranteed to contain an optimal beta0."""
    values = np.asarray(values, dtype=float)
    points = _breakpoints(values)
    if float(p) == 1.0 or points.size == 1:
        # piecewise linear between breakpoints: no interior stationary points
        return points
    return _interval_pass(points, values, np.asarray(lam, dtype=float), float(p))[0]


def solve_omp(values, lam, p) -> OmpResult:
    """Minimize the ordered-median of |x_i - beta0| by candidate enumeration.

    ``lam`` is nonnegative and ``p >= 1``, as a ``Criterion`` guarantees.
    """
    values = np.asarray(values, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pf = float(p)
    cands = _breakpoints(values)
    if pf == 1.0 or cands.size == 1:
        objs = _sorted_objective(cands, values, lam)
    else:
        cands, objs = _interval_pass(cands, values, lam, pf)
    best = int(np.argmin(objs))  # argmin takes the first, i.e. smallest beta0
    return OmpResult(float(cands[best]), float(objs[best]), int(cands.size))


def gcod(phi_star: float, data: Dataset, criterion: Criterion, norm: NormSpec) -> float:
    """Goodness of fit 1 - phi_star / phi0 against the best constant model.

    phi0 applies the scale constant kappa inside the residuals, so it enters
    the objective as kappa**p.  A dataset whose last coordinate is constant
    has phi0 == 0; it only admits a perfect fit (phi_star == 0 -> 1).
    """
    if phi_star < 0:
        raise ValueError("phi_star must be nonnegative")
    values = data.matrix[:, -1]
    kap = kappa(norm, data.dim) if not isinstance(norm, Vertical) else 1.0
    base = solve_omp(values, criterion.lam, criterion.p_float)
    phi0 = kap ** criterion.p_float * base.value
    if phi0 <= 0.0:
        if phi_star <= 1e-12:
            return 1.0
        raise ValueError("constant-model objective is zero but phi_star is positive")
    return 1.0 - phi_star / phi0
