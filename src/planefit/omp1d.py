"""One-dimensional ordered-median location and the goodness-of-fit index.

The best constant model X_d = beta0 under a criterion (lam, p) minimizes

    f(beta0) = sum_i lam[i] * |x_i - beta0|_(i)^p

over the real line.  An optimal beta0 always lies in the candidate set made
of the breakpoints (the data values and the pairwise midpoints, where two
absolute residuals cross) and at most one stationary point of f inside each
interval between consecutive breakpoints.  Enumerating that set solves the
problem exactly, and the optimum normalizes the fitting objective into
GCoD = 1 - phi/phi0.

For p = 1 and p = 2 (every preset but 1.5SUM) one sweep over the sorted
breakpoints scores them all.  With x sorted, a pair x_i < x_j swaps distance
ranks k = j - i - 1 and k + 1 at its midpoint, because exactly the points
between them are closer; on p = 1 a point also flips the sign of its
residual at its own value, at rank 0.  Each such event changes the sums
that fix f on an interval, (sum w x, sum w x^2) at p = 2 and
(sum w s, sum w s x) at p = 1 with w the rank weights and s the signs, by a
closed-form amount that carries lam[k+1] - lam[k].  So one argsort of the
event locations and one running sum give f on every interval: at p = 1 it
is linear there and only the breakpoints are scored, at p = 2 it is a
quadratic whose vertex S/W, when inside, is the interval's stationary
point.  The sums are taken on values centred at their median.  That is
O(n^2 log n) time and O(n^2) memory.

For other p (1.5SUM), f has no closed form on an interval, but each
interval between consecutive breakpoints fixes one weight per point, read
from a ranking at its midpoint, and f is convex there.  Nondecreasing lam
make f strictly convex on the whole line, since it is then a nonnegative
sum of k-sums of the strictly convex |x_i - beta0|^p, so it has one
minimizer: a binary search over the sorted breakpoints on the sign of f' at
an interval's right end finds the interval that holds it, at one argsort,
O(n log n), per step, and the minimizer is that interval's left end or the
root that bisection finds inside it.  That is O(n^2 log n) time, for
sorting the breakpoints, and O(n^2) memory.  Other lam visit every
interval: f at its left end, and where f'(a) < 0 < f'(b) the root inside,
found by the same bisection and scored with the same weights.  That is
O(n^3 log n) time and O(n^2) memory.

Every path has the same candidate set: the breakpoints and the interior
stationary points.  The winner, the first minimum so that ties go to the
smallest beta0, is scored again on the original values by one sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Criterion, _ordered_median, _rank_weights
from .geometry import Dataset, NormSpec, kappa

__all__ = ["OmpResult", "candidate_set", "solve_omp", "gcod"]

_BISECT_ITERS = 60
_SWEEP_CHUNK = 1 << 16  # events per chunk of the sweep
_VERTEX_SLACK = 2.0**-40  # share of the centred range a p = 2 vertex must clear an endpoint by


@dataclass(frozen=True)
class OmpResult:
    beta0: float
    value: float
    candidates_evaluated: int


def _checked(values, lam, p) -> tuple[np.ndarray, np.ndarray, float]:
    values = np.asarray(values, dtype=float)
    lam = np.asarray(lam, dtype=float)
    pf = float(p)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty vector")
    if lam.shape != values.shape:
        raise ValueError(f"lam has shape {lam.shape}, values has shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("lam weights must be finite and nonnegative")
    if not np.any(lam > 0):
        raise ValueError("at least one lam weight must be positive")
    if not 1.0 <= pf < np.inf:
        raise ValueError("p must be a finite number >= 1")
    return values, lam, pf


def _sorted_distinct(values: np.ndarray, first: bool = False):
    """``np.unique`` of finite 1-d values, bit for bit, without the
    ``numpy.ma`` import that ``np.unique`` makes on first use: the sorted
    distinct values and, with ``first``, the index of each one's first
    occurrence.  The plain sort is numpy's default kind, as in
    ``np.unique``, so of 0.0 and -0.0 the same one is kept."""
    if first:
        order = np.argsort(values, kind="mergesort")
        values = values[order]
    else:
        values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return (values[keep], order[keep]) if first else values[keep]


def _pairs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs i <= j of x (int32) and their midpoints.  The distinct
    midpoints are the breakpoints: the data values (i == j) and the pairwise
    midpoints, which all lie in [min x, max x]."""
    i, j = (ix.astype(np.int32) for ix in np.triu_indices(x.size))
    return i, j, (x[i] + x[j]) / 2.0


def _sweep(x: np.ndarray, lam: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidates and f at each, p in {1, 2}, from sorted values x.

    The events are the pairs i <= j of x, at their midpoints; a pair i == j
    is point i's sign flip at rank 0.  With step[0] = lam[0] and
    step[k] = lam[k] - lam[k-1], pair (i, j) moves the centred sums by
    step[j-i] * (x_i - x_j, x_i^2 - x_j^2) at p = 2, which is zero for i == j,
    and by -step[j-i] * (2, x_i + x_j) at p = 1.  Tied values need no special
    case: separating them by tiny offsets shows that the sums after the last
    event at a location are the exact ones of the interval to its right.
    """
    n = x.size
    i, j, mids = _pairs(x)
    order = np.argsort(mids)
    i = i[order]
    j = j[order]
    mids = mids[order]
    del order
    last = np.append(mids[1:] != mids[:-1], True)  # the last event at each point
    points = mids[last]
    del mids
    c = x[n // 2]
    xc = x - c
    step = np.diff(lam, prepend=0.0)
    total = lam.sum()
    # a p = 2 vertex on an endpoint (one-rank weights put it on a data value)
    # must not drift inside by the sums' rounding: it needs a margin
    slack = _VERTEX_SLACK * np.abs(xc).max()
    # left of every point, rank k holds the k-th smallest value and every sign is +1
    carry = np.array([total, lam @ xc] if p == 1.0 else [lam @ xc, lam @ (xc * xc)])
    f = np.empty(points.size)
    roots, f_roots, after = [], [], []
    lo = 0
    for s in range(0, i.size, _SWEEP_CHUNK):
        ii, jj = i[s: s + _SWEEP_CHUNK], j[s: s + _SWEEP_CHUNK]
        a, b = xc[ii], xc[jj]
        d = step[jj - ii]
        if p == 1.0:
            deltas = np.stack((-2.0 * d, -d * (a + b)))
        else:
            d *= a - b
            deltas = np.stack((d, d * (a + b)))
        np.cumsum(deltas, axis=1, out=deltas)
        deltas += carry[:, None]
        carry = deltas[:, -1].copy()
        # the sums on the interval right of each point that ends in this chunk
        u, v = deltas[:, np.flatnonzero(last[s: s + _SWEEP_CHUNK])]
        hi = lo + u.size
        pc = points[lo:hi] - c
        if p == 1.0:
            f[lo:hi] = v - pc * u
        else:
            f[lo:hi] = v - pc * (2.0 * u - total * pc)
            # each interval's quadratic has its vertex at u / total; the last
            # point has no interval to its right
            m = min(hi, points.size - 1) - lo
            vertex = u[:m] / total
            root = c + vertex
            left, right = points[lo: lo + m], points[lo + 1: lo + m + 1]
            k = np.flatnonzero((vertex > left - c + slack) & (vertex < right - c - slack)
                               & (root > left) & (root < right))
            roots.append(root[k])
            f_roots.append(v[k] - u[k] * vertex[k])
            after.append(lo + 1 + k)
        lo = hi
    if p == 1.0:
        return points, f
    after = np.concatenate(after)
    return (np.insert(points, after, np.concatenate(roots)),
            np.insert(f, after, np.concatenate(f_roots)))


def _interval_weights(a: float, b: float, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Each point's weight on the interval (a, b) between two breakpoints,
    whose ranking of |x - beta0| is fixed: read it at the midpoint."""
    return _rank_weights(lam, np.abs(0.5 * (a + b) - x))


def _slope(beta0: float, x: np.ndarray, weight: np.ndarray, p: float) -> float:
    """f' / p at beta0 under a fixed weight per point."""
    d = beta0 - x
    return float(weight @ np.copysign(np.abs(d) ** (p - 1.0), d))


def _root(a: float, b: float, x: np.ndarray, weight: np.ndarray, p: float) -> float:
    """The root of f' in (a, b) under a fixed weight per point, where
    f'(a) < 0 < f'(b), by bisection."""
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        fm = _slope(mid, x, weight, p)
        if fm <= 0.0:
            a = mid
        if fm >= 0.0:
            b = mid
    return 0.5 * (a + b)


def _bisect_convex(points: np.ndarray, x: np.ndarray, lam: np.ndarray,
                   p: float) -> tuple[np.ndarray, int]:
    """Sorted candidates and the index of the minimizer, for nondecreasing
    lam at p > 1, where f is strictly convex.

    Interval k = (points[k], points[k+1]) has one weight per point, and its
    one-sided slopes at both ends increase with k.  A binary search finds
    the first interval whose slope at its right end is positive.  The
    minimizer is its left end when the slope there is not negative, else
    the root inside it.
    """
    lo, hi = 0, points.size - 2
    while lo < hi:
        k = (lo + hi) // 2
        weight = _interval_weights(points[k], points[k + 1], x, lam)
        if _slope(points[k + 1], x, weight, p) > 0.0:
            hi = k
        else:
            lo = k + 1
    a, b = points[lo], points[lo + 1]
    weight = _interval_weights(a, b, x, lam)
    if _slope(a, x, weight, p) >= 0.0:
        return points, lo
    root = _root(a, b, x, weight, p)
    # a root that rounds onto a breakpoint is that breakpoint
    if root in (a, b):
        return points, lo + int(root == b)
    return np.insert(points, lo + 1, root), lo + 1


def _every_interval(points: np.ndarray, x: np.ndarray, lam: np.ndarray,
                    p: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted candidates and f at each, for any lam at p > 1.

    Each interval scores its left end, the last one also its right end,
    and, f being convex on it, its root where f'(a) < 0 < f'(b), all with
    its own weights.
    """
    f = np.empty(points.size)
    roots, f_roots = [], []
    for k in range(points.size - 1):
        a, b = points[k], points[k + 1]
        weight = _interval_weights(a, b, x, lam)
        f[k] = weight @ np.abs(a - x) ** p
        if _slope(a, x, weight, p) < 0.0 < _slope(b, x, weight, p):
            roots.append(_root(a, b, x, weight, p))
            f_roots.append(weight @ np.abs(roots[-1] - x) ** p)
    f[-1] = weight @ np.abs(points[-1] - x) ** p
    # a root that rounds onto a breakpoint is the same candidate; keep the breakpoint
    cands, first = _sorted_distinct(np.concatenate([points, roots]), first=True)
    return cands, np.concatenate([f, f_roots])[first]


def _minimized(values: np.ndarray, lam: np.ndarray, p: float) -> tuple[np.ndarray, int]:
    """Sorted candidates and the index of the first minimizer among them."""
    if p in (1.0, 2.0):
        cands, objs = _sweep(np.sort(values), lam, p)
        return cands, int(np.argmin(objs))  # the first, i.e. smallest beta0
    points = _sorted_distinct(_pairs(values)[2])
    if points.size == 1:
        return points, 0
    x = np.sort(values)
    if np.all(lam[1:] >= lam[:-1]):
        return _bisect_convex(points, x, lam, p)
    cands, objs = _every_interval(points, x, lam, p)
    return cands, int(np.argmin(objs))


def candidate_set(values, lam, p) -> np.ndarray:
    """Sorted candidate locations guaranteed to contain an optimal beta0."""
    return _minimized(*_checked(values, lam, p))[0]


def solve_omp(values, lam, p) -> OmpResult:
    """Minimize the ordered-median of |x_i - beta0| over its candidate set.

    ``lam`` is a finite nonnegative vector with a positive entry, one per
    value, and ``p >= 1``, as a ``Criterion`` guarantees; anything else
    raises ``ValueError``.  Ties go to the smallest beta0.
    ``candidates_evaluated`` is the size of the candidate set; the bisection
    for nondecreasing lam at p not in {1, 2} probes O(log n) of them.
    """
    values, lam, pf = _checked(values, lam, p)
    cands, best = _minimized(values, lam, pf)
    beta0 = float(cands[best])
    # the sweep's sums are centred and an interval's ranking is read at a
    # rounded midpoint: score the winner on the original values
    value = _ordered_median(np.abs(values - beta0), lam, pf)
    return OmpResult(beta0, float(value), int(cands.size))


def _phi0(data: Dataset, criterion: Criterion, norm: NormSpec) -> float:
    """The best constant model's objective.  It applies the scale constant
    kappa inside the residuals, so kappa enters as kappa**p."""
    p = criterion.p_float
    return kappa(norm, data.dim) ** p * solve_omp(data.matrix[:, -1], criterion.lam, p).value


def _index(phi_star: float, phi0: float) -> float:
    """1 - phi_star / phi0.  A dataset whose last coordinate is constant has
    phi0 == 0; it only admits a perfect fit (phi_star == 0 -> 1)."""
    if phi_star < 0:
        raise ValueError("phi_star must be nonnegative")
    if phi0 <= 0.0:
        if phi_star <= 1e-12:
            return 1.0
        raise ValueError("constant-model objective is zero but phi_star is positive")
    return 1.0 - phi_star / phi0


def gcod(phi_star: float, data: Dataset, criterion: Criterion, norm: NormSpec) -> float:
    """Goodness of fit 1 - phi_star / phi0 against the best constant model."""
    return _index(phi_star, _phi0(data, criterion, norm))
