"""Fitting algorithms for every criterion/residual combination.

Each subproblem is a chart of coefficient space, beta(v) = (v[0], G v[1:]
+ g), on which the residuals of the plane beta(v) are linear, |A v + c|
with A = [1, X G] and c = X g (``_LinearResiduals.chart``).  The offset
v[0] = beta_0 is free; the slopes v[1:] carry the normalization: vertical
residuals fix beta_d = -1, and a block norm restricted to a disjunct, a
facet of the polar of its unit ball on which the dual norm of beta_-0 is 1,
puts beta_-0 on that facet or on a chord across a polygon.
``_solve_subproblem`` sends each subproblem down exactly one route, whose
name is the fit's tag; a route returns its plane or raises:

* ``lp``: ``p == 1`` with nondecreasing weights, an exact LP, and
  max-type objectives lam_n max |r|^p (MAX, LQS with r = n) at any p, whose
  minimizer is the p = 1 one.  The weights are a sum of centrum terms, w
  times the sum of the k largest residuals, and each term enters through
  its minimax representation (no binaries): a pair of rows per residual,
  with a free column t only when k < n, so MAX, kC and SUM solve 2n rows;
* ``quantile-scan``: other one-rank objectives (any p) on two parameters,
  the pair-slope scan over the O(n^2) sorted candidate slopes as a branch
  and bound: the half-width of the narrowest window of r values is
  Lipschitz in the slope, so rounds of block-scored midpoints skip every
  slope that a bound between its scored neighbours shows cannot win, and
  the answer is the full scan's bit for bit;
* ``lts-scan``: p = 2 on two parameters with weights that are a leading
  block of h equal values, 1 < h < n (LTS), Hossjer's exact scan: in each
  cell of the pair-slope arrangement, every window of h consecutive
  residual values scored by its least-squares SSE, O(n^3 log n) time;
* ``exact-enum``: other ``p == 1`` objectives on two free parameters, exact
  enumeration of the breakpoint arrangement of the piecewise-linear
  objective: the vertices of its kink lines and of the finite ends of the
  slope interval, two more lines of the arrangement.  Nonincreasing weights
  need only the O(n^2) crossings of the residual zero lines (O(n^3) time,
  one block of scores in memory); other weights need every crossing of the
  O(n^2) kink lines, one line at a time (O(n^5) time, O(n^3) memory), and
  only for n <= EXACT_ENUM_MAX_N;
* ``milp``: ``p == 1`` with arbitrary weights and n <= MILP_MAX_N = 6, a
  big-M assignment MILP solved to optimality by best-first branch and
  bound, which returns the first integral node it pops, or raises
  ``SolverError`` once it has solved its node limit of node LPs; its root
  bound is 0, and at n = 7 MED takes thousands of nodes;
* ``lsq``, ``irls``, ``descent``: other nondecreasing weights at p > 1,
  constant at p = 2, constant at other p, or neither (no preset), by
  conditional gradient over the permutahedron of the weights;
* ``heuristic``: everything else, multistart concentration steps: re-fit on
  the currently selected weight assignment or, for one-rank weights at rank
  r, take the minimax fit of the r points with the smallest residuals.

The route is a function of the criterion and the number of free
parameters alone (``_route``), and every subproblem of a fit has d of
them, so ``fit`` tags its result with ``_route(criterion, d)``.  Every
route solves a unit-scaled subproblem and returns only its plane;
``_solve_subproblem``, the one place that knows units, scales each
subproblem once and scores the plane it gets back in data units, with
``criteria._ordered_median``, the one scorer of Phi.
``_conditional_gradient`` and the concentration re-fits share one
fixed-weight solver, ``_weighted_fit``.  Its least squares is exact: a
clip of the slope in d = 2, an enumeration of active constraint sets in
d >= 3.  Its IRLS stops at a tolerance, so
``irls`` proves nothing; nor does ``descent``, whose gap may stay open.

Each subproblem stores its feasible set split once, into per-parameter
bounds and general rows.  A block-norm fit has one disjunct per sign pair
of facets of the polar of its ball, the set beta_-0 ranges over, and keeps
the best.  In d >= 3 every disjunct is solved on its slice.  In d = 2 the polar
is a polygon and a disjunct is an edge of it, on which beta_-0 = V[a] +
s (V[a + 1] - V[a]) with 0 <= s <= 1.  Every d = 2 block fit, l1, linf, a
block-file ball or the inscribed polygon of an l-tau fit, searches the
first half of these edges, one formulation for every sector: a sector, a
range of edges, is solved on the chord between its end vertices.  When the
route is proven (``lp``, ``quantile-scan``, ``lts-scan``, ``exact-enum``,
``milp``, ``lsq``), the search is best first: a wider chord lies inside the
polygon and so bounds every edge of its sector from below, and is halved
only while that bound is not above the incumbent.  Every disjunct is solved
or pruned by a proven bound, and the answer is the flat scan's, from 8-14 of
16 solves at N = 32 and 15 of 160 at N = 320 on the 47-star sample.

``fit`` is the one path from a ``FitRequest`` to a ``FitResult``: one
random stream, one solve per subproblem, the vertical subproblem or the
block search, and its coefficients scored once (``_finalize``).
``_as_block`` is the one map from a request's norm and
``polytope_vertices`` (N, or the caller's inscribed polytope) to the block
it solves; an l-tau fit also takes its bracket and ``sd`` from that block.
``fit_lss`` and ``fit_lad`` are one-line requests to ``fit``.

Results carry the recomputed residual vector, the objective, the
goodness-of-fit index, a provenance tag and, for the polyhedral
approximation of l-tau residuals, certified lower/upper bounds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import lp as lpmod
from .criteria import Criterion, _ordered_median, _rank_weights, evaluate, is_monotone, preset
from .geometry import (
    Block,
    Dataset,
    DegenerateHyperplaneError,
    GeometryError,
    Hyperplane,
    LTau,
    NormSpec,
    Polytope,
    Vertical,
    _inscribed_radius,
    dual_norm,
    first_of_each_class,
    inscribed_polytope,
    polar_polytope,
    residual_vector,
)
# solve_omp is unused here but stays importable: perfbench/tracing.py wraps it by name
from .omp1d import _sorted_distinct, solve_omp  # noqa: F401
from .omp1d import gcod as gcod_index
from .rng import SplitMix64

__all__ = [
    "FitResult",
    "FitRequest",
    "SolverError",
    "DegenerateDataError",
    "fit",
    "fit_lss",
    "fit_lad",
    "sd_measure",
    "phi_at",
    "l1_ball",
    "linf_ball",
]

EXACT_ENUM_MAX_N = 60
MILP_MAX_N = 6
CG_ITERS = 200  # weighted fits per conditional-gradient solve (``_conditional_gradient``)
POLYTOPE_VERTICES = 32  # default N of the l-tau polyhedral approximation (API and CLI)
MULTISTART = 16  # default random starts of the concentration ``heuristic`` (API and CLI)
NODE_LIMIT = 100_000  # B&B node limit of the assignment MILP (``FitRequest.node_limit``)
_BLOCK_CELLS = 1 << 18  # rows x points per scored block (pair-slope scans, zero-line crossings)


class SolverError(RuntimeError):
    """A subproblem solver failed unexpectedly."""


class DegenerateDataError(SolverError):
    """The data does not determine the requested fit."""


@dataclass
class FitResult:
    hyperplane: Hyperplane
    phi_star: float
    gcod: float
    residuals: np.ndarray
    solver_tag: str
    subproblem_count: int = 1
    bounds: tuple[float, float] | None = None
    sd: float | None = None


@dataclass
class FitRequest:
    """One fit: (criterion, norm) on a dataset, and the options of its solve.

    ``polytope_vertices`` is the inscribed polyhedral approximation P_N of an
    l-tau fit: either N, the vertex count of the polygon generated in d = 2,
    or the caller's inscribed ``Polytope`` (the only way to fit l-tau in
    d >= 3), whose polar the fit is solved over (``_as_block``).

    ``node_limit`` caps the node LPs, the root included, that the branch
    and bound of the ``milp`` route solves, a safety stop that raises
    ``SolverError``.  It and ``NODE_LIMIT`` stay only because
    perfbench/workloads.py passes ``node_limit=`` by keyword: the next
    benchmark change drops the keyword, and the field goes after it.
    """

    dataset: Dataset
    criterion: Criterion
    norm: NormSpec
    seed: int = 0
    multistart: int = MULTISTART
    polytope_vertices: int | Polytope = POLYTOPE_VERTICES
    node_limit: int = NODE_LIMIT

    def __post_init__(self):
        if self.criterion.n != self.dataset.n:
            raise ValueError("criterion weight length must match the dataset size")
        value = self.polytope_vertices
        if isinstance(value, Polytope):
            if not isinstance(self.norm, LTau):
                raise ValueError(f"a supplied {value.n_vertices}-vertex polytope approximates "
                                 f"an l-tau norm only, not {self.norm!r}")
        elif not isinstance(value, numbers.Integral):
            raise ValueError(f"polytope_vertices must be an int N or a Polytope, not {value!r}")


def _sign_corners(d: int) -> np.ndarray:
    return np.array(np.meshgrid(*([[-1.0, 1.0]] * d))).T.reshape(-1, d)


def l1_ball(d: int = 2) -> Polytope:
    """Cross-polytope in any dimension; facets are the 2^d sign vectors."""
    corners = _sign_corners(d)
    return Polytope(np.vstack([np.eye(d), -np.eye(d)]), corners, np.ones(len(corners)))


def linf_ball(d: int = 2) -> Polytope:
    """Hypercube in any dimension; facets are the coordinate directions."""
    axes = np.vstack([np.eye(d), -np.eye(d)])
    return Polytope(_sign_corners(d), axes, np.ones(len(axes)))


# ---------------------------------------------------------------------------
# linear residual subproblems


@dataclass
class _LinearResiduals:
    """Residuals |A v + c| on one chart of coefficient space, on a feasible set.

    The chart is beta(v) = (v[0], G v[1:] + g) (``to_beta``): v[0] is the
    offset beta_0, which no chart constrains, and the slopes v[1:] move
    beta_-0 over an affine slice.  On observations X, A = [1, X G] and c =
    X g, so |A v + c| are the residuals of the plane beta(v) (``chart``).
    The feasible set is stored split: ``bounds`` is an (n_params, 2) array
    of per-parameter (lo, hi), infinite where open, and ``general`` holds
    the (row, rhs) pairs of ``row . v <= rhs`` with two or more nonzeros.
    A two-parameter chart has no general rows: its inequalities reduce to
    an interval on v[1] (``slope_interval``).
    """

    A: np.ndarray
    c: np.ndarray
    G: np.ndarray
    g: np.ndarray
    bounds: np.ndarray
    general: list

    @classmethod
    def chart(cls, data: Dataset, G: np.ndarray, g: np.ndarray,
              rows: np.ndarray | None = None,
              rhs: np.ndarray | None = None) -> "_LinearResiduals":
        """The chart (G, g) of ``data`` on the slopes with ``rows @ v[1:] <=
        rhs``: a single-variable row becomes a bound (the tightest on each
        side wins), so the polytope facets do not bloat the LPs; a constant
        row must hold.  An entry counts as nonzero above 1e-15 times its
        row's largest magnitude, so the split is the same at any size of the
        ball."""
        X = data.observations
        A = np.column_stack([np.ones(data.n), X @ G])
        bounds = np.array([(-np.inf, np.inf)] * A.shape[1])
        if rows is None:
            return cls(A, X @ g, G, g, bounds, [])
        size = np.abs(rows)
        nz = size > 1e-15 * size.max(axis=1, keepdims=True)
        count = nz.sum(axis=1)
        if np.any(rhs[count == 0] < -1e-12):
            raise SolverError("infeasible constant inequality in subproblem")
        single = np.flatnonzero(count == 1)
        j = nz[single].argmax(axis=1)
        coef = rows[single, j]
        limit = rhs[single] / coef
        np.minimum.at(bounds[1:, 1], j[coef > 0], limit[coef > 0])
        np.maximum.at(bounds[1:, 0], j[coef < 0], limit[coef < 0])
        general = [(np.r_[0.0, row], b) for row, b in zip(rows[count > 1], rhs[count > 1])]
        return cls(A, X @ g, G, g, bounds, general)

    @property
    def n_params(self) -> int:
        return self.A.shape[1]

    def to_beta(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([v[:1], self.G @ v[1:] + self.g])

    def residuals(self, v: np.ndarray) -> np.ndarray:
        return np.abs(self.A @ v + self.c)

    def feasible(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        return (bool(np.all((v >= self.bounds[:, 0] - tol) & (v <= self.bounds[:, 1] + tol)))
                and all(row @ v <= rhs + tol for row, rhs in self.general))

    def slope_interval(self) -> tuple[float, float]:
        """Feasible interval of v[1] of a two-parameter problem."""
        lo, hi = self.bounds[1]
        return float(lo), float(hi)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Cheap repeated projection: each sweep clips to the bounds, then
        projects onto the violated general half-spaces in turn."""
        lo, hi = self.bounds.T
        for _ in range(8):
            v = np.minimum(np.maximum(v, lo), hi)
            done = True
            for row, rhs in self.general:
                gap = row @ v - rhs
                if gap > 1e-12:
                    v -= gap / (row @ row) * row
                    done = False
            if done:
                break
        return v


def _vertical_problem(data: Dataset) -> _LinearResiduals:
    """beta_d = -1; parameters are (beta_0, ..., beta_{d-1})."""
    d = data.dim
    return _LinearResiduals.chart(data, np.eye(d, d - 1), -np.eye(d)[d - 1])


def _disjunct_problem(data: Dataset, ball: Polytope, g: int) -> _LinearResiduals:
    """Block-norm subproblem on the slice beta_-0 . b_g = 1.

    Parameters are (beta_0, y) with beta_-0 = base + Y y, Y an orthonormal
    basis of the hyperplane {w : w . b_g = 0}.
    """
    b_g = ball.vertices[g]
    d = data.dim
    base = b_g / (b_g @ b_g)
    # orthonormal completion of b_g
    Q, _ = np.linalg.qr(np.column_stack([b_g, np.eye(d)]))
    Y = Q[:, 1:d]
    # one row per other vertex b_h: beta_-0 . b_h <= 1 in the parameters.
    # Its right-hand side 1 - base . b_h is taken as b_g . (b_g - b_h) / |b_g|^2,
    # since 1 - base . b_h cancels on neighbouring vertices of a fine polygon
    others = np.delete(ball.vertices, g, axis=0)
    return _LinearResiduals.chart(data, Y, base, others @ Y, (b_g - others) @ b_g / (b_g @ b_g))


def _chord_problem(data: Dataset, p: np.ndarray, q: np.ndarray) -> _LinearResiduals:
    """Subproblem on the chord beta_-0 = p + s (q - p), 0 <= s <= 1, between
    two vertices of a polygon; parameters are (beta_0, s)."""
    prob = _LinearResiduals.chart(data, (q - p)[:, None], p)
    prob.bounds[1] = 0.0, 1.0
    return prob


# -- exact LP for p = 1 and monotone weights --------------------------------


def _centrum_blocks(lam: np.ndarray) -> list[tuple[int, float]]:
    """(k, weight) terms with Phi = sum_k w_k * (sum of the k largest):
    lam[0] on k = n, when positive, then each rise of lam."""
    n = lam.size
    blocks = [(n, float(lam[0]))] if lam[0] > 0 else []
    for r in range(2, n + 1):
        diff = lam[r - 1] - lam[r - 2]
        if diff > 0:
            blocks.append((n - r + 1, float(diff)))
    return blocks


def _abs_value_lp(prob: _LinearResiduals, cost: np.ndarray, bounds: list,
                  names: list | None = None, rows: list = (),
                  terms: list | None = None) -> lpmod.LinearProgram:
    """LP over v | further columns in which s_i >= |A_i v + c_i| - t.

    v takes ``prob.bounds`` (an infinite side is left open) and the columns
    after it take ``bounds``.  ``terms`` holds one (s, t) pair per block of
    rows: s is the first of the n columns s_1..s_n and t a column, or None
    for t = 0.  The default, one term (m, None), makes column m + i an
    eps_i >= |A_i v + c_i|.  Rows, in order: per term, the pair
    A_i v - t - s_i <= -c_i and -A_i v - t - s_i <= c_i for each i, then
    ``rows`` ((coeffs, relation, rhs) over all columns), then the general
    inequality rows of ``prob``.
    """
    n, m = prob.A.shape
    nv = cost.size
    v_bounds = [tuple(None if np.isinf(b) else b for b in pair) for pair in prob.bounds]
    problem = lpmod.LinearProgram(cost, bounds=v_bounds + list(bounds), names=names)
    pairs = np.zeros((n, 2, nv))
    pairs[:, 0, :m] = prob.A
    pairs[:, 1, :m] = -prob.A
    sides = np.column_stack([-prob.c, prob.c]).ravel().tolist()
    for s, t in [(m, None)] if terms is None else terms:
        block = pairs.copy()
        block[np.arange(n), :, s + np.arange(n)] = -1.0
        if t is not None:
            block[:, :, t] = -1.0
        problem.rows.extend(zip(block.reshape(2 * n, nv), itertools.repeat("<="), sides))
    for row, rel, rhs in rows:
        problem.add_row(row, rel, rhs)
    for row, rhs in prob.general:
        full = np.zeros(nv)
        full[:m] = row
        problem.add_row(full, "<=", rhs)
    return problem


def _build_monotone_lp(prob: _LinearResiduals, lam: np.ndarray) -> lpmod.LinearProgram:
    """One term per ``_centrum_blocks`` entry (k, w), w times the sum of the
    k largest |r_i|, which is the minimum over t of k t + sum_i
    max(|r_i| - t, 0) (Ogryczak and Tamir 2003): a free column t (named
    t<j>) and s_i >= |r_i| - t, s_i >= 0 (s<j>_i), at cost w (k t + sum_i
    s_i), in 2n rows.  A k = n term takes t = 0, so it has no t column and
    its s_i are eps_i >= |r_i| (e_i): SUM is lam[0] sum_i eps_i."""
    n, m = prob.A.shape
    costs = [np.zeros(m)]
    names = [f"b{j}" for j in range(m)]
    bounds = []
    terms = []
    col, j = m, 0
    for k, w in _centrum_blocks(lam):
        if k == n:
            terms.append((col, None))
            names += [f"e{i + 1}" for i in range(n)]
        else:
            j += 1
            terms.append((col + 1, col))
            costs.append(np.array([w * k]))
            names += [f"t{j}"] + [f"s{j}_{i + 1}" for i in range(n)]
            bounds.append((None, None))
            col += 1
        costs.append(np.full(n, w))
        bounds += [(0.0, None)] * n
        col += n
    return _abs_value_lp(prob, np.concatenate(costs), bounds, names, terms=terms)


def _solve_monotone_p1_lp(prob: _LinearResiduals, lam: np.ndarray) -> np.ndarray:
    """Exact LP: sum_k w_k (k t_k + sum_i max(|r_i| - t_k, 0)) (``_build_monotone_lp``)."""
    status = lpmod.solve_lp(_build_monotone_lp(prob, lam))
    if status.status != lpmod.OPTIMAL:
        raise SolverError(f"monotone LP subproblem ended with status {status.status}")
    return status.x[:prob.n_params]


# -- exact enumeration for p = 1, two parameters ----------------------------


def _nonincreasing(lam: np.ndarray) -> bool:
    return bool(np.all(lam[1:] <= lam[:-1]))


def _solve_p1_exact_2param(prob: _LinearResiduals, lam: np.ndarray) -> np.ndarray:
    """Exact two-parameter solve for p = 1 and arbitrary nonnegative weights.

    The objective is piecewise linear in (b0, t); its minimum sits at a
    crossing of two lines of its arrangement: the kink lines and the finite
    ends t = t_lo and t = t_hi of the feasible interval.  On an end, the
    kink lines cross at the breakpoints of the one-dimensional
    ordered-median problem in b0, one of which is its minimizer.  Which
    kink lines are needed depends on the weights:

    * nonincreasing weights (lam_1 >= ... >= lam_n, e.g. AkC): only the n
      residual zero lines r_i = 0.  By rearrangement, sum_j lam_j |r|_(j)
      is the minimum over permutations pi of the weighted-LAD objectives
      sum_i lam_pi(i) |r_i|.  Each of those is convex and linear on every
      cell of the zero-line arrangement cut to the strip, so it attains its
      minimum at a crossing of two zero lines or of a zero line with an
      end.  The ordered objective is nowhere above any of them, so its
      minimum is reached at one of those points too.  The O(n^2) crossings
      are scored a block of ``_BLOCK_CELLS`` cells at a time: O(n^3) time,
      O(n^2) pair indices plus one block in memory.
    * other weights: the zero lines and the matches r_i = +-r_j, L = n^2
      lines in all.  Each line is crossed with every later line in one
      vectorised step and the crossings inside the interval are scored, so
      the O(n^4) crossings cost O(n^5) time and a line's step O(n^3)
      memory.  The r_i = r_j lines come last; they carry no b0 term, are
      parallel to each other and to the ends (constant t) and cross only
      earlier lines, so the loop ends before them.
    """
    if prob.n_params != 2:
        raise SolverError("exact enumeration needs exactly two parameters")
    u = prob.c.astype(float)
    w = prob.A[:, 1].astype(float)
    t_lo, t_hi = prob.slope_interval()
    n = u.size

    def crossings(a1, b1, c1, a2, b2, c2):
        """(b0, t) where a1*b0 + b1*t = c1 meets a2*b0 + b2*t = c2, kept
        inside the t interval."""
        det = a1 * b2 - a2 * b1
        ok = np.abs(det) > 1e-12
        det = det[ok]
        b0s = (c1 * b2 - c2 * b1)[ok] / det
        ts = (a1 * c2 - a2 * c1)[ok] / det
        keep = (ts >= t_lo - 1e-12) & (ts <= t_hi + 1e-12) & np.isfinite(b0s)
        return b0s[keep], np.clip(ts[keep], t_lo, t_hi)

    best_val = np.inf
    best_v = None

    def consider(b0s: np.ndarray, ts: np.ndarray):
        nonlocal best_val, best_v
        if b0s.size == 0:
            return
        res = np.abs(b0s[:, None] + (u[None, :] + ts[:, None] * w[None, :]))
        vals = _ordered_median(res, lam)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_v = np.array([b0s[k], ts[k]])

    # lines alpha*b0 + beta*t = gamma: the finite ends, then the zero lines
    ends = np.array([t for t in (t_lo, t_hi) if np.isfinite(t)])
    La = np.concatenate([np.zeros(ends.size), np.ones(n)])
    Lb = np.concatenate([np.ones(ends.size), w])
    Lc = np.concatenate([ends, -u])
    if _nonincreasing(lam):
        pi, pj = np.triu_indices(La.size, 1)
        rows = max(1, _BLOCK_CELLS // n)
        for s in range(0, pi.size, rows):
            ii, jj = pi[s: s + rows], pj[s: s + rows]
            consider(*crossings(La[ii], Lb[ii], Lc[ii], La[jj], Lb[jj], Lc[jj]))
    else:
        iu, ju = np.triu_indices(n, 1)
        La = np.concatenate([La, np.full(iu.size, 2.0), np.zeros(iu.size)])
        Lb = np.concatenate([Lb, w[iu] + w[ju], w[iu] - w[ju]])
        Lc = np.concatenate([Lc, -(u[iu] + u[ju]), -(u[iu] - u[ju])])
        for i in range(La.size - iu.size):  # every line but the r_i = r_j ones
            consider(*crossings(La[i], Lb[i], Lc[i], La[i + 1:], Lb[i + 1:], Lc[i + 1:]))

    if best_v is None:
        raise SolverError("no feasible point enumerated")
    return best_v


# -- pair-slope scans on two parameters (quantile, trimmed squares) --------


def _pair_slopes(prob: _LinearResiduals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, w, cuts) of a two-parameter subproblem with residuals
    |v[0] + u + v[1] w|: ``cuts`` are the sorted distinct slopes at which two
    values of -(u + t w) cross, so their order is constant between two
    cuts, clipped to ``slope_interval()``, with its finite ends and 0."""
    u = prob.c.astype(float)
    w = prob.A[:, 1].astype(float)
    t_lo, t_hi = prob.slope_interval()
    iu, ju = np.triu_indices(u.size, 1)
    dw = w[iu] - w[ju]
    mask = np.abs(dw) > 1e-14
    cuts = -(u[iu] - u[ju])[mask] / dw[mask]
    extra = [t for t in (t_lo, t_hi, 0.0) if np.isfinite(t)]
    return u, w, _sorted_distinct(np.clip(np.concatenate([cuts, np.array(extra)]), t_lo, t_hi))


def _solve_quantile_2param(prob: _LinearResiduals, r: int) -> np.ndarray:
    """Exact minimizer over (b0, t) of the r-th smallest absolute residual.

    That is the centre line of the narrowest strip holding r points, so it
    solves every one-rank objective lam_r |r|_(r)^p (MED, LQS, LMS) at any
    p.  The optimal strip is supported by three points, two of them on the
    same boundary, so the optimal t is a crossing of two residual lines (or
    an endpoint of the feasible interval); for each candidate t the best b0
    is the midpoint of the narrowest window spanning r values, and the
    answer is the first (smallest-t) candidate of least half-width G(t).

    The O(n^2) sorted candidates are scored as a branch and bound on t
    (Piyavskii 1972), a block of rows at a time: one row-wise sort, window
    widths and minimum per block.  Every window's width moves at rate at
    most max w - min w in t, so G is L-Lipschitz with L = (max w - min w) / 2,
    and between two scored slopes a < b no t has G(t) below
    (G(a) + G(b) - L (b - a)) / 2.  Round one scores one block of
    min(rows, m) evenly spaced candidates, both ends included: all m of
    them when they fit one block, as at n <= 80 on a vertical fit, so no
    gap is left and the loop ends, with no case of its own.  Each later
    round keeps the gaps between neighbouring scored candidates whose bound
    is not above the least G so far times 1 + 1e-12, a gap beside a
    non-finite G among them, and scores their midpoints; once that least G
    is 0, as at r <= 2, it drops every gap at or right of the first 0, since
    G >= 0 and ties go to the smallest t.  It stops when no kept gap holds
    an unscored candidate.  So every skipped candidate has G above the
    final minimum, and the first minimum is the full scan's, bit for bit,
    from about 8% of the slopes at n = 200 and 0.4% at n = 800 on LMS fits.
    """
    u, w, cands = _pair_slopes(prob)
    n, m = u.size, cands.size
    rows = max(2, _BLOCK_CELLS // n)

    def scan(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-width G at each slope of ts, and the line of the first least."""
        vals = np.sort(-(u[None, :] + ts[:, None] * w[None, :]), axis=1)
        widths = vals[:, r - 1:] - vals[:, : n - r + 1]
        k = np.argmin(widths, axis=1)
        half = widths[np.arange(ts.size), k] / 2.0
        half[np.isnan(half)] = np.inf  # a NaN window never wins
        i = int(np.argmin(half))  # the first minimum, i.e. the smallest t
        return half, np.array([(vals[i, k[i]] + vals[i, k[i] + r - 1]) / 2.0, ts[i]])

    G = np.full(m, np.inf)
    seen = np.zeros(m, dtype=bool)
    first = min(rows, m)
    idx = np.arange(first) * (m - 1) // max(first - 1, 1)
    L = (w.max() - w.min()) / 2.0
    while idx.size:
        for s in range(0, idx.size, rows):
            G[idx[s: s + rows]] = scan(cands[idx[s: s + rows]])[0]
        seen[idx] = True
        at = np.flatnonzero(seen)
        a, b = at[:-1], at[1:]
        low = np.where(np.isfinite(G[at]), G[at], -np.inf)  # non-finite bounds nothing
        bound = (low[:-1] + low[1:] - L * (cands[b] - cands[a])) / 2.0
        keep = (b - a > 1) & ~(bound > G.min() * (1.0 + 1e-12))
        if G.min() == 0.0:  # G >= 0, so no slope right of the first 0 wins
            keep &= a < int(np.argmin(G))
        idx = (a[keep] + b[keep]) // 2
    i = int(np.argmin(G))
    if not G[i] < np.inf:
        raise SolverError("quantile scan found no candidate slope")
    return scan(cands[i: i + 1])[1]


def _window_sums(X: np.ndarray, h: int) -> np.ndarray:
    """Row-wise sums of every h consecutive entries, from one prefix sum."""
    cs = np.cumsum(X, axis=1)
    out = cs[:, h - 1:].copy()
    out[:, 1:] -= cs[:, : X.shape[1] - h]
    return out


def _solve_lts_2param(prob: _LinearResiduals, h: int) -> np.ndarray:
    """Exact minimizer over (b0, t) of the sum of the h smallest squared
    residuals (LTS); Hossjer's scan (Hossjer 1995).

    At the optimum the h smallest residuals |b0 - z_i| are h consecutive
    values of the sorted z = -(u + t w), and that order is constant inside
    each cell between two cuts of ``_pair_slopes``.  So one slope inside
    each cell gives an order, and each of its n - h + 1 windows is scored by
    its least-squares SSE: a convex quadratic in t, minimized with t clipped
    to the slope interval, from window sums of w, u, w^2, wu and u^2
    (prefix sums of values centred at their means).  Every window's SSE is
    at least the objective at its own minimizer and the optimal window is
    among them, so the best is optimal.  The cells are scored a block at a
    time, O(n^3 log n) time in all.  The winning window is fitted again by
    exact least squares.
    """
    u, w, cuts = _pair_slopes(prob)
    t_lo, t_hi = prob.slope_interval()
    n = u.size
    slopes = 0.5 * (cuts[1:] + cuts[:-1])
    if np.isinf(t_lo):
        slopes = np.insert(slopes, 0, cuts[0] - 1.0 - abs(cuts[0]))
    if np.isinf(t_hi):
        slopes = np.append(slopes, cuts[-1] + 1.0 + abs(cuts[-1]))
    if slopes.size == 0:  # t_lo == t_hi
        slopes = cuts
    uc = u - u.mean()
    wc = w - w.mean()
    best = (np.inf, None)
    rows = max(1, _BLOCK_CELLS // (8 * n))  # about eight rows x n arrays held at once
    for s in range(0, slopes.size, rows):
        order = np.argsort(-(uc[None, :] + slopes[s: s + rows, None] * wc[None, :]), axis=1)
        W, U = wc[order], uc[order]
        sw, su = _window_sums(W, h), _window_sums(U, h)
        cww = _window_sums(W * W, h) - sw * sw / h
        cwu = _window_sums(W * U, h) - sw * su / h
        del sw
        cuu = _window_sums(U * U, h) - su * su / h
        del su, W, U
        t = np.clip(np.divide(-cwu, cww, out=np.zeros_like(cww), where=cww > 0.0), t_lo, t_hi)
        sse = cuu + t * (2.0 * cwu + t * cww)
        i, k = np.unravel_index(int(np.argmin(sse)), sse.shape)
        if sse[i, k] < best[0]:
            best = (float(sse[i, k]), order[i, k: k + h].copy())
    if best[1] is None:
        raise SolverError("trimmed-squares scan found no window")
    window = np.zeros(n)
    window[best[1]] = 1.0
    return _least_squares(prob, window)


# -- big-M assignment MILP (p = 1, arbitrary weights, small n) --------------


def _build_assignment_milp(prob: _LinearResiduals, lam: np.ndarray) -> lpmod.MixedIntegerProgram:
    """Big-M ordering MILP: eps_i assigned to sorted slots theta_1 <= ... <= theta_n.

    The coefficient box and big-M are data-derived; optima outside the box
    (possible in principle for weight vectors that ignore some residuals)
    are cross-checked against the enumeration oracle in the test suite.
    """
    n, m = prob.A.shape
    span = float(np.abs(prob.c).max() + np.abs(prob.A).max() + 1.0)
    box = 16.0 * span
    big_m = 4.0 * (box * (1.0 + float(np.abs(prob.A).sum(axis=1).max())) + float(np.abs(prob.c).max()))
    boxed = replace(prob, bounds=np.where(np.isinf(prob.bounds), [-box, box], prob.bounds))
    # variables: v (m) | eps (n) | theta (n) | w (n*n binaries)
    nv = m + 2 * n + n * n
    cost = np.zeros(nv)
    cost[m + n: m + 2 * n] = lam
    bounds = [(0.0, None)] * (2 * n) + [(0.0, 1.0)] * (n * n)
    names = ([f"b{j}" for j in range(m)] + [f"e{i + 1}" for i in range(n)]
             + [f"th{j + 1}" for j in range(n)]
             + [f"w{i + 1}_{j + 1}" for i in range(n) for j in range(n)])

    def wcol(i, j):
        return m + 2 * n + i * n + j

    rows = []
    for i in range(n):
        for j in range(n):
            row = np.zeros(nv)
            row[m + i] = 1.0          # eps_i
            row[m + n + j] = -1.0     # theta_j
            row[wcol(i, j)] = big_m
            rows.append((row, "<=", big_m))
    for j in range(n):
        row = np.zeros(nv)
        for i in range(n):
            row[wcol(i, j)] = 1.0
        rows.append((row, "=", 1.0))
    for i in range(n):
        row = np.zeros(nv)
        for j in range(n):
            row[wcol(i, j)] = 1.0
        rows.append((row, "=", 1.0))
    for j in range(1, n):
        row = np.zeros(nv)
        row[m + n + j - 1] = 1.0
        row[m + n + j] = -1.0
        rows.append((row, "<=", 0.0))
    problem = _abs_value_lp(boxed, cost, bounds, names, rows)
    return lpmod.MixedIntegerProgram(problem, frozenset(range(m + 2 * n, nv)))


def _solve_p1_milp(prob: _LinearResiduals, lam: np.ndarray, node_limit: int) -> np.ndarray:
    """v of the assignment MILP, proven optimal; ``SolverError`` otherwise,
    naming the status and the node limit."""
    status = lpmod.solve_milp(_build_assignment_milp(prob, lam), node_limit=node_limit)
    if not status.is_optimal:
        raise SolverError(f"assignment MILP ended with status {status.status} after "
                          f"{status.nodes} nodes (node limit {node_limit})")
    return status.x[:prob.n_params]


# -- fixed-weight fits, conditional gradient, concentration steps ----------


def _least_squares(prob: _LinearResiduals, weights: np.ndarray) -> np.ndarray:
    """Minimize sum_i weights[i] * r_i(v)^2 over the feasible set, exactly.

    On two parameters the objective reduced to the slope is convex, so a
    free slope outside the slope interval moves to its nearer end and the
    offset is re-solved.  With more parameters an infeasible free solution
    is replaced by active-set enumeration (``_active_set_least_squares``).
    """
    sw = np.sqrt(weights)
    A = prob.A * sw[:, None]
    b = -prob.c * sw
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    if prob.n_params != 2:
        if prob.feasible(v, tol=1e-12):
            return v
        return _active_set_least_squares(prob, A, b)
    t = float(np.clip(v[1], *prob.slope_interval()))
    if t == v[1]:
        return v
    col = A[:, 0]
    return np.array([col @ (b - A[:, 1] * t) / (col @ col), t])


def _active_set_least_squares(prob: _LinearResiduals, A: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """min ||A v - b||^2 over the feasible set of ``prob`` by enumeration.

    The optimum is the least-squares point on the affine set where some
    linearly independent subset of the constraint rows (finite bounds and
    general rows) holds with equality, so every such subset of at most
    rank-many rows is solved (a QR of its rows gives a particular point and
    a null-space basis; least squares on the null space does the rest), and
    the best feasible one wins.  A d = 3 disjunct of the l1 or linf ball has
    at most 6 rows on 2 constrained parameters: 21 small solves.
    """
    m = prob.n_params
    rows = list(prob.general)
    for j, (lo, hi) in enumerate(prob.bounds):
        unit = np.eye(m)[j]
        if np.isfinite(hi):
            rows.append((unit, hi))
        if np.isfinite(lo):
            rows.append((-unit, -lo))
    G = np.array([row for row, _ in rows])
    h = np.array([rhs for _, rhs in rows])
    best = (np.inf, None)
    for k in range(1, np.linalg.matrix_rank(G) + 1):
        for subset in itertools.combinations(range(len(rows)), k):
            Q, R = np.linalg.qr(G[list(subset)].T, mode="complete")
            diag = np.abs(np.diag(R[:k]))
            if diag.min() <= 1e-12 * diag.max():
                continue  # dependent rows
            base = Q[:, :k] @ np.linalg.solve(R[:k].T, h[list(subset)])
            Z = Q[:, k:]
            z, *_ = np.linalg.lstsq(A @ Z, b - A @ base, rcond=None)
            v = base + Z @ z
            if prob.feasible(v):
                val = float(np.sum((A @ v - b) ** 2))
                if val < best[0]:
                    best = (val, v)
    if best[1] is None:
        raise SolverError("no feasible active set in constrained least squares")
    return best[1]


def _weighted_fit(prob: _LinearResiduals, weights: np.ndarray, p: float) -> np.ndarray:
    """Minimize sum_i weights[i] * |r_i(v)|^p for fixed per-point weights.

    p = 1 is an exact LP and p = 2 the exact ``_least_squares``.  Other p
    run IRLS on it with weights weights * |r|^(p-2): the full step for
    p < 2 (majorize-minimize), the step 1 / (p - 1) for p > 2, which is the
    Newton step since the Hessian of |r|^p is (p - 1) times the IRLS
    weight.  IRLS keeps the best iterate and stops at a relative change
    below 1e-14 or after 80 iterations, so it proves nothing.
    """
    if p == 1.0:
        n, m = prob.A.shape
        cost = np.concatenate([np.zeros(m), weights])
        problem = _abs_value_lp(prob, cost, [(0.0, None)] * n)
        status = lpmod.solve_lp(problem)
        if status.status != lpmod.OPTIMAL:
            raise SolverError(f"weighted LP re-fit ended with status {status.status}")
        return status.x[:m]
    v = _least_squares(prob, weights)
    if p == 2.0:
        return v
    step = 1.0 if p < 2.0 else min(1.0, 1.0 / (p - 1.0))
    best_val, best_v = float(weights @ prob.residuals(v) ** p), v
    prev = np.inf
    for _ in range(80):
        irls = weights * np.maximum(prob.residuals(v), 1e-10) ** (p - 2.0)
        v = v + step * (_least_squares(prob, irls) - v)
        val = float(weights @ prob.residuals(v) ** p)
        if val < best_val:
            best_val, best_v = val, v
        if abs(prev - val) < 1e-14 * max(1.0, val):
            break
        prev = val
    return best_v


def _conditional_gradient(prob: _LinearResiduals, lam: np.ndarray, p: float) -> np.ndarray:
    """The best v found for Phi(v) = sum_j lam_j |r(v)|_(j)^p, nondecreasing
    lam, p > 1, by conditional gradient on the dual.

    By rearrangement Phi(v) = max w . |r(v)|^p over the permutahedron of
    lam, so min Phi = max of the concave g(w) = min_v w . |r(v)|^p (Frank &
    Wolfe 1956).  v = ``_weighted_fit(w)`` gives the lower bound g(w) =
    w . |r(v)|^p and g's gradient |r(v)|^p; s = lam ranked by |r(v)| gives
    the upper bound s . |r|^p = Phi(v) (Jaggi 2013).  From w = lam ranked by
    |r(0)|, a convex combination of vertices, each pairwise step
    (Lacoste-Julien & Jaggi 2015) moves the share of the vertex a with the
    least a . |r|^p to s, all of it or one secant step on g's slope, until
    the best bounds agree within 1e-9 relative or CG_ITERS fits are made; a
    constant lam takes one fit.  At p = 2 the fits are exact and the lower
    bound is true; at other p it carries IRLS's tolerance.
    """
    w = _rank_weights(lam, np.abs(prob.c))
    shares = {w.tobytes(): 1.0}  # w as a convex combination of vertices
    upper, best_v, lower = np.inf, None, -np.inf
    v, fits = _weighted_fit(prob, w, p), 1
    while True:
        rp = prob.residuals(v) ** p
        s = _rank_weights(lam, rp)
        if s @ rp < upper:
            upper, best_v = float(s @ rp), v
        lower = max(lower, float(w @ rp))
        if upper - lower <= 1e-9 * upper or fits >= CG_ITERS:
            return best_v
        key = min(shares, key=lambda k: np.frombuffer(k) @ rp)
        a, share = np.frombuffer(key), shares.pop(key)
        # a sum of nonnegative terms, so no weight rounds below zero
        rest = sum((x * np.frombuffer(k) for k, x in shares.items()), np.zeros_like(lam))
        v, fits = _weighted_fit(prob, rest + share * s, p), fits + 1
        slope0, slope1 = (s - a) @ rp, (s - a) @ prob.residuals(v) ** p  # slope0 > 0
        step = share if slope1 >= 0.0 else share * slope0 / (slope0 - slope1)
        w = rest + (share - step) * a + step * s
        if step < share:
            shares[key] = share - step
            v, fits = _weighted_fit(prob, w, p), fits + 1
        shares[s.tobytes()] = shares.get(s.tobytes(), 0.0) + step


def _start_points(prob: _LinearResiduals, lam: np.ndarray, rng: SplitMix64,
                  count: int) -> list[np.ndarray]:
    """Least-squares/least-absolute starts, the matching quantile line, and
    random elemental subsets (parameters interpolating n_params points)."""
    n, m = prob.A.shape
    starts = []
    ones = np.ones(n)
    # a start that fails numerically is skipped; programming errors propagate
    skipped = (SolverError, np.linalg.LinAlgError)
    try:
        starts.append(_weighted_fit(prob, ones, 2.0))
    except skipped:
        pass
    try:
        starts.append(_weighted_fit(prob, ones, 1.0))
    except skipped:
        pass
    nz = np.flatnonzero(lam)
    if m == 2 and n >= 2:
        # the strip through the last weighted rank is a strong robust start
        try:
            starts.append(_solve_quantile_2param(prob, int(nz[-1]) + 1))
        except skipped:
            pass
    for _ in range(max(0, count)):
        # the first m distinct of 3m draws, in draw order
        idx = list(dict.fromkeys(rng.next_u64() % n for _ in range(3 * m)))[:m]
        if len(idx) == m:
            try:
                v = np.linalg.solve(prob.A[idx], -prob.c[idx])
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(v)):
                starts.append(prob.project(v))
    if not starts:
        starts.append(np.zeros(m))
    return starts


def _solve_concentration(prob: _LinearResiduals, lam: np.ndarray, p: float,
                         rng: SplitMix64, multistart: int) -> np.ndarray:
    """Multistart concentration steps from ``_start_points``: re-fit with the
    weights frozen at the current residual ranking or, for one-rank lam at
    rank r, take the minimax fit of the r points with the smallest residuals
    (the C-step of Rousseeuw & Van Driessen), whose largest residual is at
    most the old r-th smallest one and at least the new one, so no step
    raises Phi."""
    nz = np.flatnonzero(lam)
    r = nz[0] + 1 if nz.size == 1 else 0  # the rank of one-rank lam
    best = (np.inf, None)
    for v in _start_points(prob, lam, rng, multistart):
        for _ in range(60):
            res = prob.residuals(v)
            if r:
                keep = np.argsort(res, kind="stable")[:r]
                v_new = _solve_monotone_p1_lp(replace(prob, A=prob.A[keep], c=prob.c[keep]),
                                              lam[:r])
            else:
                v_new = _weighted_fit(prob, _rank_weights(lam, res), p)
            if np.allclose(v_new, v, atol=1e-12, rtol=0.0):
                v = v_new
                break
            v = v_new
        val = float(_ordered_median(prob.residuals(v), lam, p))
        if val < best[0] - 1e-12:
            best = (val, v.copy())
    if best[1] is None:
        raise SolverError("concentration search failed to produce a candidate")
    return best[1]


# ---------------------------------------------------------------------------
# dispatch per subproblem


PROVEN_ROUTES = frozenset({"lp", "quantile-scan", "lts-scan", "exact-enum", "milp", "lsq"})


def _route(criterion: Criterion, n_params: int) -> str:
    """The route every subproblem of ``criterion`` on ``n_params`` free
    parameters takes; it depends on nothing else, and names the fit's tag.
    ``lsq``, ``irls`` and ``descent`` share one solver."""
    lam = criterion.lam
    p = criterion.p_float
    n = lam.size
    one_rank = np.flatnonzero(lam).size == 1
    # a monotone one-rank weight sits on the largest residual: lam_n max|r|^p
    if is_monotone(criterion) and (p == 1.0 or one_rank):
        return "lp"
    if one_rank and n_params == 2:
        return "quantile-scan"
    h = np.flatnonzero(lam).size
    # a leading block of h equal weights at p = 2: trimmed squares
    if p == 2.0 and n_params == 2 and h < n and lam[0] > 0 and np.all(lam[:h] == lam[0]):
        return "lts-scan"
    if p == 1.0 and n_params == 2 and (_nonincreasing(lam) or n <= EXACT_ENUM_MAX_N):
        return "exact-enum"
    if p == 1.0 and n <= MILP_MAX_N:
        return "milp"
    if np.all(lam == lam[0]):  # p > 1: constant weights at p = 1 took "lp"
        return "lsq" if p == 2.0 else "irls"
    if is_monotone(criterion):
        return "descent"
    return "heuristic"


def _unit_scale(M: np.ndarray) -> np.ndarray:
    """Largest magnitude of each column of M; 1 for a zero column."""
    size = np.abs(M).max(axis=0)
    return np.where(size > 0.0, size, 1.0)


def _solve_subproblem(prob: _LinearResiduals, criterion: Criterion, *,
                      rng: SplitMix64, multistart: int,
                      node_limit: int) -> tuple[float, np.ndarray]:
    """(value, v) from the one route that fits the subproblem (``_route``);
    ``rng`` and ``multistart`` serve only the concentration ``heuristic``,
    ``node_limit`` only ``milp``.

    Phi is homogeneous: scaling the residuals by s scales it by s^p, and
    scaling lam by s scales it by s.  So the route solves the unit problem,
    each column of A and the offsets c divided by their largest magnitude
    (``_unit_scale``), bounds and general rows moved with them, and lam by its
    largest weight, on which every route's tolerances are relative.  It is
    the same chart scaled, (G / col[1:], g / row), so w maps to the plane of
    v = w row / col, beta(v) / row; v is scored here once in data units,
    lam . sort(|A v + c|)^p."""
    lam = criterion.lam
    p = criterion.p_float
    route = _route(criterion, prob.n_params)
    col = _unit_scale(prob.A)
    row = float(_unit_scale(prob.c))
    unit = _LinearResiduals(prob.A / col, prob.c / row, prob.G / col[1:], prob.g / row,
                            prob.bounds * col[:, None] / row,
                            [(a * row / col, b) for a, b in prob.general])
    weights = lam / lam.max()

    if route == "lp":
        # at p != 1 the weights are max-type, whose p = 1 minimizer is optimal
        w = _solve_monotone_p1_lp(unit, weights)
    elif route == "quantile-scan":
        w = _solve_quantile_2param(unit, int(np.flatnonzero(lam)[0]) + 1)
    elif route == "lts-scan":
        w = _solve_lts_2param(unit, np.flatnonzero(lam).size)
    elif route == "exact-enum":
        w = _solve_p1_exact_2param(unit, weights)
    elif route == "milp":
        w = _solve_p1_milp(unit, weights, node_limit)
    elif route in ("lsq", "irls", "descent"):
        w = _conditional_gradient(unit, weights, p)
    else:
        w = _solve_concentration(unit, weights, p, rng, multistart)
    v = w * row / col
    return float(_ordered_median(prob.residuals(v), lam, p)), v


# ---------------------------------------------------------------------------
# finalization


def _canonical_beta(beta: np.ndarray, norm: NormSpec) -> tuple[np.ndarray, str]:
    beta = np.asarray(beta, dtype=float)
    if isinstance(norm, Vertical):
        if beta[-1] == 0.0:
            raise DegenerateHyperplaneError("vertical fit produced beta_d == 0")
        return beta / (-beta[-1]), "vertical-unit"
    scale = dual_norm(beta[1:], norm)
    if scale <= 0.0:
        raise DegenerateHyperplaneError("fit produced a zero direction vector")
    beta = beta / scale
    tail = beta[1:]
    size = np.abs(tail)
    lead = tail[np.flatnonzero(size > 1e-12 * size.max())[0]]
    if lead < 0:
        beta = -beta
    return beta, "dual-unit"


def _finalize(data: Dataset, criterion: Criterion, norm: NormSpec, beta: np.ndarray,
              tag: str, subproblems: int, bounds=None, sd=None) -> FitResult:
    beta, normalization = _canonical_beta(beta, norm)
    plane = Hyperplane(beta, normalization)
    res = residual_vector(plane, data, norm)
    phi = evaluate(criterion, res)
    index = gcod_index(phi, data, criterion, norm)
    return FitResult(plane, phi, index, res, tag, subproblems, bounds, sd)


def phi_at(data: Dataset, criterion: Criterion, norm: NormSpec, plane: Hyperplane) -> float:
    """Objective value of an arbitrary hyperplane under (criterion, norm)."""
    return evaluate(criterion, residual_vector(plane, data, norm))


def export_formulation(request: FitRequest, path, beta: np.ndarray | None = None) -> None:
    """Write the p = 1 subproblem of ``request`` as an LP file for cross-checking.

    A norm residual exports one disjunct of the request's block
    (``_as_block``: for an l-tau approximation, the polar of the inscribed
    N-gon or supplied polytope that ``fit`` solves over).  It is the disjunct
    whose normalization equality is active at ``beta`` (the fitted
    coefficients), or the first sign-distinct vertex when no fit is supplied.
    """
    data, criterion = request.dataset, request.criterion
    if criterion.p != 1:
        raise SolverError("LP text export is defined for p = 1 formulations")
    if isinstance(request.norm, Vertical):
        prob = _vertical_problem(data)
    else:
        ball = _as_block(request.norm, data.dim, request.polytope_vertices).ball
        if beta is not None:
            scores = ball.vertices @ np.asarray(beta, dtype=float)[1:]
            g = int(np.argmax(scores))
        else:
            g = _sign_distinct(ball.vertices)[0]
        prob = _disjunct_problem(data, ball, g)
    if is_monotone(criterion):
        lpmod.export_lp_file(_build_monotone_lp(prob, criterion.lam), path)
    else:
        lpmod.export_lp_file(_build_assignment_milp(prob, criterion.lam), path)


# ---------------------------------------------------------------------------
# public fitting entry points


def fit_lss(data: Dataset) -> FitResult:
    """Classical least sum of squares on vertical residuals, the ``lsq`` route."""
    return fit(FitRequest(data, preset("SOS", data.n), Vertical()))


def fit_lad(data: Dataset) -> FitResult:
    """Least absolute deviation on vertical residuals, as a split-variable LP."""
    return fit(FitRequest(data, preset("SUM", data.n), Vertical()))


def _solve_block(data: Dataset, block: Block, solve,
                 proven: bool) -> tuple[np.ndarray, int]:
    """(beta, disjunct count) of the best disjunct of ``block``.

    ``solve(prob) -> (value, v)`` solves one subproblem.  There is one
    disjunct per sign pair of facets of ``block.polar``, the set on whose
    boundary beta_-0 has dual norm 1.  In d >= 3 each is solved on the slice
    beta_-0 . b_g = 1 of its ball vertex b_g (``_disjunct_problem``), in
    the order of ``_sign_distinct``.

    A polygon's n_v polar vertices V are put in counter-clockwise order
    (``_polygon_vertices``), so its first n_v / 2 edges, from V[a] to
    V[a + 1], are the disjuncts.  A sector [a, b), one edge wide or more,
    is solved on the chord from V[a] to V[b] (``_chord_problem``); one edge
    wide, the chord is the edge.  The chord lies inside the polygon and the objective
    is positively homogeneous in beta, so a wider sector's value bounds
    every edge it holds from below once ``solve`` is proven.  The search
    then starts from the edges of the coarsest polygon on every k-th
    vertex, n_v halved while the half is even and at least 4 (the 4-gon of
    a 32-gon, the 10-gon of a 320-gon, the 6-gon of a 24-gon); otherwise it
    starts, and ends, with every edge alone, in order.

    Best-first search: the starting sectors are solved in order and the
    wider ones queued by value.  The lowest queued sector is popped and
    its two halves solved while its key is not above the incumbent, the
    best edge value so far, by more than 1e-9 relative (LP round-off).  The
    margin has no absolute term, so the search is the same at any scale of
    the data; at a zero incumbent only keys of 0 are refined, since no value
    is below 0 and a positive bound cannot hold a better edge.  Keys pop in
    increasing order, so every sector holding the optimal edge is popped
    before any key above the optimum: the search expands exactly the sectors
    whose bound is not above the optimum.

    The winner is the first best solved disjunct in disjunct order (a later
    one wins only when lower by more than 1e-12 relative).  The count is
    the number of disjuncts, all of them solved or pruned.
    """
    solved = {}
    if block.polar.dim != 2:
        for g in _sign_distinct(block.ball.vertices):
            prob = _disjunct_problem(data, block.ball, g)
            val, v = solve(prob)
            solved[g] = (val, prob.to_beta(v))
        count = len(solved)
    else:
        V = _polygon_vertices(block)
        count = len(V) // 2
        width = 1
        while proven and count % (2 * width) == 0 and count // width >= 4:
            width *= 2
        queue = []
        incumbent = math.inf

        def visit(a, b):
            nonlocal incumbent
            prob = _chord_problem(data, V[a], V[b % len(V)])
            val, v = solve(prob)
            if b - a == 1:
                solved[a] = (val, prob.to_beta(v))
                incumbent = min(incumbent, val)
            else:
                # equal keys pop the wider sector first, then in edge order
                heapq.heappush(queue, (val, a - b, a, b))

        for a in range(0, count, width):
            visit(a, a + width)
        while queue and queue[0][0] <= incumbent * (1.0 + 1e-9):
            *_, a, b = heapq.heappop(queue)
            visit(a, (a + b) // 2)
            visit((a + b) // 2, b)

    best = None
    for val, beta in (solved[g] for g in sorted(solved)):
        if best is None or val < best[0] - 1e-12 * abs(best[0]):
            best = (val, beta)
    if best is None:
        raise SolverError("all disjuncts failed")
    return best[1], count


def _polygon_vertices(block: Block) -> np.ndarray:
    """The polar vertices of a d = 2 ``block`` in counter-clockwise order,
    from the angle nearest -pi.  Each is the normal of a ball edge, so each
    is extreme and none is dropped, not even where neighbouring normals of
    a fine ball lie 1e-11 apart; there is one per sign-distinct ball vertex
    and its mirror."""
    P = block.polar.vertices
    V = P[np.argsort(np.arctan2(P[:, 1], P[:, 0]), kind="stable")]
    if len(V) != 2 * len(_sign_distinct(block.ball.vertices)):
        raise GeometryError("a polar polygon needs one vertex per ball edge, "
                            "each extreme, in mirror pairs")
    return V


def _sign_distinct(vertices: np.ndarray) -> list[int]:
    """The first vertex of each +-pair (``first_of_each_class``), in order."""
    return first_of_each_class(np.asarray(vertices, dtype=float))


def _as_block(norm: NormSpec, d: int, N: int | Polytope = POLYTOPE_VERTICES) -> Block:
    """The block a norm residual is solved over, in dimension d: the one map
    from a request's (``norm``, ``polytope_vertices``) to the block ``fit``
    solves, ``export_formulation`` exports and ``sd_measure`` scores.

    An l-tau norm given a caller's inscribed ``Polytope`` N takes the block
    whose polar it is.  Otherwise l1 and linf, the two polytopal members of
    the l-tau family, are mutual polars in any d, and any other l-tau norm
    takes the polar of the N-gon inscribed in its dual l-nu ball (d = 2
    only), whose polar is that N-gon: ``fit`` reads r_P from it.  A
    ``Block`` is itself.  Every block's ball must be d-dimensional.
    """
    if isinstance(norm, LTau) and isinstance(N, Polytope):
        norm = Block(polar_polytope(N), N)
    if isinstance(norm, Block):
        if norm.ball.dim != d:
            raise GeometryError(f"a {norm.ball.dim}-d block ball cannot measure "
                                f"distances in {d}-d data")
        return norm
    if isinstance(norm, LTau):
        if norm.tau == 1:
            return Block(l1_ball(d), linf_ball(d))
        if norm.tau == math.inf:
            return Block(linf_ball(d), l1_ball(d))
        if d != 2:
            raise SolverError(f"inscribed polygons are generated for d = 2 only; an l-tau "
                              f"fit in d = {d} needs the caller's inscribed polytope "
                              "as FitRequest.polytope_vertices")
        poly, _ = inscribed_polytope(norm.tau, N)
        return Block(polar_polytope(poly), poly)
    raise SolverError("vertical residuals have no block form")


def _sd(d_tau: np.ndarray, d_poly: np.ndarray) -> float:
    """``sd_measure`` from the l-tau and the polyhedral residuals of one plane."""
    mask = d_tau > 0
    if not np.any(mask):
        return 0.0
    return float(np.sum((d_tau[mask] - d_poly[mask]) ** 2 / d_tau[mask]))


def sd_measure(data: Dataset, beta: np.ndarray, tau, approx_polytope: Polytope) -> float:
    """Squared-discrepancy score of a polyhedral stand-in for the l-tau distance.

    Sums (D_tau - D_P)^2 / D_tau over the points at positive l-tau distance,
    where D_P measures the same hyperplane with the block whose polar is the
    inscribed ``approx_polytope`` (``_as_block``).
    """
    plane = Hyperplane(beta)
    block = _as_block(LTau(tau), data.dim, approx_polytope)
    return _sd(residual_vector(plane, data, LTau(tau)), residual_vector(plane, data, block))


def fit(request: FitRequest) -> FitResult:
    """The one path from a request to a result, tagged with its route,
    ``_route(criterion, d)``: every subproblem has d free parameters.

    Vertical residuals are one subproblem; least squares (the ``lsq``
    route) has one solution only when n > d and the design, each column
    divided by its largest magnitude, has full rank, otherwise
    ``DegenerateDataError``.  A norm residual is solved over
    the disjuncts of its block (``_as_block``, ``_solve_block``), every
    subproblem drawing from one random stream in solve order.

    An l-tau norm with 1 < tau < inf, or one given the caller's inscribed
    polytope as ``polytope_vertices``, replaces the dual sphere
    ||beta_-0||_nu = 1 by the polytope P_N inscribed in the l-nu ball.  The
    block solve yields rho* and the returned coefficients are re-scored
    under the true l-tau distance, giving the certified bracket [rho*,
    rho* / r_P**p], the ``+inner-<n_v>gon`` tag and ``sd`` (see
    ``sd_measure``) from the residuals of both norms at the returned plane.
    The upper end holds for any plane; rho* is a lower bound only when the
    route is proven (``PROVEN_ROUTES``), and after ``irls``, ``descent`` or
    ``heuristic`` the lower end is 0, the one bound Phi >= 0 certifies.
    Without a polytope, tau = 1 and tau = inf are polyhedral norms, fitted
    exactly with no bracket.  In d = 2 a supplied polygon is searched like a
    generated one; in d >= 3 every sign-distinct facet is solved.
    """
    data, criterion, norm = request.dataset, request.criterion, request.norm
    rng = SplitMix64(request.seed)
    route = _route(criterion, data.dim)

    def solve(prob):
        return _solve_subproblem(prob, criterion, rng=rng, multistart=request.multistart,
                                 node_limit=request.node_limit)

    if isinstance(norm, Vertical):
        if route == "lsq":
            if data.n <= data.dim:
                raise DegenerateDataError("least squares needs n > d")
            design = data.matrix[:, :data.dim]
            if np.linalg.matrix_rank(design / _unit_scale(design)) < data.dim:
                raise DegenerateDataError("design matrix is rank deficient")
        prob = _vertical_problem(data)
        _, v = solve(prob)
        return _finalize(data, criterion, norm, prob.to_beta(v), route, 1)
    block = _as_block(norm, data.dim, request.polytope_vertices)
    inner = isinstance(norm, LTau) and (isinstance(request.polytope_vertices, Polytope)
                                        or 1 < norm.tau < math.inf)
    poly = block.polar
    r_p = _inscribed_radius(poly, norm.tau) if inner else None  # before solving: fails fast
    proven = route in PROVEN_ROUTES
    beta, count = _solve_block(data, block, solve, proven)
    if not inner:
        return _finalize(data, criterion, block, beta, route, count)
    beta, _ = _canonical_beta(beta, block)
    rho = phi_at(data, criterion, block, Hyperplane(beta, "dual-unit"))
    result = _finalize(data, criterion, norm, beta, f"{route}+inner-{poly.n_vertices}gon",
                       count, bounds=(rho if proven else 0.0, rho / r_p**criterion.p_float))
    result.sd = _sd(result.residuals, residual_vector(result.hyperplane, data, block))
    return result
