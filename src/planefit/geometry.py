"""Residual geometry: norms, dual norms, polytopes and point-to-hyperplane math.

Every distance used by the fitting solvers reduces to ``|beta . x| / D(beta)``
where D is the dual norm of the residual norm evaluated on the non-intercept
coefficients, or ``|beta_d|`` for the vertical (last-coordinate) residual.
This module holds the residual families, their duals, closest-point
projections and the small amount of polytope machinery (polars, inscribed
polygons) the block-norm solvers need.

Exponents of l-tau norms are carried as exact ``Fraction`` values so the
conjugate identity 1/tau + 1/nu = 1 never drifts; infinity is ``math.inf``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GeometryError",
    "DegenerateHyperplaneError",
    "UnsupportedDimensionError",
    "Point",
    "Dataset",
    "Hyperplane",
    "Polytope",
    "Vertical",
    "LTau",
    "Block",
    "conjugate_exponent",
    "ltau_norm",
    "block_norm",
    "norm_value",
    "dual_norm",
    "polar_polytope",
    "residual",
    "residual_vector",
    "projection_response",
    "marginal_variation",
    "kappa",
    "inscribed_polytope",
]

VERTEX_SYMMETRY_TOL = 1e-12
FACET_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input."""


class DegenerateHyperplaneError(GeometryError):
    """The residual denominator vanishes for this hyperplane."""


class UnsupportedDimensionError(GeometryError):
    """Operation not implemented for this dimension."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Point:
    """One observation in homogeneous form: coords[0] == 1, coords[1:] data."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.ndim != 1 or c.size < 2:
            raise GeometryError("point needs an intercept slot plus >= 1 coordinate")
        if c[0] != 1.0:
            raise GeometryError("coords[0] must be exactly 1 (intercept slot)")
        if not np.all(np.isfinite(c)):
            raise GeometryError("point coordinates must be finite")

    @property
    def dim(self) -> int:
        return self.coords.size - 1

    @property
    def observed(self) -> np.ndarray:
        """The observation without the intercept slot."""
        return self.coords[1:]


class Dataset:
    """n observations in d+1 homogeneous coordinates (leading column of ones)."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
            raise GeometryError("dataset must be an (n, d+1) matrix with n >= 1, d >= 1")
        if not np.all(m[:, 0] == 1.0):
            raise GeometryError("first column must be all ones")
        if not np.all(np.isfinite(m)):
            raise GeometryError("dataset entries must be finite")
        self.matrix = m

    @classmethod
    def from_observations(cls, obs: np.ndarray) -> "Dataset":
        """Build from raw (n, d) observations; the intercept column is synthesized."""
        obs = np.asarray(obs, dtype=float)
        if obs.ndim != 2:
            raise GeometryError("observations must be a 2-d array")
        return cls(np.column_stack([np.ones(len(obs)), obs]))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1] - 1

    @property
    def observations(self) -> np.ndarray:
        return self.matrix[:, 1:]

    def scaled(self, factor: float) -> "Dataset":
        return Dataset.from_observations(self.observations * factor)


@dataclass
class Hyperplane:
    """Coefficients beta of {y : beta0 + beta . y = 0} plus how they are scaled.

    normalization is one of "dual-unit" (||beta_-0||* == 1 under the norm the
    plane was fitted with), "vertical-unit" (beta[d] == -1) or "raw".
    """

    beta: np.ndarray
    normalization: str = "raw"

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.ndim != 1 or self.beta.size < 2:
            raise GeometryError("beta must be a vector of length d+1 >= 2")
        if not np.all(np.isfinite(self.beta)):
            raise GeometryError("beta must be finite")
        if self.normalization not in ("dual-unit", "vertical-unit", "raw"):
            raise GeometryError(f"unknown normalization {self.normalization!r}")
        if self.normalization == "vertical-unit" and self.beta[-1] != -1.0:
            raise GeometryError("vertical-unit normalization requires beta[d] == -1")

    @property
    def dim(self) -> int:
        return self.beta.size - 1

    @property
    def tail(self) -> np.ndarray:
        """beta without the intercept coefficient."""
        return self.beta[1:]

    @classmethod
    def from_slope_intercept(cls, slope: float, intercept: float) -> "Hyperplane":
        """2-d line y = slope*x + intercept in vertical-unit form."""
        return cls(np.array([intercept, slope, -1.0]), "vertical-unit")

    def slope_intercept(self) -> tuple[float, float]:
        if self.dim != 2 or self.beta[2] == 0.0:
            raise DegenerateHyperplaneError("line has no slope/intercept form")
        return -self.beta[1] / self.beta[2], -self.beta[0] / self.beta[2]


def _scale(a: np.ndarray) -> float:
    """The least power of two at or above max |a| (1 for a zero array).

    Geometry tolerances are taken times the scale of the points they compare,
    so a ball and its polar pass the same checks at any size; a power of two
    keeps the product exact.
    """
    mantissa, exponent = math.frexp(float(np.abs(a).max(initial=0.0)))
    return math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent)


def _mirror_close(a: np.ndarray) -> np.ndarray:
    """G x G: row g lies within ``VERTEX_SYMMETRY_TOL`` of the mirror image of
    row h, every coordinate, at a's own scale (``_sum_gap``, ``_scale``)."""
    return _sum_gap(a) < VERTEX_SYMMETRY_TOL * _scale(a)


def _check_symmetric(vertices: np.ndarray) -> None:
    if not _mirror_close(vertices).any(axis=1).all():
        raise GeometryError("polytope vertices are not symmetric about the origin")


def _hull_order_2d(vertices: np.ndarray) -> np.ndarray:
    """Counter-clockwise extreme points of a centrally symmetric 2-d vertex set."""
    angles = np.arctan2(vertices[:, 1], vertices[:, 0])
    order = np.lexsort((np.linalg.norm(vertices, axis=1), angles))
    pts = vertices[order]
    # drop angle-duplicates, keeping the farthest point
    keep = []
    for p in pts:
        if keep and abs(math.atan2(p[1], p[0]) - math.atan2(keep[-1][1], keep[-1][0])) < 1e-14:
            keep[-1] = p
        else:
            keep.append(p)
    pts = np.array(keep)
    # Graham-style pruning of non-extreme points (origin interior, so the
    # angular sweep already orders the hull); a cross product is an area
    area = 1e-14 * _scale(pts) ** 2
    changed = True
    while changed and len(pts) > 2:
        changed = False
        out = []
        m = len(pts)
        for i in range(m):
            a, b, c = pts[(i - 1) % m], pts[i], pts[(i + 1) % m]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross > area:
                out.append(b)
            else:
                changed = True
        pts = np.array(out)
    return pts


def _facets_2d(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Facets a.x <= b of the hull whose extreme points ``_hull_order_2d``
    returned, one per edge."""
    m = len(ordered)
    A = np.empty((m, 2))
    b = np.empty(m)
    for i in range(m):
        v1, v2 = ordered[i], ordered[(i + 1) % m]
        a = np.array([v2[1] - v1[1], v1[0] - v2[0]])
        rhs = a @ v1
        if rhs < 0:
            a, rhs = -a, -rhs
        if rhs <= 0:
            raise GeometryError("origin is not strictly interior to the polytope")
        A[i], b[i] = a, rhs
    return A, b


def _facets_3d(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = _scale(vertices)
    seen = {}
    for i, j, k in itertools.combinations(range(len(vertices)), 3):
        v1, v2, v3 = vertices[i], vertices[j], vertices[k]
        normal = np.cross(v2 - v1, v3 - v1)
        norm = np.linalg.norm(normal)
        if norm < 1e-12 * s * s:
            continue
        normal = normal / norm
        rhs = normal @ v1
        if rhs < 0:
            normal, rhs = -normal, -rhs
        if rhs < 1e-12 * s:
            continue
        if np.all(vertices @ normal <= rhs + FACET_TOL * s):
            key = tuple(np.round(np.append(normal, rhs / s), 9))
            seen[key] = (normal, rhs)
    if not seen:
        raise GeometryError("no supporting facets found; vertex set is degenerate")
    A = np.array([a for a, _ in seen.values()])
    b = np.array([r for _, r in seen.values()])
    return A, b


@dataclass
class Polytope:
    """Symmetric polytope given by extreme points and supporting facets a.x <= b."""

    vertices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.facet_normals = np.asarray(self.facet_normals, dtype=float)
        self.facet_offsets = np.asarray(self.facet_offsets, dtype=float)
        _check_symmetric(self.vertices)
        if np.any(self.facet_offsets <= 0):
            raise GeometryError("origin must be strictly interior (every offset > 0)")
        slack = self.vertices @ self.facet_normals.T - self.facet_offsets
        tol = FACET_TOL * _scale(self.vertices) * _scale(self.facet_normals)
        if slack.max() > tol:
            raise GeometryError("a vertex violates a facet inequality")
        tight_counts = (np.abs(slack) <= tol).sum(axis=0)
        if np.any(tight_counts < self.dim):
            raise GeometryError("every facet must be tight at >= d vertices")

    @classmethod
    def from_vertices(cls, vertices: np.ndarray) -> "Polytope":
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2:
            raise GeometryError("vertices must be an (G, d) array")
        d = vertices.shape[1]
        _check_symmetric(vertices)
        if d == 2:
            vertices = _hull_order_2d(vertices)
            A, b = _facets_2d(vertices)
        elif d == 3:
            A, b = _facets_3d(vertices)
        else:
            raise UnsupportedDimensionError(
                "facet enumeration is implemented for d <= 3; supply facets explicitly"
            )
        return cls(vertices, A, b)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]


# residual norm specifications ----------------------------------------------


@dataclass(frozen=True)
class Vertical:
    """Vertical distance in the last coordinate (not norm-induced)."""


def _as_tau(tau) -> Fraction | float:
    if tau == math.inf:
        return math.inf
    frac = Fraction(tau) if not isinstance(tau, Fraction) else tau
    if frac < 1:
        raise GeometryError("tau must be >= 1")
    return frac


def conjugate_exponent(tau) -> Fraction | float:
    """nu with 1/tau + 1/nu = 1, computed exactly; 1 <-> inf."""
    tau = _as_tau(tau)
    if tau == math.inf:
        return Fraction(1)
    if tau == 1:
        return math.inf
    return tau / (tau - 1)


@dataclass(frozen=True)
class LTau:
    """l-tau residual; tau is an exact rational >= 1 or math.inf."""

    tau: Fraction | float

    def __post_init__(self):
        object.__setattr__(self, "tau", _as_tau(self.tau))

    @property
    def nu(self) -> Fraction | float:
        return conjugate_exponent(self.tau)


@dataclass(frozen=True)
class Block:
    """Block (polyhedral) residual with unit ball ``ball`` and its polar."""

    ball: Polytope
    polar: Polytope = None

    def __post_init__(self):
        if self.polar is None:
            object.__setattr__(self, "polar", polar_polytope(self.ball))


NormSpec = Vertical | LTau | Block


# ---------------------------------------------------------------------------
# norms and duals


def ltau_norm(v: np.ndarray, tau) -> float:
    """(sum |v_k|^tau)^(1/tau), or max |v_k| for tau = inf."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise GeometryError("ltau_norm requires finite input")
    return float(_ltau_rows(v.reshape(1, -1), tau)[0])


def _ltau_rows(m: np.ndarray, tau) -> np.ndarray:
    """l-tau norm of each row of m.  The root is taken one row at a time:
    numpy's vectorised power can differ from C pow in the last bit, and a
    norm must not depend on how many rows share the call."""
    tau = _as_tau(tau)
    a = np.abs(m)
    if tau == math.inf:
        return a.max(axis=1)
    if tau == 1:
        return a.sum(axis=1)
    t = float(tau)
    return np.array([s ** (1.0 / t) for s in (a**t).sum(axis=1)])


def block_norm(v: np.ndarray, norm: Block) -> float:
    """Polyhedral norm as the max inner product with the polar's vertices."""
    v = np.asarray(v, dtype=float)
    if norm.polar.n_vertices == 0:
        raise GeometryError("block norm needs a nonempty polar vertex set")
    return float(np.abs(norm.polar.vertices @ v).max())


def norm_value(v: np.ndarray, norm: NormSpec) -> float:
    """The residual norm itself evaluated at v."""
    if isinstance(norm, LTau):
        return ltau_norm(v, norm.tau)
    if isinstance(norm, Block):
        return block_norm(v, norm)
    raise GeometryError("vertical distance is not induced by a norm")


def dual_norm(v: np.ndarray, norm: NormSpec) -> float:
    """||v||* for the residual norm; max over the *ball* vertices for blocks."""
    if isinstance(norm, LTau):
        return ltau_norm(v, norm.nu)
    if isinstance(norm, Block):
        v = np.asarray(v, dtype=float)
        return float(np.abs(norm.ball.vertices @ v).max())
    raise GeometryError("the vertical residual has no dual norm")


def _sum_gap(a: np.ndarray) -> np.ndarray:
    """The G x G matrix of max_k |a[g, k] + a[h, k]|, the distance from row g
    to the mirror image of row h, one coordinate at a time."""
    gap = np.abs(a[:, 0, None] + a[None, :, 0])
    for k in range(1, a.shape[1]):
        np.maximum(gap, np.abs(a[:, k, None] + a[None, :, k]), out=gap)
    return gap


def first_of_each_class(a: np.ndarray) -> list[int]:
    """Greedy first-occurrence choice of one row of each mirror pair.

    Row g is close to row h when every coordinate of a[g] + a[h] is below
    ``VERTEX_SYMMETRY_TOL`` times a's scale in absolute value, as
    ``Polytope`` checks symmetry.  Row g is kept unless it is close to a row
    kept before it.  The G x G closeness matrix is computed once
    (``_mirror_close``).
    """
    close = _mirror_close(a)
    kept = []
    taken = np.zeros(len(a), dtype=bool)
    for g in range(len(a)):
        if not taken[g]:
            kept.append(g)
            taken |= close[g]
    return kept


def polar_polytope(p: Polytope) -> Polytope:
    """{v : v . b_g <= 1 for all vertices b_g}, with its own vertex list.

    Polar vertices are the facet normals of p scaled onto the offset-1 level:
    facet a.x <= b of p maps to vertex a/b of the polar, in facet order, so
    polar vertex b_g of a polygon has b_g . x = 1 on its edge g, from vertex
    g to vertex g + 1.  Facets of the polar are in turn induced by the
    vertices of p, so no second enumeration is run.
    """
    if p.dim > 3:
        raise UnsupportedDimensionError("polar computation is limited to d <= 3")
    vertices = p.facet_normals / p.facet_offsets[:, None]
    A = p.vertices.copy()
    b = np.ones(len(A))
    # keep only supporting rows (non-extreme vertices of p give slack rows)
    tight = (np.abs(vertices @ A.T - b) <= FACET_TOL).sum(axis=0)
    keep = tight >= p.dim
    return Polytope(vertices, A[keep], b[keep])


# ---------------------------------------------------------------------------
# residuals, projections, marginal variations


def _dual_of_tail(h: Hyperplane, norm: NormSpec) -> float:
    tail = h.tail
    if not np.any(tail):
        raise DegenerateHyperplaneError("beta_-0 is the zero vector")
    value = dual_norm(tail, norm)
    if value <= 0.0:
        raise DegenerateHyperplaneError("dual norm of beta_-0 vanishes")
    return value


def residual(h: Hyperplane, x: Point, norm: NormSpec) -> float:
    """Distance from x to H(beta) under the residual family ``norm``."""
    if isinstance(norm, Vertical):
        if h.beta[-1] == 0.0:
            raise DegenerateHyperplaneError(
                "vertical residual needs a nonzero coefficient on the last coordinate"
            )
        return abs(float(h.beta @ x.coords)) / abs(float(h.beta[-1]))
    return abs(float(h.beta @ x.coords)) / _dual_of_tail(h, norm)


def residual_vector(h: Hyperplane, data: Dataset, norm: NormSpec) -> np.ndarray:
    """Vectorized residuals for a whole dataset."""
    values = np.abs(data.matrix @ h.beta)
    if isinstance(norm, Vertical):
        if h.beta[-1] == 0.0:
            raise DegenerateHyperplaneError(
                "vertical residual needs a nonzero coefficient on the last coordinate"
            )
        return values / abs(float(h.beta[-1]))
    return values / _dual_of_tail(h, norm)


def steepest_direction(tail: np.ndarray, norm: NormSpec) -> np.ndarray:
    """k(beta) = argmax of beta_-0 . z over the unit ball of the residual norm.

    Ties are broken toward the lowest index so the output is deterministic;
    the residual value itself does not depend on the choice.
    """
    tail = np.asarray(tail, dtype=float)
    if isinstance(norm, LTau):
        tau = norm.tau
        if tau == 1:
            k = int(np.argmax(np.abs(tail)))
            out = np.zeros_like(tail)
            out[k] = math.copysign(1.0, tail[k])
            return out
        if tau == math.inf:
            return np.sign(tail)
        nu = float(norm.nu)
        t = float(tau)
        num = np.sign(tail) * np.abs(tail) ** (nu / t)
        den = float(np.sum(np.abs(tail) ** nu)) ** (1.0 / t)
        return num / den
    if isinstance(norm, Block):
        scores = norm.ball.vertices @ tail
        g = int(np.argmax(scores))
        return norm.ball.vertices[g].copy()
    raise GeometryError("no steepest direction for the vertical residual")


def projection_response(h: Hyperplane, x: Point, norm: NormSpec) -> np.ndarray:
    """Closest point to x on H(beta); the response consistent with the residual."""
    if isinstance(norm, Vertical):
        if h.beta[-1] == 0.0:
            raise DegenerateHyperplaneError("vertical response needs beta_d != 0")
        z = x.observed.copy()
        z[-1] = (h.beta[0] + h.tail[:-1] @ x.observed[:-1]) / (-h.beta[-1])
        return z
    dual = _dual_of_tail(h, norm)
    k = steepest_direction(h.tail, norm)
    return x.observed - (float(h.beta @ x.coords) / dual) * k


def marginal_variation(h: Hyperplane, j: int, norm: NormSpec) -> float:
    """Rate of change of the projected last coordinate per unit of coordinate j.

    j is 1-based over the observed coordinates, 1 <= j <= d-1.
    """
    if not 1 <= j <= h.dim - 1:
        raise GeometryError(f"marginal variation needs 1 <= j <= d-1, got {j}")
    if isinstance(norm, Vertical):
        if h.beta[-1] == 0.0:
            raise DegenerateHyperplaneError("vertical response needs beta_d != 0")
        return float(h.beta[j] / (-h.beta[-1]))
    dual = _dual_of_tail(h, norm)
    k = steepest_direction(h.tail, norm)
    return float(-h.beta[j] * k[-1] / dual)


def kappa(norm: NormSpec, d: int) -> float:
    """Scale constant mapping |x_d - beta0| to the distance to {y_d = beta0}."""
    if isinstance(norm, (Vertical, LTau)):
        return 1.0
    top = float(np.abs(norm.ball.vertices[:, d - 1]).max())
    if top <= 0.0:
        raise GeometryError("unit ball is flat in the last coordinate")
    return 1.0 / top


def inscribed_polytope(tau, N: int) -> tuple[Polytope, float]:
    """Even-N polygon with vertices on the l-nu unit circle, nu conjugate to tau.

    Returns the polygon and its l-nu inradius r_P = min over facets of
    b_i / ||a_i||_tau, the largest r with r*||v||_P <= ||v||_nu <= ||v||_P.
    Its vertices run counter-clockwise; near tau = 1 nearly collinear ones
    are pruned (``_hull_order_2d``), so it can have fewer than N.
    """
    if N < 4 or N % 2 != 0:
        raise GeometryError("N must be an even integer >= 4")
    nu = conjugate_exponent(tau)
    angles = 2.0 * math.pi * np.arange(N) / N
    raw = np.column_stack([np.cos(angles), np.sin(angles)])
    vertices = raw / _ltau_rows(raw, nu)[:, None]
    poly = Polytope.from_vertices(vertices)
    return poly, _inscribed_radius(poly, tau)


def _inscribed_radius(poly: Polytope, tau) -> float:
    """r_P of a polytope inscribed in the l-nu unit ball, nu conjugate to
    tau: min over facets of b_i / ||a_i||_tau, capped at 1.

    A vertex with ||v||_nu > 1 + 1e-12 lies outside the ball, where r_P
    bounds nothing: ``GeometryError``.
    """
    if np.any(_ltau_rows(poly.vertices, conjugate_exponent(tau)) > 1.0 + 1e-12):
        raise GeometryError("the polytope is not inscribed in the l-nu unit ball")
    r_p = float((poly.facet_offsets / _ltau_rows(poly.facet_normals, tau)).min())
    return min(r_p, 1.0)

