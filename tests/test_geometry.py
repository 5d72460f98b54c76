import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefit.geometry import (
    Block,
    DegenerateHyperplaneError,
    GeometryError,
    Hyperplane,
    LTau,
    Point,
    Polytope,
    UnsupportedDimensionError,
    Vertical,
    block_norm,
    conjugate_exponent,
    dual_norm,
    inscribed_polytope,
    kappa,
    ltau_norm,
    marginal_variation,
    norm_value,
    polar_polytope,
    projection_response,
    residual,
)
from planefit.lp import LinearProgram, solve_lp

L1_VERTICES = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
LINF_VERTICES = [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)]
HEX_VERTICES = [(2.0, 0.0), (2.0, 2.0), (-1.0, 2.0), (-2.0, 0.0), (-2.0, -2.0), (1.0, -2.0)]


def l1_block():
    return Block(Polytope.from_vertices(L1_VERTICES))


def hex_block():
    return Block(Polytope.from_vertices(HEX_VERTICES))


# ---------------------------------------------------------------------------
# norms


def test_ltau_norm_pythagorean():
    assert ltau_norm([3.0, 4.0], 2) == pytest.approx(5.0, abs=1e-12)


def test_ltau_norm_l1():
    assert ltau_norm([1.0, -1.0], 1) == pytest.approx(2.0, abs=1e-12)


def test_ltau_norm_linf():
    assert ltau_norm([1.0, -3.0, 2.0], math.inf) == pytest.approx(3.0, abs=1e-12)


def test_ltau_norm_fractional_exponent():
    # independent route: |2|^1.5 = 2*sqrt(2), then the 2/3 root via exp/log
    expected = math.exp((2.0 / 3.0) * math.log(1.0 + 1.0 + 2.0 * math.sqrt(2.0)))
    from fractions import Fraction

    assert ltau_norm([1.0, -1.0, 2.0], Fraction(3, 2)) == pytest.approx(expected, rel=1e-12)


def test_ltau_norm_rejects_nonfinite():
    with pytest.raises(GeometryError):
        ltau_norm([np.inf, 1.0], 2)


def test_conjugate_exponent_pairs():
    from fractions import Fraction

    assert conjugate_exponent(1) == math.inf
    assert conjugate_exponent(math.inf) == Fraction(1)
    assert conjugate_exponent(2) == Fraction(2)
    assert conjugate_exponent(Fraction(3, 2)) == Fraction(3)
    assert conjugate_exponent(3) == Fraction(3, 2)


def test_block_norm_unit_vector():
    assert block_norm(np.array([1.0, 0.0]), l1_block()) == pytest.approx(1.0, abs=1e-12)


def test_block_norm_vertices_have_norm_one():
    blk = hex_block()
    for v in blk.ball.vertices:
        assert block_norm(v, blk) == pytest.approx(1.0, abs=1e-9)


def _gauge_by_lp(v, vertices):
    """min t s.t. v in t * conv(vertices): the block norm, via the LP engine."""
    G = len(vertices)
    # variables: mu_g >= 0; minimize sum mu; constraints sum mu_g b_g = v
    lp = LinearProgram(np.ones(G))
    for k in range(len(v)):
        lp.add_row([vertices[g][k] for g in range(G)], "=", v[k])
    out = solve_lp(lp)
    assert out.is_optimal
    return out.objective


def test_block_norm_matches_lp_gauge(rng):
    blk = hex_block()
    for _ in range(25):
        v = rng.normal(size=2) * 3.0
        assert block_norm(v, blk) == pytest.approx(
            _gauge_by_lp(v, blk.ball.vertices), abs=1e-9
        )


# ---------------------------------------------------------------------------
# polars


def test_polar_of_l1_is_linf():
    polar = polar_polytope(Polytope.from_vertices(L1_VERTICES))
    got = {tuple(np.round(v, 9)) for v in polar.vertices}
    assert got == {(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)}


def test_bipolar_round_trip_2d():
    ball = Polytope.from_vertices(HEX_VERTICES)
    back = polar_polytope(polar_polytope(ball))
    got = sorted(tuple(np.round(v, 9)) for v in back.vertices)
    want = sorted(tuple(np.round(np.asarray(v), 9)) for v in HEX_VERTICES)
    assert got == want


def test_bipolar_round_trip_3d():
    octa = Polytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
    back = polar_polytope(polar_polytope(octa))
    got = sorted(tuple(np.round(v, 9)) for v in back.vertices)
    want = sorted(tuple(np.round(v, 9)) for v in octa.vertices)
    assert got == want


def test_hexagon_polar_vertices_support_the_ball():
    ball = Polytope.from_vertices(HEX_VERTICES)
    polar = polar_polytope(ball)
    # oracle: intersect supporting lines of consecutive (angle-sorted) vertices
    verts = sorted(HEX_VERTICES, key=lambda v: math.atan2(v[1], v[0]))
    expected = []
    for i in range(len(verts)):
        a = np.array(verts[i])
        b = np.array(verts[(i + 1) % len(verts)])
        expected.append(np.linalg.solve(np.vstack([a, b]), np.ones(2)))
    got = sorted(tuple(np.round(v, 9)) for v in polar.vertices)
    want = sorted(tuple(np.round(v, 9)) for v in expected)
    assert got == want
    # every polar vertex supports the ball: v.b_g <= 1 with equality on >= 2 vertices
    for v in polar.vertices:
        prods = ball.vertices @ v
        assert prods.max() <= 1.0 + 1e-9
        assert np.sum(np.abs(prods - 1.0) <= 1e-9) >= 2


def test_polar_rejects_high_dimension():
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * 4))).T.reshape(-1, 4)
    cube4 = Polytope(corners, np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
    with pytest.raises(UnsupportedDimensionError):
        polar_polytope(cube4)


def test_polytope_requires_symmetry():
    with pytest.raises(GeometryError):
        Polytope.from_vertices([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])


def test_hyperplane_requires_finite_coefficients():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(GeometryError, match="finite"):
            Hyperplane(np.array([0.0, bad, -1.0]))


def test_from_vertices_orders_the_2d_hull_once(monkeypatch):
    from planefit import geometry

    calls = []
    order = geometry._hull_order_2d

    def counted(vertices):
        calls.append(len(vertices))
        return order(vertices)

    monkeypatch.setattr(geometry, "_hull_order_2d", counted)
    for vertices in (HEX_VERTICES, inscribed_polytope(2, 32)[0].vertices):
        calls.clear()
        Polytope.from_vertices(vertices)
        assert calls == [len(vertices)]


# ---------------------------------------------------------------------------
# dual norms


def test_dual_norm_l2_self_dual():
    assert dual_norm(np.array([3.0, 4.0]), LTau(2)) == pytest.approx(5.0, abs=1e-12)


def test_dual_norm_l1_is_linf():
    assert dual_norm(np.array([1.0, 1.0]), LTau(1)) == pytest.approx(1.0, abs=1e-12)


def test_dual_norm_l3_is_l32(rng):
    from fractions import Fraction

    v = np.array([1.0, 2.0])
    want = ltau_norm(v, Fraction(3, 2))
    assert dual_norm(v, LTau(3)) == pytest.approx(want, rel=1e-12)
    # cross-check: maximize v.z over a fine sample of the l3 unit sphere
    angles = np.linspace(0.0, 2.0 * math.pi, 20001)
    zs = np.column_stack([np.cos(angles), np.sin(angles)])
    zs /= np.power(np.abs(zs) ** 3, 1.0).sum(axis=1)[:, None] ** (1.0 / 3.0)
    assert (zs @ v).max() == pytest.approx(want, rel=1e-6)


def test_dual_norm_block_swaps_roles():
    blk = l1_block()
    v = np.array([0.7, -0.2])
    # dual of the l1 block norm is the linf norm = max over Ext(ball)
    assert dual_norm(v, blk) == pytest.approx(0.7, abs=1e-12)


def test_dual_norm_vertical_unsupported():
    with pytest.raises(GeometryError):
        dual_norm(np.array([1.0, 0.0]), Vertical())


# ---------------------------------------------------------------------------
# residuals and responses


def _random_plane(rng, d=2):
    while True:
        beta = rng.normal(size=d + 1)
        if np.abs(beta[1:]).max() > 0.3 and abs(beta[-1]) > 0.1:
            return Hyperplane(beta)


def test_residual_zero_on_plane(rng):
    norms = [Vertical(), LTau(1), LTau(2), LTau(3), math.inf and LTau(math.inf), hex_block()]
    for _ in range(20):
        h = _random_plane(rng)
        # solve for x2 from (1, x1, x2) . beta = 0
        x1 = rng.normal()
        x2 = -(h.beta[0] + h.beta[1] * x1) / h.beta[2]
        x = Point(np.array([1.0, x1, x2]))
        for norm in norms:
            assert residual(h, x, norm) == pytest.approx(0.0, abs=1e-9)


def test_residual_intercept_point_of_reference_line():
    # y = -0.4133 x + 6.7934 passes through (0, 6.7934)
    h = Hyperplane.from_slope_intercept(-0.4133, 6.7934)
    x = Point(np.array([1.0, 0.0, 6.7934]))
    for norm in (Vertical(), LTau(2), l1_block()):
        assert residual(h, x, norm) == pytest.approx(0.0, abs=1e-12)


def test_residual_l2_diagonal_line():
    h = Hyperplane(np.array([0.0, 1.0, -1.0]))  # x2 = x1
    assert residual(h, Point(np.array([1.0, 0.0, 0.0])), LTau(2)) == pytest.approx(0.0)
    want = 1.0 / math.sqrt(2.0)  # orthogonal distance from (1, 0) to the diagonal
    assert residual(h, Point(np.array([1.0, 1.0, 0.0])), LTau(2)) == pytest.approx(want, rel=1e-12)


def test_residual_degenerate_raises():
    h = Hyperplane(np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DegenerateHyperplaneError):
        residual(h, Point(np.array([1.0, 0.0, 0.0])), Vertical())
    h0 = Hyperplane(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DegenerateHyperplaneError):
        residual(h0, Point(np.array([1.0, 0.0, 0.0])), LTau(2))


def test_plane_and_data_of_different_dimension_raise_naming_both():
    from planefit.criteria import preset
    from planefit.geometry import Dataset, residual_vector
    from planefit.solvers import phi_at

    plane = Hyperplane(np.array([0.0, 1.0, 1.0, -1.0]))  # 3-d
    x = Point(np.array([1.0, 2.0, 3.0]))  # 2-d
    data = Dataset.from_observations(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 2.0]]))
    for norm in (Vertical(), LTau(2), l1_block()):
        calls = (lambda: residual(plane, x, norm), lambda: projection_response(plane, x, norm),
                 lambda: residual_vector(plane, data, norm),
                 lambda: phi_at(data, preset("SUM", 3), norm, plane))
        for call in calls:
            with pytest.raises(GeometryError, match="3-d hyperplane .* 2-d data"):
                call()


def test_projection_identity_on_plane():
    h = Hyperplane(np.array([0.0, 1.0, -1.0]))
    x = Point(np.array([1.0, 2.0, 2.0]))
    for norm in (LTau(1), LTau(2), LTau(math.inf), hex_block()):
        assert projection_response(h, x, norm) == pytest.approx(x.observed, abs=1e-12)


def test_projection_l2_is_orthogonal(rng):
    for _ in range(20):
        h = _random_plane(rng)
        x = Point(np.array([1.0, rng.normal(), rng.normal()]))
        got = projection_response(h, x, LTau(2))
        tail = h.tail
        expect = x.observed - (h.beta @ x.coords) / (tail @ tail) * tail
        assert got == pytest.approx(expect, abs=1e-10)


def test_projection_l1_perturbs_single_coordinate():
    h = Hyperplane(np.array([0.0, 2.0, -1.0]))
    x = Point(np.array([1.0, 1.0, 1.0]))
    z = projection_response(h, x, LTau(1))
    # weight concentrates on the max-|beta| coordinate (index 1)
    assert z[1] == pytest.approx(x.observed[1], abs=1e-12)
    assert np.array([1.0, *z]) @ h.beta == pytest.approx(0.0, abs=1e-9)
    assert np.abs(x.observed - z).sum() == pytest.approx(residual(h, x, LTau(1)), rel=1e-10)


@pytest.mark.parametrize("norm", [LTau(1), LTau(2), LTau(3), LTau(math.inf)])
def test_projection_consistency_ltau(norm, rng):
    for _ in range(100):
        h = _random_plane(rng)
        x = Point(np.concatenate([[1.0], rng.normal(size=2) * 2.0]))
        z = projection_response(h, x, norm)
        assert np.array([1.0, *z]) @ h.beta == pytest.approx(0.0, abs=1e-9)
        assert ltau_norm(x.observed - z, norm.tau) == pytest.approx(
            residual(h, x, norm), abs=1e-8
        )


def test_projection_consistency_block(rng):
    blk = hex_block()
    for _ in range(100):
        h = _random_plane(rng)
        x = Point(np.concatenate([[1.0], rng.normal(size=2) * 2.0]))
        z = projection_response(h, x, blk)
        assert np.array([1.0, *z]) @ h.beta == pytest.approx(0.0, abs=1e-9)
        assert norm_value(x.observed - z, blk) == pytest.approx(
            residual(h, x, blk), abs=1e-8
        )


def test_scale_invariance_of_residual(rng):
    for _ in range(50):
        h = _random_plane(rng)
        x = Point(np.concatenate([[1.0], rng.normal(size=2)]))
        c = rng.uniform(0.2, 5.0) * (1 if rng.uniform() < 0.5 else -1)
        hs = Hyperplane(c * h.beta)
        for norm in (Vertical(), LTau(2), hex_block()):
            assert residual(hs, x, norm) == pytest.approx(residual(h, x, norm), abs=1e-10)


def test_dual_pairing(rng):
    blk = hex_block()
    for norm in (LTau(1), LTau(2), LTau(3), blk):
        for _ in range(60):
            v = rng.normal(size=2) * 2.0
            bound = dual_norm(v, norm)
            # random z in the residual-norm unit ball
            z = rng.normal(size=2)
            nz = norm_value(z, norm) if not isinstance(norm, LTau) else ltau_norm(z, norm.tau)
            if nz > 0:
                z = z / nz * rng.uniform(0.0, 1.0)
                assert v @ z <= bound + 1e-9


def test_marginal_variation_vertical_is_slope():
    h = Hyperplane(np.array([2.0, 1.5, -1.0]))
    assert marginal_variation(h, 1, Vertical()) == pytest.approx(1.5, abs=1e-12)


def test_marginal_variation_l2_example():
    h = Hyperplane(np.array([0.0, 1.0, -1.0]))
    assert marginal_variation(h, 1, LTau(2)) == pytest.approx(0.5, rel=1e-12)


def test_marginal_variation_l1_vanishes_off_max():
    # |beta_1| strictly dominates, so the steepest direction ignores coord 2
    h = Hyperplane(np.array([1.0, -3.0, 1.0]))
    assert marginal_variation(h, 1, LTau(1)) == pytest.approx(0.0, abs=1e-12)


def test_marginal_variation_matches_finite_difference(rng):
    step = 1e-5
    for norm in (LTau(2), LTau(3), hex_block()):
        for _ in range(25):
            h = _random_plane(rng)
            base = rng.normal(size=2)
            got = marginal_variation(h, 1, norm)

            def z_d(x1):
                x = Point(np.array([1.0, x1, base[1]]))
                return projection_response(h, x, norm)[-1]

            fd = (z_d(base[0] + step) - z_d(base[0] - step)) / (2.0 * step)
            assert got == pytest.approx(fd, abs=1e-4)


# ---------------------------------------------------------------------------
# kappa and inscribed polytopes


def test_kappa_ltau_is_one():
    for norm in (LTau(1), LTau(2), LTau(7), LTau(math.inf)):
        assert kappa(norm, 2) == 1.0
    assert kappa(Vertical(), 2) == 1.0


def test_kappa_hexagon():
    assert kappa(hex_block(), 2) == pytest.approx(0.5, abs=1e-12)


def test_kappa_linf_ball():
    blk = Block(Polytope.from_vertices(LINF_VERTICES))
    assert kappa(blk, 2) == pytest.approx(1.0, abs=1e-12)


def test_inscribed_polytope_regular_inradius():
    poly, r = inscribed_polytope(2, 16)
    assert r == pytest.approx(math.cos(math.pi / 16.0), abs=1e-12)
    assert poly.n_vertices == 16


def test_inscribed_polytope_fine_approximation():
    _, r = inscribed_polytope(2, 320)
    assert 1.0 - r < 5e-5


def test_inscribed_vertices_on_dual_sphere():
    for tau in (2, 3):
        poly, _ = inscribed_polytope(tau, 40)
        nu = conjugate_exponent(tau)
        for v in poly.vertices:
            assert ltau_norm(v, nu) == pytest.approx(1.0, abs=1e-12)


def test_inscribed_vertices_match_per_vertex_norms():
    # the vertices are scaled by one row-wise norm; each must be bit-identical
    # to scaling by ltau_norm of that vertex alone
    from fractions import Fraction

    for tau in (1, Fraction(3, 2), 2, 3, math.inf):
        for N in (4, 32, 320):
            poly, r = inscribed_polytope(tau, N)
            angles = 2.0 * math.pi * np.arange(N) / N
            raw = np.column_stack([np.cos(angles), np.sin(angles)])
            nu = conjugate_exponent(tau)
            want = Polytope.from_vertices(
                raw / np.array([ltau_norm(v, nu) for v in raw])[:, None])
            assert poly.vertices.tobytes() == want.vertices.tobytes()
            assert r == min(1.0, min(b / ltau_norm(a, tau) for a, b in
                                     zip(poly.facet_normals, poly.facet_offsets)))


def test_symmetry_check_tolerance():
    from planefit.geometry import _check_symmetric

    square = np.array(L1_VERTICES)
    _check_symmetric(square)
    with pytest.raises(GeometryError, match="symmetric"):
        _check_symmetric(np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -2.0)]))
    off = square.copy()
    off[2, 0] += 2e-12  # the mirror of (1, 0) misses by 2e-12
    with pytest.raises(GeometryError, match="symmetric"):
        _check_symmetric(off)
    with pytest.raises(GeometryError, match="symmetric"):
        Polytope.from_vertices(off)
    off[2, 0] = -1.0 + 5e-13
    _check_symmetric(off)
    assert Polytope.from_vertices(off).n_vertices == 4


def test_inscribed_rejects_odd_or_small():
    with pytest.raises(GeometryError):
        inscribed_polytope(2, 5)
    with pytest.raises(GeometryError):
        inscribed_polytope(2, 2)


@pytest.mark.parametrize("tau,N", [(2, 16), (3, 24), (1.5, 32)])
def test_inscribed_sandwich(tau, N, rng):
    from fractions import Fraction

    tau = Fraction(tau) if not isinstance(tau, int) else tau
    poly, r = inscribed_polytope(tau, N)
    blk = Block(poly)
    nu = conjugate_exponent(tau)
    for _ in range(200):
        v = rng.normal(size=2) * 3.0
        pn = block_norm(v, blk)
        lnu = ltau_norm(v, nu)
        assert r * pn <= lnu + 1e-9
        assert lnu <= pn + 1e-9


# ---------------------------------------------------------------------------
# datatypes


def test_point_requires_intercept_one():
    with pytest.raises(GeometryError):
        Point(np.array([0.0, 1.0]))


def test_dataset_scaling_and_shape(stars):
    assert stars.n == 47
    assert stars.dim == 2
    scaled = stars.scaled(10.0)
    assert scaled.observations == pytest.approx(stars.observations * 10.0)
    assert np.all(scaled.matrix[:, 0] == 1.0)


def test_vertical_unit_tag_enforced():
    with pytest.raises(GeometryError):
        Hyperplane(np.array([1.0, 1.0, 1.0]), "vertical-unit")


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_ltau_homogeneity(vec, scale):
    v = np.array(vec)
    for tau in (1, 2, 3, math.inf):
        assert ltau_norm(scale * v, tau) == pytest.approx(scale * ltau_norm(v, tau), rel=1e-9, abs=1e-12)


def test_polar_vertex_g_is_polygon_edge_g():
    from fractions import Fraction

    from planefit.solvers import _sign_distinct

    # the pruned 292-gon near tau = 1 has neighbouring facet normals within
    # 1.6e-11 of each other, and keeps one polar vertex per edge all the same
    for tau, N, n_v in ((2, 4, 4), (2, 32, 32), (3, 320, 320), (Fraction(11, 10), 320, 292)):
        poly, _ = inscribed_polytope(tau, N)
        assert poly.n_vertices == n_v
        polar = polar_polytope(poly)
        assert polar.n_vertices == n_v
        # polar vertex g lies on the line of edge g, from vertex g to g + 1,
        # and the first half of the edges are the sign-distinct ones
        ends = np.roll(poly.vertices, -1, axis=0)
        assert np.einsum("ij,ij->i", polar.vertices, ends) == pytest.approx(1.0, abs=1e-12)
        assert np.einsum("ij,ij->i", polar.vertices, poly.vertices) == pytest.approx(1.0, abs=1e-12)
        assert _sign_distinct(polar.vertices) == list(range(n_v // 2))
        assert _sign_distinct(poly.vertices) == list(range(n_v // 2))
