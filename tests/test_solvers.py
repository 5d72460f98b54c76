import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from planefit.criteria import Criterion, evaluate, preset
from planefit.geometry import (
    Block,
    Dataset,
    GeometryError,
    Hyperplane,
    LTau,
    Polytope,
    Vertical,
    first_of_each_class,
    inscribed_polytope,
    polar_polytope,
    residual_vector,
)
from planefit.solvers import (
    DegenerateDataError,
    FitRequest,
    SolverError,
    export_formulation,
    fit,
    fit_lad,
    fit_lss,
    l1_ball,
    linf_ball,
    phi_at,
    sd_measure,
)

from oracles import alternating_projection, brute_force_fit_2d

HEX = Polytope.from_vertices([(2, 0), (2, 2), (-1, 2), (-2, 0), (-2, -2), (1, -2)])
_G = (1 + 5**0.5) / 2
ICOSAHEDRON = np.array([v for a in (1, -1) for b in (_G, -_G)
                        for v in ((0, a, b), (a, b, 0), (b, 0, a))])


def random_dataset(rng, n, d=2, spread=2.0):
    obs = rng.normal(size=(n, d)) * spread
    return Dataset.from_observations(obs)


def gaussian_elimination(A, b):
    """Independent dense solver for the normal-equation cross-check."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r, col]))
        if abs(A[piv, col]) < 1e-14:
            raise ZeroDivisionError("singular")
        A[[col, piv]] = A[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for r in range(n):
            if r != col:
                f = A[r, col] / A[col, col]
                A[r] -= f * A[col]
                b[r] -= f * b[col]
    return b / np.diag(A)


# ---------------------------------------------------------------------------
# classical fits


def test_lss_stars_reference_line(stars):
    r = fit_lss(stars)
    slope, intercept = r.hyperplane.slope_intercept()
    assert slope == pytest.approx(-0.4133, abs=1e-3)
    assert intercept == pytest.approx(6.7934, abs=1e-3)
    assert r.gcod == pytest.approx(0.0442, abs=1e-3)


def test_lss_perfect_fit():
    x = np.arange(6.0)
    data = Dataset.from_observations(np.column_stack([x, 3.0 * x - 1.0]))
    r = fit_lss(data)
    assert r.phi_star == pytest.approx(0.0, abs=1e-18)
    assert r.gcod == pytest.approx(1.0, abs=1e-9)


def test_lss_matches_gaussian_elimination(rng):
    for _ in range(10):
        data = random_dataset(rng, 6, 2)
        X = data.matrix[:, :2]
        y = data.matrix[:, 2]
        want = gaussian_elimination(X.T @ X, X.T @ y)
        got = fit_lss(data).hyperplane.beta
        assert got[:2] == pytest.approx(want, abs=1e-8)
        assert got[2] == -1.0


def test_lss_degenerate_data():
    data = Dataset.from_observations(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]]))
    with pytest.raises(DegenerateDataError):
        fit_lss(data)
    with pytest.raises(DegenerateDataError):
        fit(FitRequest(data, preset("SOS", 3), Vertical()))


def test_lss_takes_the_lsq_route(stars):
    from planefit.evaluation import synthetic_generate

    for data in (stars, synthetic_generate(60, 2, "X", 1), synthetic_generate(60, 3, "Y", 2)):
        direct = fit_lss(data)
        routed = fit(FitRequest(data, preset("SOS", data.n), Vertical()))
        assert direct.solver_tag == routed.solver_tag == "lsq"
        np.testing.assert_array_equal(direct.hyperplane.beta, routed.hyperplane.beta)
    # the rank is taken with each design column at unit scale, so data far
    # smaller or larger than the ones column is not rank-deficient
    base = fit_lss(stars)
    for s in (1e-14, 1e14):
        r = fit_lss(stars.scaled(s))
        assert r.solver_tag == "lsq"
        assert r.phi_star == pytest.approx(base.phi_star * s**2, rel=1e-12, abs=0.0)


def test_lad_stars_reference_line(stars):
    r = fit_lad(stars)
    slope, intercept = r.hyperplane.slope_intercept()
    assert slope == pytest.approx(-0.6931, abs=1e-3)
    assert intercept == pytest.approx(8.1492, abs=1e-3)
    assert r.gcod == pytest.approx(0.0065, abs=1e-3)


def test_lad_intercept_only_is_median():
    vals = np.array([1.0, 2.0, 9.0, 3.0, 4.0])
    data = Dataset(np.column_stack([np.ones(5), vals]))
    r = fit_lad(data)
    # model x1 = beta0: the optimal constant is the median
    assert -r.hyperplane.beta[0] / r.hyperplane.beta[1] == pytest.approx(3.0, abs=1e-9)


def test_lad_matches_grid_oracle(rng):
    for _ in range(5):
        data = random_dataset(rng, 8, 2)
        r = fit_lad(data)
        oracle = brute_force_fit_2d(data, preset("SUM", 8), Vertical(),
                                    ((-6.0, 6.0), (-8.0, 8.0), 2e-2))
        assert r.phi_star <= oracle.phi_star + 1e-4


def test_lad_optimal_on_large_scale_data():
    # phase 1 of this always-feasible LP ends about 1e-7 above zero from
    # round-off (data of scale 1e3), which an absolute tolerance called infeasible
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(100, 3, "Y", 5)
    r = fit_lad(data)
    assert r.solver_tag == "lp"
    planted = Hyperplane(np.array([0.0, 1.0, 1.0, 1.0]))
    assert r.phi_star <= phi_at(data, preset("SUM", 100), Vertical(), planted)


def test_weighted_fit_raises_when_lp_not_optimal(monkeypatch, rng):
    from planefit import lp as lpmod
    from planefit.solvers import SolverError, _vertical_problem, _weighted_fit

    monkeypatch.setattr(lpmod, "solve_lp", lambda problem: lpmod.SolveStatus(lpmod.INFEASIBLE))
    prob = _vertical_problem(random_dataset(rng, 6))
    with pytest.raises(SolverError, match="infeasible"):
        _weighted_fit(prob, np.ones(6), 1.0)


# ---------------------------------------------------------------------------
# general vertical criteria


def test_sum_equals_lad(stars):
    a = fit(FitRequest(stars, preset("SUM", stars.n), Vertical()))
    b = fit_lad(stars)
    assert a.phi_star == pytest.approx(b.phi_star, abs=1e-6)


def test_max_three_points_chebyshev():
    data = Dataset.from_observations(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]))
    r = fit(FitRequest(data, preset("MAX", 3), Vertical()))
    # equidistant line: residuals all equal to the optimum
    res = residual_vector(r.hyperplane, data, Vertical())
    assert res == pytest.approx(np.full(3, res.max()), abs=1e-8)
    oracle = brute_force_fit_2d(data, preset("MAX", 3), Vertical(),
                                ((-4.0, 4.0), (-4.0, 4.0), 1e-2))
    assert r.phi_star <= oracle.phi_star + 1e-9


def test_lts_dominates_reference_line(stars):
    crit = preset("LTS", stars.n, alpha=0.5)
    r = fit(FitRequest(stars, crit, Vertical(), seed=0, multistart=100))
    reference = Hyperplane.from_slope_intercept(4.2105, -13.6231)
    assert r.phi_star <= phi_at(stars, crit, Vertical(), reference) + 1e-6


def test_lms_exact_on_stars(stars):
    r = fit(FitRequest(stars, preset("LMS", stars.n), Vertical()))
    assert r.solver_tag == "quantile-scan"
    # strip of 23rd-smallest absolute residual, squared
    assert r.phi_star == pytest.approx(0.0603450, abs=1e-6)


def test_lms_matches_combinatorial_oracle(rng):
    # 8 points: enumerate all slope pairs x intercept windows by brute force
    for _ in range(5):
        data = random_dataset(rng, 8, 2)
        crit = preset("LMS", 8)  # indicator at position 4, squared
        r = fit(FitRequest(data, crit, Vertical()))
        oracle = brute_force_fit_2d(data, crit, Vertical(), ((-8.0, 8.0), (-8.0, 8.0), 1e-2))
        assert r.phi_star <= oracle.phi_star + 1e-6


def _quantile_scan_reference(u, w, cands, r):
    """Per-slope loop that the blocked quantile scan must reproduce bit for bit."""
    n = u.size
    best = (np.inf, None)
    for t in cands:
        vals = np.sort(-(u + t * w))
        widths = vals[r - 1:] - vals[: n - r + 1]
        k = int(np.argmin(widths))
        half = widths[k] / 2.0
        if half < best[0]:
            best = (float(half), np.array([(vals[k] + vals[k + r - 1]) / 2.0, t]))
    return best


def _slope_problem(data, slope):
    """Vertical residuals with the slope v[1] limited to ``slope`` = (lo, hi)."""
    from planefit import solvers

    rows, rhs = [], []
    if slope is not None:
        lo, hi = slope
        if np.isfinite(lo):
            rows.append([-1.0])
            rhs.append(-lo)
        if np.isfinite(hi):
            rows.append([1.0])
            rhs.append(hi)
    return solvers._LinearResiduals.chart(data, np.eye(2, 1), -np.eye(2)[1],
                                          np.reshape(rows, (-1, 1)), np.array(rhs))


def _phi(prob, lam, v, p=1.0):
    """The objective of the plane v of a subproblem, in its own units."""
    return float(np.sort(prob.residuals(v)) ** p @ lam)


def test_quantile_scan_matches_reference_loop(rng):
    from planefit import solvers

    # n >= 200 spans many blocks, so the later rounds of the branch and bound
    # skip slopes (r <= 2 makes the incumbent 0, r = n the widest window);
    # rounding to one or two decimals repeats values
    for n, slope, decimals in ((8, None, 1), (30, (-0.5, 0.25), 1), (40, (0.1, np.inf), 1),
                               (200, None, 12), (300, (-0.5, 0.25), 2), (400, None, 12)):
        data = Dataset.from_observations(np.round(rng.normal(size=(n, 2)) * 2.0, decimals))
        prob = _slope_problem(data, slope)
        u, w = prob.c.astype(float), prob.A[:, 1].astype(float)
        t_lo, t_hi = prob.bounds[1]
        iu, ju = np.triu_indices(n, 1)
        dw = w[iu] - w[ju]
        mask = np.abs(dw) > 1e-14
        cands = -(u[iu] - u[ju])[mask] / dw[mask]
        extra = [t for t in (t_lo, t_hi, 0.0) if np.isfinite(t)]
        cands = np.unique(np.clip(np.concatenate([cands, np.array(extra)]), t_lo, t_hi))
        assert n < 200 or cands.size > 5 * (solvers._BLOCK_CELLS // n)
        for r in sorted({1, 2, n // 2 + 1, n}):
            v = solvers._solve_quantile_2param(prob, r)
            _, want_v = _quantile_scan_reference(u, w, cands, r)
            assert v.tobytes() == want_v.tobytes()


def test_quantile_scan_scores_few_slopes(monkeypatch):
    # vertical fits at n = 400: the branch and bound sorts under 5% of the
    # 79,801 candidate slopes, where a full scan sorts them all: LMS about
    # 1.7%; LQS at r <= 2, whose G is 0 at every pair crossing, under 1%,
    # since no slope right of the first G = 0 can win
    from planefit import solvers
    from planefit.evaluation import synthetic_generate

    scans, sorted_rows = [], []
    real_scan, real_sort = solvers._solve_quantile_2param, np.sort

    def scan(prob, r):
        scans.append((prob, r))
        return real_scan(prob, r)

    def counting_sort(a, *args, **kwargs):
        if np.ndim(a) == 2:
            sorted_rows.append(np.shape(a)[0])
        return real_sort(a, *args, **kwargs)

    monkeypatch.setattr(solvers, "_solve_quantile_2param", scan)
    data = synthetic_generate(400, 2, "X", 3)
    for crit, share in ((preset("LMS", data.n), 0.05), (preset("LQS", data.n, r=1), 0.01),
                        (preset("LQS", data.n, r=2), 0.01)):
        scans.clear()
        r = fit(FitRequest(data, crit, Vertical()))
        assert r.solver_tag == "quantile-scan"
        (prob, rank), = scans
        cands = solvers._pair_slopes(prob)[2]
        sorted_rows.clear()
        monkeypatch.setattr(np, "sort", counting_sort)
        real_scan(prob, rank)
        monkeypatch.setattr(np, "sort", real_sort)
        assert 0 < sum(sorted_rows) < share * cands.size, (rank, sum(sorted_rows))


def test_distinct_values_leave_numpy_ma_unloaded():
    """np.unique imports numpy.ma on first use, 1.3 MB of resident memory.
    The pair-slope scan (MED x vertical on the stars, one round; LMS x
    vertical at n = 200, several) and GCoD at p = 3/2 sort their distinct
    values without it, so a fresh interpreter that makes these fits never
    loads it."""
    import planefit

    script = (
        "import json, sys\n"
        "from planefit.criteria import preset\n"
        "from planefit.data import cyg_ob1\n"
        "from planefit.evaluation import synthetic_generate\n"
        "from planefit.geometry import Vertical\n"
        "from planefit.solvers import FitRequest, fit\n"
        "stars = cyg_ob1()\n"
        "tags = [fit(FitRequest(stars, preset(name, stars.n), Vertical())).solver_tag\n"
        "        for name in ('MED', '1.5SUM')]\n"
        "tags.append(fit(FitRequest(synthetic_generate(200, 2, 'X', 1), preset('LMS', 200),\n"
        "                           Vertical())).solver_tag)\n"
        "print(json.dumps([tags, 'numpy.ma' in sys.modules]))\n"
    )
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("a bare import numpy loads numpy.ma")
    env = dict(os.environ, PYTHONPATH=str(Path(planefit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    tags, loaded = json.loads(proc.stdout)
    assert tags == ["quantile-scan", "irls", "quantile-scan"]
    assert not loaded


def test_vertical_collinear_perfect():
    x = np.arange(8.0)
    data = Dataset.from_observations(np.column_stack([x, -2.0 * x + 0.5]))
    for name in ("SUM", "MAX", "MED", "SOS", "LMS"):
        r = fit(FitRequest(data, preset(name, 8), Vertical(), seed=1))
        assert r.phi_star <= 1e-9
        assert r.gcod >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# block norms


def test_block_sum_l1_stars(stars):
    r = fit(FitRequest(stars, preset("SUM", 47), Block(l1_ball(2))))
    slope, intercept = r.hyperplane.slope_intercept()
    assert slope == pytest.approx(7.0, abs=1e-6)
    assert intercept == pytest.approx(-25.81, abs=1e-6)
    assert r.gcod == pytest.approx(0.6505853, abs=1e-7)


def test_block_max_same_line_for_three_norms(stars):
    crit = preset("MAX", 47)
    lines = []
    for ball in (l1_ball(2), linf_ball(2), HEX):
        r = fit(FitRequest(stars, crit, Block(ball)))
        lines.append(r.hyperplane.slope_intercept())
    for slope, intercept in lines:
        assert slope == pytest.approx(-3.230769, abs=1e-4)
        assert intercept == pytest.approx(18.77577, abs=1e-3)


def test_block_dilation_corollary(stars):
    crit = preset("SUM", 47)
    mu = 2.5
    base = fit(FitRequest(stars, crit, Block(HEX)))
    dilated_ball = Polytope.from_vertices(np.asarray(HEX.vertices) * mu)
    dil = fit(FitRequest(stars, crit, Block(dilated_ball)))
    assert dil.phi_star == pytest.approx(base.phi_star / mu, rel=1e-9)
    # optimal coefficients scale by 1/mu
    assert dil.hyperplane.beta == pytest.approx(base.hyperplane.beta / mu, abs=1e-9)
    assert dil.gcod == pytest.approx(base.gcod, abs=1e-9)


def test_block_dilation_corollary_p2(stars):
    crit = preset("SOS", 47)
    mu = 3.0
    base = fit(FitRequest(stars, crit, Block(HEX)))
    dil = fit(FitRequest(stars, crit, Block(Polytope.from_vertices(np.asarray(HEX.vertices) * mu))))
    assert dil.phi_star == pytest.approx(base.phi_star / mu**2, rel=1e-7)


def test_block_balls_fit_at_any_size(stars):
    # geometry tolerances are relative to the ball's own size: a 24-gon
    # ellipse and an icosahedron, scaled by 10^+-k, fit like the unit ball,
    # phi* scaled by s^-p.  With absolute tolerances the ellipse failed its
    # symmetry check at x 1e4 and x 1e-4, and the icosahedron its facet
    # enumeration at x 1e+-9.
    from planefit.evaluation import synthetic_generate

    k = np.arange(24)
    ellipse = np.column_stack([2 * np.cos(np.pi * k / 12), np.sin(np.pi * k / 12)])
    d3 = synthetic_generate(30, 3, "Y", 1)
    cases = [(stars, ellipse, name) for name in ("SUM", "MED", "SOS")]
    cases += [(d3, ICOSAHEDRON, name) for name in ("SUM", "MAX")]
    for data, ball, name in cases:
        crit = preset(name, data.n)
        base = fit(FitRequest(data, crit, Block(Polytope.from_vertices(ball))))
        for s in (1e3, 1e-3, 1e6, 1e-6, 1e9, 1e-9, 1e12, 1e-12):
            r = fit(FitRequest(data, crit, Block(Polytope.from_vertices(ball * s))))
            assert (r.solver_tag, r.subproblem_count) == (base.solver_tag, base.subproblem_count)
            assert r.phi_star * s**crit.p_float == pytest.approx(base.phi_star, rel=1e-12, abs=0.0)


def test_block_disjunct_completeness(rng):
    # best of individually solved disjuncts equals the reported objective
    from planefit.solvers import _disjunct_problem, _solve_monotone_p1_lp

    data = random_dataset(rng, 10, 2)
    crit = preset("SUM", 10)
    blk = Block(HEX)
    r = fit(FitRequest(data, crit, blk))
    per_disjunct = []
    for g in first_of_each_class(blk.ball.vertices):
        prob = _disjunct_problem(data, blk.ball, g)
        per_disjunct.append(_phi(prob, crit.lam, _solve_monotone_p1_lp(prob, crit.lam)))
    assert r.phi_star == pytest.approx(min(per_disjunct), rel=1e-9)
    assert r.subproblem_count == len(per_disjunct)


def test_block_collinear_perfect():
    x = np.arange(6.0)
    data = Dataset.from_observations(np.column_stack([x, 0.5 * x + 1.0]))
    for ball in (l1_ball(2), HEX):
        r = fit(FitRequest(data, preset("SUM", 6), Block(ball)))
        assert r.phi_star <= 1e-9
        assert r.gcod >= 1.0 - 1e-9


def test_block_nonmonotone_exact_enum_matches_oracle(rng):
    for _ in range(3):
        data = random_dataset(rng, 9, 2)
        crit = preset("AkC", 9, K=4)
        r = fit(FitRequest(data, crit, Block(l1_ball(2))))
        assert r.solver_tag == "exact-enum"
        oracle = brute_force_fit_2d(data, crit, Block(l1_ball(2)),
                                    ((0.0, math.pi), (-8.0, 8.0), 5e-3))
        assert r.phi_star <= oracle.phi_star + 1e-9


# ---------------------------------------------------------------------------
# l-tau approximation


def test_ltau_sandwich_and_bounds(stars):
    crit = preset("SUM", 47)
    for tau, N in ((2, 16), (Fraction(3, 2), 32), (3, 64)):
        r = fit(FitRequest(stars, crit, LTau(tau), polytope_vertices=N))
        lower, upper = r.bounds
        assert lower <= r.phi_star + 1e-9
        assert r.phi_star <= upper + 1e-9
        from planefit.geometry import inscribed_polytope

        _, r_p = inscribed_polytope(tau, N)
        assert upper / lower - 1.0 <= (1.0 / r_p - 1.0) * (1.0 + 1e-9)


def test_ltau_sd_decreases_with_n(stars):
    crit = preset("SUM", 47)
    fixed = fit(FitRequest(stars, crit, LTau(2), polytope_vertices=320)).hyperplane.beta
    from planefit.geometry import inscribed_polytope

    sds = []
    for N in (16, 80, 320):
        poly, _ = inscribed_polytope(2, N)
        sds.append(sd_measure(stars, fixed, 2, poly))
    assert sds[0] > sds[1] > sds[2]


def test_sd_zero_for_exact_block(stars):
    # tau=1: the l1 ball is polyhedral, so the "approximation" is exact
    poly = l1_ball(2)
    beta = np.array([-3.0, 1.0, -0.4])
    # approximating polytope equals the true dual (linf) ball of l1
    assert sd_measure(stars, beta, 1, linf_ball(2)) == pytest.approx(0.0, abs=1e-18)


def test_ltau_exact_cases_route_to_block(stars):
    crit = preset("SUM", 47)
    via_fit = fit(FitRequest(stars, crit, LTau(1), seed=0))
    direct = fit(FitRequest(stars, crit, Block(l1_ball(2))))
    assert via_fit.phi_star == pytest.approx(direct.phi_star, rel=1e-12)


# ---------------------------------------------------------------------------
# convexity and oracle


def test_descent_objective_is_convex_on_slice(rng):
    # chord check along a random segment in the vertical parametrization
    data = random_dataset(rng, 9, 2)
    crit = preset("1.5SUM", 9)

    def value(v):
        plane = Hyperplane(np.array([v[0], v[1], -1.0]))
        return phi_at(data, crit, Vertical(), plane)

    for _ in range(20):
        a = rng.normal(size=2) * 2.0
        b = rng.normal(size=2) * 2.0
        t = rng.uniform()
        mid = value(t * a + (1 - t) * b)
        chord = t * value(a) + (1 - t) * value(b)
        assert mid <= chord + 1e-9


def test_oracle_collinear_finds_zero():
    x = np.arange(10.0)
    data = Dataset.from_observations(np.column_stack([x, 1.5 * x - 2.0]))
    r = brute_force_fit_2d(data, preset("SUM", 10), Vertical(),
                           ((1.0, 2.0), (-3.0, -1.0), 1e-3))
    assert r.phi_star <= 1e-6
    assert r.solver_tag == "oracle"


# ---------------------------------------------------------------------------
# result invariants


@pytest.mark.parametrize("name,param", [("SUM", None), ("MAX", None), ("MED", None),
                                        ("kC", 5), ("AkC", 5), ("SOS", None)])
def test_phi_star_matches_recomputed_residuals(name, param, rng):
    data = random_dataset(rng, 10, 2)
    crit = preset(name, 10, K=param) if param else preset(name, 10)
    for norm in (Vertical(), Block(l1_ball(2))):
        r = fit(FitRequest(data, crit, norm, seed=2))
        recomputed = evaluate(crit, residual_vector(r.hyperplane, data, norm))
        assert r.phi_star == pytest.approx(recomputed, rel=1e-7)


def test_sign_canonicalization(rng):
    data = random_dataset(rng, 8, 2)
    r = fit(FitRequest(data, preset("SUM", 8), Block(l1_ball(2))))
    tail = r.hyperplane.beta[1:]
    lead = tail[np.flatnonzero(np.abs(tail) > 1e-12)[0]]
    assert lead > 0
    # beta and -beta have the same objective
    flipped = Hyperplane(-r.hyperplane.beta)
    assert phi_at(data, preset("SUM", 8), Block(l1_ball(2)), flipped) == pytest.approx(
        r.phi_star, rel=1e-12
    )


def test_feasible_dominance_against_random_planes(stars, rng):
    crit = preset("kC", 47, K=35)
    blk = Block(l1_ball(2))
    r = fit(FitRequest(stars, crit, blk))
    for _ in range(100):
        beta = rng.normal(size=3)
        if np.abs(beta[1:]).max() < 1e-3:
            continue
        assert r.phi_star <= phi_at(stars, crit, blk, Hyperplane(beta)) + 1e-9


def test_export_formulation_files(tmp_path, stars):
    out = tmp_path / "sum_l1.lp"
    export_formulation(FitRequest(stars, preset("SUM", 47), Block(l1_ball(2))), out)
    text = out.read_text()
    assert "Minimize" in text and "Binary" not in text
    out2 = tmp_path / "med.lp"
    export_formulation(FitRequest(Dataset(stars.matrix[:6]), preset("MED", 6), Vertical()), out2)
    assert "Binary" in out2.read_text()


def test_exported_models_re_solve_at_any_lambda_scale(tmp_path, stars):
    # the phase-2 pricing is relative to the costs, so the exported LP of a
    # fit with lam x 1e-10 re-solves to phi*; priced at an absolute 1e-9, the
    # three stopped 6.7%, 168% and 924% above it
    from planefit.criteria import Criterion
    from planefit.lp import parse_lp_file, solve_lp

    norm = Block(l1_ball(2))
    for name in ("SUM", "kC", "MAX"):
        crit = Criterion(preset(name, stars.n).lam * 1e-10, 1)
        request = FitRequest(stars, crit, norm)
        r = fit(request)
        assert r.solver_tag == "lp"
        path = tmp_path / f"{name}.lp"
        export_formulation(request, path, beta=r.hyperplane.beta)
        out = solve_lp(parse_lp_file(path))
        assert out.is_optimal
        assert out.objective == pytest.approx(r.phi_star, rel=1e-12, abs=0.0), name


def test_fit_request_validates_lengths(stars):
    with pytest.raises(ValueError):
        FitRequest(stars, preset("SUM", 10), Vertical())


def test_monotone_lp_agrees_with_arrangement_enumeration(rng):
    # two independent exact routes for p=1 monotone weights must coincide;
    # the LP has a pair of rows per residual and centrum term, and a t
    # column only for a term with k < n
    from planefit.solvers import (
        _build_monotone_lp,
        _centrum_blocks,
        _solve_monotone_p1_lp,
        _solve_p1_exact,
        _vertical_problem,
    )

    def few_step(n, first):
        lam = np.full(n, first)
        for cut in rng.choice(np.arange(1, n), size=2, replace=False):
            lam[cut:] += rng.uniform(0.5, 1.5)
        return lam

    cases = []
    for _ in range(8):
        n = int(rng.integers(4, 9))
        lam = np.sort(np.abs(rng.normal(size=n)))
        lam[-1] += 0.1
        cases.append((lam, n))
    for n in (5, 8):
        K = int(rng.integers(1, n))
        cases += [(preset("MAX", n).lam, 1), (preset("kC", n, K=K).lam, 1),
                  (preset("SUM", n).lam, 1), (few_step(n, 0.0), 2), (few_step(n, 0.5), 3)]
    for lam, n_terms in cases:
        n = lam.size
        prob = _vertical_problem(random_dataset(rng, n, 2))
        terms = _centrum_blocks(lam)
        assert len(terms) == n_terms
        problem = _build_monotone_lp(prob, lam)
        t_cols = [name for name in problem.names if name.startswith("t")]
        assert len(problem.rows) == 2 * n * n_terms + len(prob.rhs)
        assert len(t_cols) == sum(k < n for k, _ in terms) == n_terms - (lam[0] > 0)
        assert problem.n_vars == prob.n_params + n * n_terms + len(t_cols)
        via_lp = _phi(prob, lam, _solve_monotone_p1_lp(prob, lam))
        via_enum = _phi(prob, lam, _solve_p1_exact(prob, lam))
        assert via_lp == pytest.approx(via_enum, abs=1e-7 * max(1.0, via_enum))


def test_nonmonotone_small_d3_uses_milp(rng):
    data = random_dataset(rng, 6, 3)
    crit = preset("MED", 6)
    r = fit(FitRequest(data, crit, Vertical(), seed=0))
    assert r.solver_tag == "milp"
    # 3-parameter scan is unavailable; sanity check against many random planes
    for _ in range(200):
        beta = np.concatenate([rng.normal(size=3), [-1.0]])
        assert r.phi_star <= phi_at(data, crit, Vertical(), Hyperplane(beta)) + 1e-9


def test_milp_keeps_binaries_integral_to_the_integrality_tolerance():
    # binaries within 1e-6 of an integer once passed as integral; times the
    # big-M that let eps_i exceed its slot, and this fit returned phi* 0.2181
    # labelled milp, although a plane through 3 of the 5 points scores 0
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(5, 3, "Y", 8784186935842910618)
    r = fit(FitRequest(data, preset("MED", 5), Vertical()))
    assert r.solver_tag == "milp"
    assert r.phi_star <= 1e-9


def test_milp_handles_large_scale_data():
    # raw magnitudes near 500 must not blow up the big-M conditioning; any 4
    # points in R^4 lie on a common hyperplane, so MED reaches 0 at n = 6
    # (the MILP) and at n = 8 (above MILP_MAX_N, the heuristic)
    from planefit.evaluation import synthetic_generate

    for n, tag in ((6, "milp"), (8, "heuristic")):
        data = synthetic_generate(n, 4, "Y", seed=3)
        r = fit(FitRequest(data, preset("MED", n), Vertical(), seed=1))
        assert r.solver_tag == tag
        assert r.phi_star <= 1e-6


def test_ltau_d3_with_supplied_polytope(rng):
    # octahedron approximates the l1 ball exactly, so tau=inf residuals
    # (whose dual is l1) are reproduced without any gap
    data = random_dataset(rng, 7, 3)
    crit = preset("SUM", 7)
    octa = Polytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
    r = fit(FitRequest(data, crit, LTau(math.inf), polytope_vertices=octa))
    lower, upper = r.bounds
    assert lower <= r.phi_star <= upper + 1e-9
    assert upper == pytest.approx(lower, rel=1e-9)  # r_P = 1 for the exact ball
    # its vertices lie on the unit l2 sphere, so it is inscribed in the dual
    # ball of l-2 too: the request's polytope is the one way to fit l-tau in
    # d = 3, with the certified bracket of a generated polygon
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(30, 3, "Y", 1)
    r = fit(FitRequest(data, preset("SUM", 30), LTau(2), polytope_vertices=l1_ball(3)))
    assert r.solver_tag == "lp+inner-6gon"
    lower, upper = r.bounds
    assert lower <= r.phi_star <= upper


def test_supplied_polytope_must_be_inscribed(stars):
    # r_P bounds the l-tau optimum only for a polygon inside the l-nu ball
    crit = preset("SUM", 47)
    poly, _ = inscribed_polytope(2, 32)
    with pytest.raises(GeometryError):
        fit(FitRequest(stars, crit, LTau(2),
                       polytope_vertices=Polytope.from_vertices(1.5 * poly.vertices)))
    r = fit(FitRequest(stars, crit, LTau(2),
                       polytope_vertices=Polytope.from_vertices(0.5 * poly.vertices)))
    lower, upper = r.bounds
    assert type(upper) is float
    assert lower <= r.phi_star <= upper


def test_ltau_inf_routes_to_linf_block(stars):
    crit = preset("SUM", 47)
    via_fit = fit(FitRequest(stars, crit, LTau(math.inf), seed=0))
    direct = fit(FitRequest(stars, crit, Block(linf_ball(2))))
    assert via_fit.phi_star == pytest.approx(direct.phi_star, rel=1e-12)


def test_stars_med_ltau2_enumerates_every_disjunct(stars):
    # each of the 16 disjuncts of the 32-gon is solved by the exact one-rank
    # scan or pruned by a proven bound from a coarser polygon, so rho is a
    # true lower bound; the concentration heuristic stopped at 0.06449 here
    r = fit(FitRequest(stars, preset("MED", 47), LTau(2), seed=1, polytope_vertices=32))
    assert r.solver_tag == "quantile-scan+inner-32gon"
    assert r.subproblem_count == 16
    assert r.phi_star <= 0.056127
    lower, upper = r.bounds
    assert lower <= r.phi_star <= upper


def test_every_fit_scores_gcod_once(monkeypatch, stars):
    from planefit import solvers

    calls = []
    real = solvers.gcod_index

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "gcod_index", counting)
    fit(FitRequest(stars, preset("SOS", 47), Vertical()))
    assert len(calls) == 1
    fit(FitRequest(stars, preset("SUM", 47), LTau(2), polytope_vertices=16))
    assert len(calls) == 2


def test_ltau_fit_scores_sd_at_its_plane(stars):
    # the fit's sd comes from its own residuals and the block it solved,
    # bit for bit the sd that sd_measure rebuilds from the polygon
    for name in ("SUM", "MED", "SOS"):
        crit = preset(name, 47)
        for tau in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for N in (8, 32, 320):
                r = fit(FitRequest(stars, crit, LTau(tau), polytope_vertices=N))
                poly, _ = inscribed_polytope(tau, N)
                assert r.sd == sd_measure(stars, r.hyperplane.beta, tau, poly)
    poly = Polytope.from_vertices(0.5 * inscribed_polytope(3, 24)[0].vertices)
    r = fit(FitRequest(stars, preset("SUM", 47), LTau(3), polytope_vertices=poly))
    assert r.sd == sd_measure(stars, r.hyperplane.beta, 3, poly)


def test_ltau_fit_builds_one_polar(monkeypatch, stars):
    from planefit import solvers

    calls = []
    real = solvers.polar_polytope

    def counting(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(solvers, "polar_polytope", counting)
    fit(FitRequest(stars, preset("SUM", 47), LTau(2)))
    assert len(calls) == 1
    fit(FitRequest(stars, preset("SUM", 47), LTau(2),
                   polytope_vertices=inscribed_polytope(2, 16)[0]))
    assert len(calls) == 2


def _same_fields(a, b):
    import dataclasses

    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "hyperplane":
            assert np.array_equal(x.beta, y.beta) and x.normalization == y.normalization
        elif field.name == "residuals":
            assert np.array_equal(x, y)
        else:
            assert x == y, field.name


def test_shorthands_are_requests_to_fit(stars):
    _same_fields(fit_lss(stars), fit(FitRequest(stars, preset("SOS", 47), Vertical())))
    _same_fields(fit_lad(stars), fit(FitRequest(stars, preset("SUM", 47), Vertical())))


def test_block_ball_of_another_dimension_is_a_geometry_error(stars, tmp_path):
    crit = preset("SUM", 47)
    octahedron = Polytope.from_vertices(np.vstack([np.eye(3), -np.eye(3)]))
    attempts = (
        lambda: fit(FitRequest(stars, crit, Block(l1_ball(3)))),
        lambda: fit(FitRequest(stars, crit, LTau(math.inf), polytope_vertices=octahedron)),
        lambda: export_formulation(FitRequest(stars, crit, Block(l1_ball(3))),
                                   tmp_path / "x.lp"),
    )
    for attempt in attempts:
        with pytest.raises(GeometryError, match="3-d block ball .* 2-d data"):
            attempt()


def test_fit_request_rejects_a_polytope_it_would_ignore(stars):
    crit = preset("SUM", 47)
    for norm in (Vertical(), Block(l1_ball(2))):
        with pytest.raises(ValueError, match="16-vertex polytope .* l-tau norm only"):
            FitRequest(stars, crit, norm, polytope_vertices=inscribed_polytope(2, 16)[0])
    for value in (32.0, "32", None):
        with pytest.raises(ValueError, match=f"an int N or a Polytope, not {value!r}"):
            FitRequest(stars, crit, LTau(2), polytope_vertices=value)


def test_export_of_a_supplied_polytope_resolves_to_the_lower_bound(stars, tmp_path):
    # the exported disjunct of the caller's 24-gon is the one the fit's
    # lower bound rho* came from
    from planefit.lp import parse_lp_file, solve_lp

    tau = Fraction(3, 2)
    poly = inscribed_polytope(tau, 24)[0]
    for name in ("SUM", "kC", "MAX"):
        request = FitRequest(stars, preset(name, stars.n), LTau(tau), polytope_vertices=poly)
        r = fit(request)
        export_formulation(request, tmp_path / f"{name}.lp", r.hyperplane.beta)
        solved = solve_lp(parse_lp_file(tmp_path / f"{name}.lp"))
        assert solved.is_optimal
        assert solved.objective == pytest.approx(r.bounds[0], rel=1e-12, abs=0.0)


def test_l1_and_linf_specs_fit_as_their_blocks(stars):
    # the CLI's l1 and linf are l-tau norms; each fits and measures strips
    # exactly as its explicit block
    from planefit.cli import parse_residual
    from planefit.evaluation import strip_metrics, synthetic_generate

    for data in (stars, synthetic_generate(60, 3, "Y", 1)):
        d = data.dim
        for spec, block in (("l1", Block(l1_ball(d), linf_ball(d))),
                            ("linf", Block(linf_ball(d), l1_ball(d)))):
            norm = parse_residual(spec, d)
            for name in ("SUM", "kC", "MED"):
                crit = preset(name, data.n)
                r = fit(FitRequest(data, crit, norm))
                _same_fields(r, fit(FitRequest(data, crit, block)))
                have, want = (strip_metrics(data, r.hyperplane, m) for m in (norm, block))
                assert np.array_equal(have.sorted_residuals, want.sorted_residuals)
                assert have.eps90 == want.eps90


def test_start_points_let_programming_errors_through(monkeypatch, rng):
    from planefit import solvers
    from planefit.rng import SplitMix64

    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(solvers, "_weighted_fit", broken)
    prob = solvers._vertical_problem(random_dataset(rng, 8))
    with pytest.raises(TypeError, match="bad call"):
        solvers._start_points(prob, preset("LMS", 8).lam, SplitMix64(0), 4)


def test_start_points_skip_a_failed_lp(monkeypatch, rng):
    from planefit import lp as lpmod
    from planefit import solvers
    from planefit.rng import SplitMix64

    monkeypatch.setattr(lpmod, "solve_lp", lambda problem: lpmod.SolveStatus(lpmod.INFEASIBLE))
    prob = solvers._vertical_problem(random_dataset(rng, 8))
    starts = solvers._start_points(prob, preset("LMS", 8).lam, SplitMix64(0), 0)
    assert len(starts) == 2  # least squares and the quantile line; the LAD start is skipped


def test_start_points_draw_every_index_alike(monkeypatch):
    # the elemental starts must not favour low indices: keeping the m
    # smallest of the draws gave indices 0-5 of 60 28% of the picks
    from planefit import solvers
    from planefit.rng import SplitMix64

    def failed(*args, **kwargs):
        raise solvers.SolverError("skip the least-squares and LAD starts")

    n = 60
    index = np.arange(n, dtype=float)
    # three parameters, so no quantile start; column 1 names each row
    data = Dataset.from_observations(np.column_stack([index, index**2]))
    prob = solvers._LinearResiduals.chart(data, np.eye(2), np.zeros(2))
    picks = []
    solve = np.linalg.solve

    def recorded(a, b):
        picks.extend(a[:, 1].astype(int))
        return solve(a, b)

    monkeypatch.setattr(solvers, "_weighted_fit", failed)
    monkeypatch.setattr(np.linalg, "solve", recorded)
    for seed in range(200):
        solvers._start_points(prob, preset("LMS", n).lam, SplitMix64(seed), 16)
    share = np.bincount(np.array(picks) // (n // 10), minlength=10) / len(picks)
    assert len(picks) >= 3 * 200 * 15
    assert np.all((share >= 0.07) & (share <= 0.13)), share


def test_slope_interval_is_the_bound_pair_of_the_slope(rng):
    from planefit.solvers import SolverError, _LinearResiduals

    data = random_dataset(rng, 3)

    def build(rows):
        return _LinearResiduals.chart(data, np.eye(2, 1), -np.eye(2)[1],
                                      np.array([row for row, _ in rows]),
                                      np.array([rhs for _, rhs in rows]))

    rows = [(np.array([2.0]), 3.0), (np.array([-1.0]), 1.0),
            (np.array([1.0]), 4.0), (np.zeros(1), 0.0)]
    prob = build(rows)
    assert tuple(prob.bounds[1]) == (-1.0, 1.5)
    assert prob.bounds.tolist() == [[-np.inf, np.inf], [-1.0, 1.5]]
    assert prob.rows.shape == (0, 2) and prob.rhs.shape == (0,)
    with pytest.raises(SolverError, match="constant"):
        build(rows + [(np.zeros(1), -1.0)])


def test_every_chart_and_its_unit_problem_map_parameters_to_their_plane(stars, rng,
                                                                        monkeypatch):
    # |data.matrix @ to_beta(v)| is |A v + c| on the vertical chart, a stars
    # chord and a d = 3 l1 disjunct, and on the unit problem that
    # _solve_subproblem solves for each, whose plane is the chart's divided
    # by the offsets' scale
    from planefit import solvers
    from planefit.rng import SplitMix64

    data3 = random_dataset(rng, 12, 3)
    V = solvers._polygon_vertices(solvers._as_block(LTau(2), 2))
    ball = solvers.l1_ball(3)
    g = first_of_each_class(ball.vertices)[0]
    cases = ((data3, solvers._vertical_problem(data3)),
             (stars, solvers._chord_problem(stars, V[0], V[4])),
             (data3, solvers._disjunct_problem(data3, ball, g)))
    units = []
    real = solvers._solve_monotone_p1_lp

    def solve(unit, lam):
        units.append((unit, real(unit, lam)))
        return units[-1][1]

    def assert_charted(data, prob):
        for _ in range(5):
            v = rng.normal(size=prob.n_params)
            want = prob.residuals(v)
            have = np.abs(data.matrix @ prob.to_beta(v))
            assert np.allclose(have, want, rtol=1e-12, atol=1e-12 * want.max())

    monkeypatch.setattr(solvers, "_solve_monotone_p1_lp", solve)
    for data, prob in cases:
        assert_charted(data, prob)
        _, v = solvers._solve_subproblem(prob, preset("SUM", data.n), rng=SplitMix64(0),
                                         multistart=1, node_limit=1)
        unit, w = units[-1]
        assert unit is not prob
        assert_charted(data, unit)
        beta = prob.to_beta(v)
        assert np.allclose(beta, np.abs(prob.c).max() * unit.to_beta(w),
                           rtol=1e-12, atol=1e-12 * np.abs(beta).max())


def _split_reference(rows, rhs, m):
    """The per-row split ``_LinearResiduals.chart`` replaced: (bounds, general rows)."""
    bounds = np.tile([-np.inf, np.inf], (m, 1))
    general = []
    for row, b in zip(rows, rhs):
        nz = np.flatnonzero(np.abs(row) > 1e-15)
        if nz.size == 1:
            j = int(nz[0])
            if row[j] > 0:
                bounds[j, 1] = min(bounds[j, 1], b / row[j])
            else:
                bounds[j, 0] = max(bounds[j, 0], b / row[j])
        elif nz.size > 1:
            general.append((row, b))
    return bounds, general


def test_disjunct_rows_match_the_per_vertex_construction(stars, rng):
    from planefit.solvers import _disjunct_problem, _LinearResiduals

    # the array split is the per-row split, bit for bit, on the slopes v[1:]
    for m in (2, 3):
        rows = rng.normal(size=(40, m)) * (rng.random((40, m)) < 0.4)
        rhs = rng.random(40) + 0.1
        prob = _LinearResiduals.chart(random_dataset(rng, 3, m), np.eye(m), np.zeros(m),
                                      rows, rhs)
        bounds, general = _split_reference(rows, rhs, m)
        assert np.isinf(prob.bounds[0]).all() and np.array_equal(prob.bounds[1:], bounds)
        assert prob.rows.shape == (len(general), m + 1) and prob.rhs.shape == (len(general),)
        for row, b, (want_row, want_b) in zip(prob.rows, prob.rhs, general):
            assert row[0] == 0.0 and np.array_equal(row[1:], want_row) and b == want_b
    # the rows beta_-0 . b_h <= 1 of every disjunct, one dot product per
    # vertex b_h.  One matrix product rounds each two-term product
    # differently, by up to 2 eps per side of a bound t = rhs / a; rhs =
    # 1 - base . b_h cancels to about 1e-4 at N = 320, so t moves by up to
    # 4 eps (1 + |t|) / |a| (a few 1e-12 relative), not by a few eps.
    eps = np.finfo(float).eps
    for tau in (Fraction(3, 2), Fraction(2), Fraction(3)):
        for N in (32, 320):
            ball = polar_polytope(inscribed_polytope(tau, N)[0])
            for g in first_of_each_class(ball.vertices):
                b_g = ball.vertices[g]
                base = b_g / (b_g @ b_g)
                Q, _ = np.linalg.qr(np.column_stack([b_g, np.eye(2)]))
                others = np.delete(ball.vertices, g, axis=0)
                rows = np.array([np.concatenate([[0.0], Q[:, 1:].T @ b_h]) for b_h in others])
                rhs = np.array([1.0 - base @ b_h for b_h in others])
                bounds, general = _split_reference(rows, rhs, 2)
                assert general == [] and np.isinf(bounds[0]).all()
                got = _disjunct_problem(stars, ball, g).bounds[1]
                with np.errstate(divide="ignore"):
                    quotients = rhs / rows[:, 1]
                for want, have in zip(bounds[1], got):
                    a = rows[np.flatnonzero(quotients == want)[0], 1]
                    assert abs(have - want) <= 4 * eps * (1 + abs(want)) / abs(a)


def test_disjunct_slope_bounds_match_exact_arithmetic(stars):
    # 1 - base . b_h cancels to about 1e-4 between neighbouring vertices of
    # the 320-gon; b_g . (b_g - b_h) / |b_g|^2 keeps the slope bounds within a
    # few ulps of the exact quotients (8 at most here, over 1,000 before)
    from planefit.solvers import _disjunct_problem

    ball = polar_polytope(inscribed_polytope(Fraction(3), 320)[0])
    g = 38
    b_g = ball.vertices[g]
    Q, _ = np.linalg.qr(np.column_stack([b_g, np.eye(2)]))
    others = np.delete(ball.vertices, g, axis=0)
    coef = others @ Q[:, 1]
    x, y = (Fraction(c) for c in b_g)
    quotients = [(x * (x - Fraction(bx)) + y * (y - Fraction(by))) / (x * x + y * y) / Fraction(a)
                 for (bx, by), a in zip(others, coef)]
    want = (max(q for q, a in zip(quotients, coef) if a < 0),
            min(q for q, a in zip(quotients, coef) if a > 0))
    for have, exact in zip(_disjunct_problem(stars, ball, g).bounds[1], want):
        assert abs(Fraction(have) - exact) <= 16 * abs(Fraction(np.spacing(float(exact))))


def _enum_phi(prob, lam, v):
    """The objective of the plane v = (b0, t) of a two-parameter subproblem,
    scored as the exact enumeration scores its points, |b0 + (u + t w)|."""
    from planefit.criteria import _ordered_median

    return float(_ordered_median(np.abs(v[0] + (prob.c + v[1] * prob.A[:, 1])), lam))


def _exact_enum_reference(prob, lam):
    """Pair-array enumeration with a rounded row dedupe per chunk; the
    one-line-at-a-time enumeration must reach the same value.  The ends of
    the slope interval take the 1-d solver, and every point is scored by a
    plain sort."""
    from planefit.omp1d import solve_omp

    chunk = 200_000
    u = prob.c.astype(float)
    w = prob.A[:, 1].astype(float)
    t_lo, t_hi = prob.bounds[1]
    n = u.size
    iu, ju = np.triu_indices(n, 1)
    La = np.concatenate([np.ones(n), np.full(iu.size, 2.0), np.zeros(iu.size)])
    Lb = np.concatenate([w, w[iu] + w[ju], w[iu] - w[ju]])
    Lc = np.concatenate([-u, -(u[iu] + u[ju]), -(u[iu] - u[ju])])
    pts = [(solve_omp(-(u + t * w), lam, 1.0).beta0, t) for t in (t_lo, t_hi) if np.isfinite(t)]
    best = np.inf
    if pts:
        pts = np.array(pts)
        best = (np.sort(np.abs(pts[:, :1] + u + pts[:, 1:] * w), axis=1) @ lam).min()
    pi, pj = np.triu_indices(La.size, 1)
    for start in range(0, pi.size, chunk):
        ii, jj = pi[start: start + chunk], pj[start: start + chunk]
        det = La[ii] * Lb[jj] - La[jj] * Lb[ii]
        ok = np.abs(det) > 1e-12
        ii, jj, det = ii[ok], jj[ok], det[ok]
        b0s = (Lc[ii] * Lb[jj] - Lc[jj] * Lb[ii]) / det
        ts = (La[ii] * Lc[jj] - La[jj] * Lc[ii]) / det
        keep = (ts >= t_lo - 1e-12) & (ts <= t_hi + 1e-12) & np.isfinite(b0s)
        pts = np.column_stack([b0s[keep], np.clip(ts[keep], t_lo, t_hi)])
        if pts.size:
            _, idx = np.unique(np.round(pts, 12), axis=0, return_index=True)
            pts = pts[idx]
            best = min(best, (np.sort(np.abs(pts[:, :1] + u + pts[:, 1:] * w), axis=1)
                              @ lam).min())
    return float(best)


def test_exact_enum_matches_dedupe_reference(rng):
    from planefit.solvers import _solve_p1_exact

    cases = ((8, None), (12, (-0.5, 0.25)), (20, (0.1, np.inf)), (30, (-np.inf, 0.3)),
             (30, None))
    for n, slope in cases:
        # one decimal repeats values, so many crossings coincide
        data = Dataset.from_observations(np.round(rng.normal(size=(n, 2)) * 2.0, 1))
        prob = _slope_problem(data, slope)
        t_lo, t_hi = prob.bounds[1]
        lams = (preset("MED", n).lam, preset("AkC", n, K=n // 3).lam,
                rng.random(n) * (rng.random(n) < 0.5) + np.eye(n)[n // 2])
        for lam in lams:
            v = _solve_p1_exact(prob, lam)
            val = _enum_phi(prob, lam, v)
            want = _exact_enum_reference(prob, lam)
            assert val == pytest.approx(want, rel=1e-12, abs=1e-300)
            assert t_lo <= v[1] <= t_hi
            assert float(np.sort(prob.residuals(v)) @ lam) == pytest.approx(val, rel=1e-12)


def test_exact_enum_scores_the_interval_ends_as_lines(monkeypatch, rng):
    # the ends of the slope interval are lines of the arrangement, so exact
    # enumeration needs no 1-d solver there; narrow chords put the optimum on
    # an end
    from planefit import solvers

    def unused(*args, **kwargs):
        raise AssertionError("exact enumeration called the 1-d solver")

    monkeypatch.setattr(solvers, "solve_omp", unused)
    on_end = {True: 0, False: 0}  # by nonincreasing lam
    for n in (9, 16, 25):
        data = Dataset.from_observations(np.round(rng.normal(size=(n, 2)) * 2.0, 1))
        for angle in np.linspace(0.0, math.pi, 7)[:-1]:
            a, b = angle, angle + 0.01
            prob = solvers._chord_problem(data, np.array([math.cos(a), math.sin(a)]),
                                          np.array([math.cos(b), math.sin(b)]))
            lams = (preset("AkC", n, K=n // 3).lam,  # nonincreasing
                    np.sort(rng.random(n))[::-1].copy(),
                    preset("MED", n).lam,  # general
                    rng.random(n) * (rng.random(n) < 0.5) + np.eye(n)[n // 2])
            for lam in lams:
                v = solvers._solve_p1_exact(prob, lam)
                assert _enum_phi(prob, lam, v) == pytest.approx(
                    _exact_enum_reference(prob, lam), rel=1e-12, abs=1e-300)
                on_end[solvers._nonincreasing(lam)] += v[1] in (0.0, 1.0)
    assert min(on_end.values()) >= 0.9 * 3 * 6 * 2


def test_exact_enum_memory_is_bounded(rng):
    import tracemalloc

    from planefit.solvers import EXACT_ENUM_MAX_N, _solve_p1_exact

    n = EXACT_ENUM_MAX_N
    prob = _slope_problem(random_dataset(rng, n), None)
    tracemalloc.start()
    try:
        _solve_p1_exact(prob, preset("MED", n).lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_weight_shape_routes_match_dedupe_reference(rng):
    # nonincreasing weights score only the zero-line crossings, one-rank
    # weights take the pair-slope scan; both must reach the full arrangement
    from planefit.solvers import _solve_p1_exact, _solve_quantile_2param

    cases = ((8, None), (12, (-0.5, 0.25)), (20, (0.1, np.inf)), (24, (-np.inf, 0.3)),
             (24, None))
    for n, slope in cases:
        data = Dataset.from_observations(np.round(rng.normal(size=(n, 2)) * 2.0, 1))
        prob = _slope_problem(data, slope)
        t_lo, t_hi = prob.bounds[1]
        # ties from rounding, trailing zeros from the zeroed tail
        lam = np.sort(np.round(rng.random(n) * 3.0) / 3.0)[::-1].copy()
        lam[n - int(rng.integers(1, n // 2)):] = 0.0
        lam[0] += 0.5
        v = _solve_p1_exact(prob, lam)
        val = _enum_phi(prob, lam, v)
        assert val == pytest.approx(_exact_enum_reference(prob, lam), rel=1e-12, abs=1e-300)
        assert t_lo <= v[1] <= t_hi
        assert float(np.sort(prob.residuals(v)) @ lam) == pytest.approx(val, rel=1e-12)
        for r in (1, n // 2 + 1, n - 1):
            one_rank = 1.5 * np.eye(n)[r - 1]
            v = _solve_quantile_2param(prob, r)
            half = _enum_phi(prob, np.eye(n)[r - 1], v)
            assert 1.5 * half == pytest.approx(_exact_enum_reference(prob, one_rank),
                                               rel=1e-12, abs=1e-300)
            assert t_lo <= v[1] <= t_hi
            assert np.sort(prob.residuals(v))[r - 1] == pytest.approx(half, rel=1e-12,
                                                                       abs=1e-12)


def test_exact_enum_is_never_above_the_milp_on_milp_d3_subproblems():
    # the vertical and l1 subproblems of the benchmark's milp-d3 cells, units
    # 0-4 at seed 1 (each cell's data seed is the next draw of its unit's
    # stream), on three parameters
    from planefit.evaluation import synthetic_generate
    from planefit.rng import SplitMix64
    from planefit.solvers import (NODE_LIMIT, _disjunct_problem,
                                  _solve_p1_exact, _solve_p1_milp, _vertical_problem)

    ball = l1_ball(3)
    cells = ([(name, residual, 4) for name in ("MED", "AkC") for residual in ("vertical", "l1")]
             + [(name, "vertical", 5) for name in ("MED", "AkC")])
    solved = 0
    for unit in range(5):
        draws = SplitMix64(1 + 1_000_003 * unit)
        for name, residual, n in cells:
            data = synthetic_generate(n, 3, "Y", draws.next_u64())
            lam = preset(name, n).lam
            probs = ([_vertical_problem(data)] if residual == "vertical" else
                     [_disjunct_problem(data, ball, g)
                      for g in first_of_each_class(ball.vertices)])
            for prob in probs:
                enum = _phi(prob, lam, _solve_p1_exact(prob, lam))
                milp = _phi(prob, lam, _solve_p1_milp(prob, lam, NODE_LIMIT))
                assert enum <= milp + 1e-9, (unit, name, residual)
                solved += 1
    assert solved == 5 * (4 + 2 * 3)  # an l1 ball in 3-d has 3 sign-distinct vertices


def test_exact_enum_reaches_the_d3_enumeration_values():
    # vertical fits of synthetic_generate(n, 3, "Y", seed), where the
    # concentration heuristic reads 0.7842, 0.5546, 0.1277 and 90.23
    from planefit.evaluation import synthetic_generate
    from planefit.solvers import _solve_p1_exact, _vertical_problem

    cases = ((preset("AkC", 8, K=4).lam, 1, 0.2852), (preset("AkC", 12, K=4).lam, 2, 0.03724),
             (preset("AkC", 15, K=4).lam, 2, 0.04867), (np.r_[0.0, np.ones(10), 0.0], 1, 88.65))
    for lam, seed, want in cases:
        prob = _vertical_problem(synthetic_generate(lam.size, 3, "Y", seed))
        assert float(f"{_phi(prob, lam, _solve_p1_exact(prob, lam)):.4g}") == want


def test_exact_enum_fits_data_whose_x_values_coincide():
    # the zero lines are parallel and never cross; Phi is constant along
    # null(P), whose basis enters as a plane through 0, so the fit is the 1-d
    # optimum of the y values
    from planefit.omp1d import solve_omp

    y = np.array([0.0, 1.0, 3.0, 7.0, 8.0])
    data = Dataset.from_observations(np.column_stack([np.full(5, 2.0), y]))
    for lam in (preset("AkC", 5).lam, np.array([0.0, 1.0, 0.5, 1.0, 0.0])):
        r = fit(FitRequest(data, Criterion(lam), Vertical()))
        assert r.solver_tag == "exact-enum"
        assert r.phi_star == pytest.approx(solve_omp(y, lam, 1).value, rel=1e-12, abs=0.0)


def test_med_and_akc_block_fits_match_oracle(rng):
    from planefit import solvers
    from planefit.rng import SplitMix64

    ball = l1_ball(2)
    for n in (7, 12):
        data = random_dataset(rng, n, 2)
        for name, tag in (("MED", "quantile-scan"), ("AkC", "exact-enum")):
            crit = preset(name, n)
            for g in first_of_each_class(ball.vertices):
                # the disjunct value picks the winner, so it must be the objective at v
                prob = solvers._disjunct_problem(data, ball, g)
                assert solvers._route(crit, prob.n_params) == tag
                val, v = solvers._solve_subproblem(prob, crit, rng=SplitMix64(0),
                                                   multistart=0, node_limit=1)
                assert val == pytest.approx(evaluate(crit, prob.residuals(v)), rel=1e-12)
            r = fit(FitRequest(data, crit, Block(l1_ball(2))))
            assert r.solver_tag == tag
            oracle = brute_force_fit_2d(data, crit, Block(l1_ball(2)),
                                        ((0.0, math.pi), (-8.0, 8.0), 5e-3))
            assert r.phi_star <= oracle.phi_star + 1e-9


def test_weight_shape_routes_stay_exact_above_the_enumeration_cap():
    from planefit import solvers
    from planefit.evaluation import synthetic_generate
    from planefit.rng import SplitMix64

    n = 100
    assert n > solvers.EXACT_ENUM_MAX_N
    data = synthetic_generate(n, 2, "X", seed=7)
    akc, med = preset("AkC", n), preset("MED", n)
    ball = l1_ball(2)
    r = fit(FitRequest(data, akc, Block(ball)))
    assert r.solver_tag == "exact-enum"
    probs = [solvers._disjunct_problem(data, ball, g)
             for g in first_of_each_class(ball.vertices)]
    concentration = min(
        _phi(prob, akc.lam, solvers._solve_concentration(prob, akc.lam, 1.0, SplitMix64(0), 0))
        for prob in probs)
    assert r.phi_star <= concentration * (1 + 1e-12)
    r = fit(FitRequest(data, med, Vertical()))
    assert r.solver_tag == "quantile-scan"
    prob = solvers._vertical_problem(data)
    concentration = _phi(prob, med.lam,
                         solvers._solve_concentration(prob, med.lam, 1.0, SplitMix64(0), 0))
    assert r.phi_star <= concentration * (1 + 1e-12)


def test_one_rank_heuristic_steps_to_the_minimax_fit_of_the_r_smallest():
    # d = 3 vertical fits above MILP_MAX_N take the heuristic; a one-rank
    # step that re-fit on the single ranked point barely moved, the minimax
    # fit of the r points with the smallest residuals never raises Phi.
    # (criterion, n, data seed, phi* with the single-point re-fit)
    from planefit.evaluation import synthetic_generate

    cells = (("MED", 12, 1, 109.01982114965493), ("MED", 12, 2, 42.00051711468615),
             ("MED", 30, 1, 5.436424547156641), ("MED", 60, 1, 26.945409098743376),
             ("LMS", 30, 1, 8208.541887184841), ("LMS", 60, 2, 8522.050004048764),
             ("AkC", 30, 1, 29.287980983522964))
    phi = {}
    for name, n, seed, before in cells:
        r = fit(FitRequest(synthetic_generate(n, 3, "Y", seed), preset(name, n), Vertical()))
        assert r.solver_tag == "heuristic"
        assert r.phi_star <= before * (1 + 1e-12)
        phi[name, n, seed] = r.phi_star
    assert phi["MED", 12, 1] < 1.7  # exhaustive elemental search: 1.6216
    assert phi["LMS", 30, 1] < 20.0


def test_route_table_by_weight_shape():
    from planefit.criteria import Criterion
    from planefit.solvers import _route

    n = 30
    kc_squared = Criterion(preset("kC", n).lam, 2)
    for n_params in (2, 3):  # d = 2 vertical or d = 3 disjunct; d = 3 vertical
        assert _route(preset("MAX", n), n_params) == "lp"
        assert _route(preset("LQS", n, r=n), n_params) == "lp"
        assert _route(Criterion(np.ones(n), 3), n_params) == "irls"
        assert _route(Criterion(np.ones(n), Fraction(3, 2)), n_params) == "irls"
        assert _route(preset("SOS", n), n_params) == "lsq"
        assert _route(kc_squared, n_params) == "descent"
    assert _route(preset("LMS", n), 2) == "quantile-scan"
    assert _route(preset("LMS", n), 3) == "heuristic"
    assert _route(preset("LTS", n, alpha=0.5), 2) == "lts-scan"
    assert _route(preset("LTS", n, alpha=0.5), 3) == "heuristic"
    # the assignment MILP's root bound is 0: at n = 7 MED took 7,000-9,200
    # nodes and 12-18 s, and at n = 8 it had no incumbent after 2,000
    for name in ("MED", "AkC"):
        assert _route(preset(name, 6), 3) == "milp"
        assert _route(preset(name, 7), 3) == "heuristic"


def test_max_type_fits_take_the_exact_lp_in_d3():
    # lam_n max|r|^2 has the minimizer of max|r|, so LQS(r = n) is MAX squared
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(30, 3, "Y", 1)
    for norm in (Vertical(), Block(l1_ball(3), linf_ball(3))):
        top = fit(FitRequest(data, preset("MAX", 30), norm, seed=1))
        lqs = fit(FitRequest(data, preset("LQS", 30, r=30), norm, seed=1))
        assert top.solver_tag == lqs.solver_tag == "lp"
        assert lqs.phi_star == pytest.approx(top.phi_star**2, rel=1e-12)


def _subgradient(prob, lam, p, v0, iters=5000, patience=500):
    """Test-only reference: projected subgradient descent on the ordered
    objective with diminishing steps, from ``v0``, keeping the best iterate;
    it stops after ``iters`` steps or ``patience`` steps without improving."""
    v = alternating_projection(prob, np.asarray(v0, dtype=float))
    signed = prob.A @ v + prob.c
    res = np.abs(signed)
    best_val = float(np.sort(res) ** p @ lam)
    best_v = v.copy()
    since_improved = 0
    step0 = 0.5 * (1.0 + float(np.linalg.norm(v))) / (1.0 + float(np.abs(prob.A).max()))
    for it in range(1, iters + 1):
        order = np.argsort(res, kind="stable")
        ranked = np.empty_like(lam)
        ranked[order] = lam
        grad = prob.A.T @ (ranked * p * res ** (p - 1.0) * np.sign(signed))
        norm = float(np.linalg.norm(grad))
        if norm < 1e-14:
            break
        v = alternating_projection(prob, v - (step0 / math.sqrt(it)) * grad / norm)
        signed = prob.A @ v + prob.c
        res = np.abs(signed)
        val = float(np.sort(res) ** p @ lam)
        if val < best_val - 1e-12 * max(1.0, abs(best_val)):
            best_val, best_v = val, v.copy()
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= patience:
                break
    return best_val, best_v


def _vertical_and_l1_problems(data):
    """The vertical problem and the first sign-distinct l1 disjunct of ``data``."""
    from planefit.solvers import _as_block, _disjunct_problem, _vertical_problem

    ball = _as_block(LTau(1), data.dim).ball
    return (_vertical_problem(data),
            _disjunct_problem(data, ball, first_of_each_class(ball.vertices)[0]))


def test_irls_is_never_above_descent_on_constant_weights():
    # constant weights at p > 2 take irls; projected subgradient descent from
    # the least-squares start never does better
    from planefit.evaluation import synthetic_generate
    from planefit.solvers import _weighted_fit

    for seed in range(1, 6):
        data = synthetic_generate(30, 3, "Y", seed)
        ones = np.ones(data.n)
        for prob in _vertical_and_l1_problems(data):
            for p in (3.0, 4.0):
                irls = float(ones @ prob.residuals(_weighted_fit(prob, ones, p)) ** p)
                descent, _ = _subgradient(prob, ones, p, _weighted_fit(prob, ones, 2.0))
                assert irls <= descent * (1.0 + 1e-12)


def test_conditional_gradient_is_never_above_subgradient_descent():
    from planefit.evaluation import synthetic_generate
    from planefit.solvers import _conditional_gradient, _weighted_fit

    n = 30
    lams = (preset("kC", n).lam, np.sort(np.random.default_rng(1).uniform(size=n)))
    for d in (2, 3):
        data = synthetic_generate(n, d, "Y", 1)
        for prob in _vertical_and_l1_problems(data):
            start = _weighted_fit(prob, np.ones(n), 2.0)
            for lam in lams:
                for p in (1.5, 2.0, 3.0):
                    v = _conditional_gradient(prob, lam, p)
                    assert prob.feasible(v)
                    got = _phi(prob, lam, v, p)
                    reference, _ = _subgradient(prob, lam, p, start)
                    assert got <= reference * (1.0 + 1e-12)


def test_conditional_gradient_is_one_weighted_fit_for_constant_weights(monkeypatch):
    # lsq and irls keep the single fixed-weight fit they made before sharing
    # the conditional-gradient branch with descent
    from planefit import solvers
    from planefit.criteria import Criterion
    from planefit.evaluation import synthetic_generate

    weighted_fit = solvers._weighted_fit
    calls = []

    def counted(prob, weights, p):
        calls.append(p)
        return weighted_fit(prob, weights, p)

    monkeypatch.setattr(solvers, "_weighted_fit", counted)
    n = 30
    for d in (2, 3):
        for prob in _vertical_and_l1_problems(synthetic_generate(n, d, "Y", 1)):
            for crit in (preset("SOS", n), preset("1.5SUM", n), Criterion(np.ones(n), 3)):
                calls.clear()
                v = solvers._conditional_gradient(prob, crit.lam, crit.p_float)
                assert calls == [crit.p_float]
                want = weighted_fit(prob, np.ones(n), crit.p_float)
                assert v.tobytes() == want.tobytes()


def test_descent_fit_matches_nested_golden_section():
    # kC weights at p = 3 take descent; Phi is convex in (b0, slope), so the
    # nested golden-section search brackets its minimum
    from planefit.criteria import Criterion
    from planefit.evaluation import synthetic_generate
    from planefit.solvers import _vertical_problem

    data = synthetic_generate(100, 2, "Y", 1)
    crit = Criterion(preset("kC", 100).lam, 3)
    r = fit(FitRequest(data, crit, Vertical()))
    assert r.solver_tag == "descent"
    x, y = data.matrix[:, 1], data.matrix[:, 2]
    span = 4.0 * (np.ptp(y) + 1.0) / np.ptp(x)
    reference = _nested_golden_reference(_vertical_problem(data), crit.lam, 3.0,
                                         ordered=True, slopes=(-span, span))
    assert r.phi_star == pytest.approx(reference, rel=1e-9)


def _elemental_starts(monkeypatch, prob, points):
    """(given, starts): the elemental points ``_start_points`` is handed,
    ``points`` in turn and then its own solves, and the starts it makes of
    them, its least-squares, LAD and quantile starts skipped."""
    from planefit import solvers
    from planefit.rng import SplitMix64

    def failed(*args, **kwargs):
        raise solvers.SolverError("skip the least-squares, LAD and quantile starts")

    queue, given = list(points), []
    solve = np.linalg.solve
    m = prob.n_params

    def elemental(a, b):
        # the active-set solves are at most rank(P) <= m - 1 wide
        if a.shape != (m, m):
            return solve(a, b)
        given.append(queue.pop(0).copy() if queue else solve(a, b))
        return given[-1].copy()

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_weighted_fit", failed)
        patch.setattr(solvers, "_solve_quantile_2param", failed)
        patch.setattr(np.linalg, "solve", elemental)
        starts = solvers._start_points(prob, np.ones(prob.A.shape[0]), SplitMix64(0),
                                       len(queue))
    assert len(starts) == len(given)
    return given, starts


def test_project_in_2d_is_a_clip_of_the_slope(stars, rng, monkeypatch):
    # an elemental start outside a chord's slope bounds is projected onto
    # them: in d = 2, a clip of the slope, bit for bit
    from planefit.solvers import _disjunct_problem

    ball = polar_polytope(inscribed_polytope(2, 32)[0])
    for g in first_of_each_class(ball.vertices):
        prob = _disjunct_problem(stars, ball, g)
        assert prob.rows.shape == (0, 2)
        t_lo, t_hi = prob.bounds[1]
        assert np.isfinite(t_lo) and np.isfinite(t_hi)
        given, starts = _elemental_starts(monkeypatch, prob, rng.normal(size=(20, 2)) * 3.0)
        for v, start in zip(given, starts):
            want = np.array([v[0], np.clip(v[1], t_lo, t_hi)])
            assert start.tobytes() == want.tobytes()


def test_project_lands_feasible_on_d3_linf_disjunct(rng, monkeypatch):
    from planefit.solvers import _as_block, _disjunct_problem

    data = random_dataset(rng, 6, 3)
    ball = _as_block(LTau(math.inf), 3).ball
    for g in first_of_each_class(ball.vertices):
        prob = _disjunct_problem(data, ball, g)
        assert len(prob.rows)  # d = 3 facets do not reduce to bounds
        _, starts = _elemental_starts(monkeypatch, prob, rng.normal(size=(20, 3)) * 3.0)
        for start in starts:
            assert prob.feasible(start, tol=1e-9)


def test_start_projection_is_the_nearest_feasible_point_on_d3_disjuncts(rng, monkeypatch):
    # an elemental start outside a d = 3 l1 or linf disjunct lands on the
    # nearest feasible point: no feasible point sampled around it is nearer
    from planefit.solvers import _as_block, _disjunct_problem

    data = random_dataset(rng, 6, 3)
    moved = 0
    for tau in (1, math.inf):
        ball = _as_block(LTau(tau), 3).ball
        for g in first_of_each_class(ball.vertices):
            prob = _disjunct_problem(data, ball, g)
            given, starts = _elemental_starts(monkeypatch, prob, rng.normal(size=(20, 3)) * 3.0)
            for v, start in zip(given, starts):
                assert prob.feasible(start, tol=1e-9)
                dist = float(np.linalg.norm(start - v))
                moved += dist > 0.0
                sample = start + rng.normal(size=(400, 3)) * (0.1 * dist)
                near = sample[prob.feasible(sample.T, tol=0.0)]
                assert np.all(np.linalg.norm(near - v, axis=1) >= dist * (1.0 - 1e-12))
    assert moved >= 60


def test_feasible_on_a_block_is_the_per_point_answer(stars, rng):
    # the vertical chart has no constraints, a chord only bounds and a d = 3
    # l1 disjunct general rows too
    from planefit import solvers

    data = random_dataset(rng, 8, 3)
    V = solvers._polygon_vertices(solvers._as_block(LTau(2), 2))
    ball = l1_ball(3)
    probs = [solvers._vertical_problem(data), solvers._chord_problem(stars, V[0], V[4])]
    probs += [solvers._disjunct_problem(data, ball, g) for g in first_of_each_class(ball.vertices)]
    assert [len(prob.rows) for prob in probs[:2]] == [0, 0]
    inside = []
    for prob in probs:
        block = rng.normal(size=(prob.n_params, 4, 50))
        for tol in (0.0, 1e-9):
            got = prob.feasible(block, tol=tol)
            assert got.shape == (4, 50)
            want = [[prob.feasible(block[:, i, j], tol=tol) for j in range(50)] for i in range(4)]
            assert got.tolist() == want
        inside.append(got.mean())
    assert inside[0] == 1.0 and all(0.0 < share < 1.0 for share in inside[1:])


def test_milp_fit_raises_at_the_node_limit():
    # MED x vertical takes 117 nodes and the second l1 disjunct 81: a fit
    # stopped before it proves optimality raises rather than return a plane
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(6, 3, "Y", 1)
    for norm, node_limit in ((Vertical(), 40), (LTau(1), 20)):
        assert fit(FitRequest(data, preset("MED", 6), norm)).solver_tag == "milp"
        with pytest.raises(SolverError, match=f"iteration_limit after {node_limit} nodes "
                                              fr"\(node limit {node_limit}\)"):
            fit(FitRequest(data, preset("MED", 6), norm, node_limit=node_limit))


# ---------------------------------------------------------------------------
# the fixed-weight solver


def _stars_32gon_disjuncts(stars):
    """Every sign-distinct disjunct of the 32-gon at tau = 3/2, 2 and 3."""
    from planefit.solvers import _disjunct_problem

    for tau in (Fraction(3, 2), Fraction(2), Fraction(3)):
        ball = polar_polytope(inscribed_polytope(tau, 32)[0])
        for g in first_of_each_class(ball.vertices):
            yield _disjunct_problem(stars, ball, g)


def _golden_min(f, lo, hi):
    """Minimum value of a convex function on [lo, hi] by golden-section search."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - shrink * (b - a), a + shrink * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-12 * max(1.0, abs(a), abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - shrink * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + shrink * (b - a)
            f2 = f(x2)
    return min(f1, f2, f(lo), f(hi))


def _nested_golden_reference(prob, weights, p, ordered=False, slopes=None):
    """min over (b0, t) of sum_i weights[i] |b0 + c_i + t A_i1|^p, t in the slope
    interval (or in ``slopes``), with the residuals sorted before weighting
    when ``ordered`` (for nondecreasing weights).  The objective is jointly
    convex, so its partial minimum over b0 is convex in t; the inner minimum
    lies between the weighted points."""
    t_lo, t_hi = prob.bounds[1] if slopes is None else slopes
    u, a = prob.c, prob.A[:, 1]

    def reduced(t):
        s = u + t * a
        if ordered:
            return _golden_min(lambda b0: float(weights @ np.sort(np.abs(b0 + s)) ** p),
                               -s.max(), -s.min())
        pts = -s[weights > 0]
        return _golden_min(lambda b0: float(weights @ np.abs(b0 + s) ** p),
                           pts.min(), pts.max())

    return _golden_min(reduced, t_lo, t_hi)


def test_weighted_fit_matches_nested_golden_section(stars):
    from planefit.solvers import _weighted_fit

    count = 0
    for k, prob in enumerate(_stars_32gon_disjuncts(stars)):
        t_lo, t_hi = prob.bounds[1]
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
            continue
        count += 1
        n = prob.A.shape[0]
        trimmed = np.ones(n)
        trimmed[np.random.default_rng(k).permutation(n)[: n // 2]] = 0.0
        for weights in (np.ones(n), trimmed):
            for p in (1.5, 2.0, 3.0):
                v = _weighted_fit(prob, weights, p)
                assert t_lo <= v[1] <= t_hi
                got = float(weights @ prob.residuals(v) ** p)
                assert got == pytest.approx(_nested_golden_reference(prob, weights, p),
                                            rel=1e-10)
    assert count == 48


def _sos_slice_reference(prob):
    """Unit-weight least squares on a slice as solved before one fixed-weight
    solver took it over: the free solution when feasible, else in d = 2 the
    better slope end with its offset re-solved, else a projection."""
    v, *_ = np.linalg.lstsq(prob.A, -prob.c, rcond=None)
    if prob.feasible(v):
        return float(np.sum(prob.residuals(v) ** 2)), v
    if prob.n_params == 2:
        best = (np.inf, None)
        for t in prob.bounds[1]:
            if not np.isfinite(t):
                continue
            col = prob.A[:, 0]
            b0 = float(col @ (-prob.c - prob.A[:, 1] * t) / (col @ col))
            vv = np.array([b0, t])
            val = float(np.sum(prob.residuals(vv) ** 2))
            if val < best[0]:
                best = (val, vv)
        if best[1] is not None:
            return best
    v = alternating_projection(prob, v)
    return float(np.sum(prob.residuals(v) ** 2)), v


def test_least_squares_matches_sos_slice_reference(stars, rng):
    from planefit.solvers import _as_block, _disjunct_problem, _least_squares

    probs = list(_stars_32gon_disjuncts(stars))
    data = random_dataset(rng, 12, 3)
    ball = _as_block(LTau(math.inf), 3).ball
    probs += [_disjunct_problem(data, ball, g) for g in first_of_each_class(ball.vertices)]
    outside = 0
    for prob in probs:
        free, *_ = np.linalg.lstsq(prob.A, -prob.c, rcond=None)
        outside += not prob.feasible(free)
        want, want_v = _sos_slice_reference(prob)
        v = _least_squares(prob, np.ones(prob.A.shape[0]))
        assert float(np.sum(prob.residuals(v) ** 2)) == pytest.approx(want, rel=1e-12)
        assert v == pytest.approx(want_v, rel=1e-12, abs=1e-12)
    assert outside >= 10


def _kkt_error(prob, weights, v):
    """Largest violation of the KKT conditions of min sum w r^2 over the
    feasible set at v: feasibility, stationarity with the active rows and
    nonnegative multipliers, relative to the gradient's scale."""
    rows = list(zip(prob.rows, prob.rhs))
    for j, (lo, hi) in enumerate(prob.bounds):
        unit = np.eye(prob.n_params)[j]
        if np.isfinite(hi):
            rows.append((unit, hi))
        if np.isfinite(lo):
            rows.append((-unit, -lo))
    G = np.array([row for row, _ in rows])
    h = np.array([rhs for _, rhs in rows])
    grad = 2.0 * prob.A.T @ (weights * (prob.A @ v + prob.c))
    scale = max(1.0, float(np.abs(2.0 * prob.A.T @ (weights * prob.c)).max()))
    slack = G @ v - h
    active = np.abs(slack) <= 1e-9
    mu = np.zeros(0)
    stationarity = grad
    if active.any():
        mu, *_ = np.linalg.lstsq(G[active].T, -grad, rcond=None)
        stationarity = grad + G[active].T @ mu
    return max(float(np.abs(stationarity).max()) / scale, float(max(0.0, slack.max())),
               float(max(0.0, -mu.min())) / scale if mu.size else 0.0)


def test_least_squares_is_exact_on_d3_block_disjuncts():
    from planefit.evaluation import synthetic_generate
    from planefit.solvers import _as_block, _disjunct_problem, _least_squares

    constrained = 0
    for corruption in "XY":
        for seed in range(1, 21):
            data = synthetic_generate(40, 3, corruption, seed)
            for tau in (1, math.inf):
                ball = _as_block(LTau(tau), 3).ball
                for g in first_of_each_class(ball.vertices):
                    prob = _disjunct_problem(data, ball, g)
                    weights = np.ones(data.n)
                    free, *_ = np.linalg.lstsq(prob.A, -prob.c, rcond=None)
                    constrained += not prob.feasible(free)
                    assert _kkt_error(prob, weights, _least_squares(prob, weights)) <= 1e-9
    assert constrained >= 60  # the free solution is infeasible on many disjuncts


# ---------------------------------------------------------------------------
# coarse-to-fine sector search of l-tau fits


def _sign_distinct_reference(vertices):
    """The pairwise loop ``first_of_each_class`` replaced, with the tolerance
    taken at the vertices' scale: the least power of two at or above their
    largest |coordinate|."""
    from planefit.geometry import VERTEX_SYMMETRY_TOL

    top, scale = np.abs(vertices).max(), 1.0
    while scale < top:
        scale *= 2.0
    while scale / 2.0 >= top:
        scale /= 2.0
    chosen = []
    for g, v in enumerate(vertices):
        if any(np.abs(vertices[h] + v).max() < VERTEX_SYMMETRY_TOL * scale for h in chosen):
            continue
        chosen.append(g)
    return chosen


def _polar_dedupe_reference(vertices):
    """A pairwise loop that drops coincident vertices, a no-op on the polars
    of these polytopes."""
    uniq = []
    for v in vertices:
        if not any(np.abs(v - u).max() < 1e-10 for u in uniq):
            uniq.append(v)
    return np.array(uniq)


def test_vertex_dedupes_match_reference_loops(rng):
    
    polys = [inscribed_polytope(Fraction(3, 2), N)[0] for N in (4, 32, 320)]
    polys += [l1_ball(2), linf_ball(2), l1_ball(3), linf_ball(3), HEX]
    for poly in polys:
        raw = poly.facet_normals / poly.facet_offsets[:, None]
        polar = polar_polytope(poly)
        assert np.array_equal(polar.vertices, _polar_dedupe_reference(raw))
        for verts in (poly.vertices, polar.vertices):
            assert first_of_each_class(verts) == _sign_distinct_reference(verts)
    # repeats, chains of near-duplicates and mirror images, where the greedy
    # first-occurrence choice depends on the order
    for _ in range(20):
        base = rng.normal(size=(12, 2))
        pts = np.vstack([base, base[:6] + 6e-11, -base[3:9], base[:4] + 1.2e-10,
                         -base[:5] + 8e-13, -base[:5] - 1.5e-12])
        pts = pts[rng.permutation(len(pts))]
        assert first_of_each_class(pts) == _sign_distinct_reference(pts)


def _sector_values(data, crit, tau, N):
    """Value of every sector of the inscribed N-gon, by width: widths above
    one on the chord between the end vertices, width one on the edge's
    disjunct."""
    from planefit.solvers import _chord_problem, _disjunct_problem, _solve_subproblem
    from planefit.rng import SplitMix64

    poly, _ = inscribed_polytope(tau, N)
    ball = polar_polytope(poly)
    V = poly.vertices
    out = {}
    for width in (8, 4, 2, 1):
        out[width] = []
        for a in range(0, N, width):
            if width == 1:
                prob = _disjunct_problem(data, ball, a)
            else:
                prob = _chord_problem(data, V[a], V[(a + width) % N])
            out[width].append(_solve_subproblem(prob, crit, rng=SplitMix64(0), multistart=4,
                                                node_limit=1000)[0])
    return out


def test_coarse_edge_value_bounds_its_children(stars, rng):
    sets = [stars, random_dataset(rng, 25, 2), random_dataset(rng, 30, 2, spread=5.0)]
    for data in sets:
        for name in ("SUM", "AkC", "SOS"):
            crit = preset(name, data.n, K=data.n // 3) if name == "AkC" else preset(name, data.n)
            for tau in (Fraction(3, 2), Fraction(2), Fraction(3)):
                values = _sector_values(data, crit, tau, 32)
                assert [len(values[w]) for w in (8, 4, 2, 1)] == [4, 8, 16, 32]
                for coarse, fine in ((8, 4), (4, 2), (2, 1)):
                    for k, val in enumerate(values[coarse]):
                        for child in (values[fine][2 * k], values[fine][2 * k + 1]):
                            assert val <= child * (1.0 + 1e-9) + 1e-12


def _same_fit(a, b):
    assert a.solver_tag == b.solver_tag
    assert a.subproblem_count == b.subproblem_count
    assert a.phi_star == b.phi_star and a.gcod == b.gcod and a.sd == b.sd
    assert a.bounds == b.bounds
    assert np.array_equal(a.hyperplane.beta, b.hyperplane.beta)


def _count_solves(monkeypatch):
    """Record the edge range [a, b) of every sector a d = 2 fit solves, as
    indices into the counter-clockwise polar vertices ``_solve_block``
    orders; building a disjunct fails the test, since no d = 2 fit may."""
    from planefit import solvers

    calls = []
    index = {}
    real_order, real_chord = solvers._polygon_vertices, solvers._chord_problem

    def order(block):
        V = real_order(block)
        index.clear()
        index.update({tuple(v): a for a, v in enumerate(V)})
        return V

    def chord(data, p, q):
        a, b = index[tuple(p)], index[tuple(q)]
        calls.append((a, b if b > a else b + len(index)))
        return real_chord(data, p, q)

    def disjunct(*args):
        raise AssertionError("a d = 2 fit built a disjunct")

    monkeypatch.setattr(solvers, "_polygon_vertices", order)
    monkeypatch.setattr(solvers, "_chord_problem", chord)
    monkeypatch.setattr(solvers, "_disjunct_problem", disjunct)
    return calls


def _flat(monkeypatch, fit_fn, *args, **kwargs):
    """``fit_fn(*args, **kwargs)`` with ``_solve_block`` forced to its flat
    scan, every edge on its own, as for a route that proves nothing."""
    from planefit import solvers

    real = solvers._solve_block
    with monkeypatch.context() as m:
        m.setattr(solvers, "_solve_block",
                  lambda data, block, solve, proven: real(data, block, solve, False))
        return fit_fn(*args, **kwargs)


EDGES_16 = [(g, g + 1) for g in range(16)]


def test_sector_search_matches_flat_scan_at_n32(monkeypatch, stars):
    # the flat scan solves the 16 edges in order; the search starts from
    # the 4-gon and prunes over 4, 8, 16, 32 whenever the route is proven
    from planefit.cli import GRID_CRITERIA, build_criterion

    calls = _count_solves(monkeypatch)
    for name, param in [(name, None) for name in GRID_CRITERIA] + [("LQS", str(stars.n))]:
        crit = build_criterion(name, stars.n, param)
        for tau in (Fraction(3, 2), Fraction(2), Fraction(3)):
            calls.clear()
            request = FitRequest(stars, crit, LTau(tau), seed=1, polytope_vertices=32)
            flat = _flat(monkeypatch, fit, request)
            assert calls == EDGES_16
            calls.clear()
            pruned = fit(request)
            _same_fit(pruned, flat)
            if name == "1.5SUM":  # irls proves nothing: every edge, in order
                assert calls == EDGES_16
            else:
                assert calls[:2] == [(0, 8), (8, 16)]
                assert len(calls) <= 14


def test_sector_search_matches_flat_scan_at_n320(monkeypatch, stars):
    # a supplied polygon is searched like the internal one
    calls = _count_solves(monkeypatch)
    poly, _ = inscribed_polytope(2, 320)
    for name in ("SUM", "kC", "MED", "AkC"):
        crit = preset(name, stars.n, K=35) if name in ("kC", "AkC") else preset(name, stars.n)
        calls.clear()
        request = FitRequest(stars, crit, LTau(2), seed=1, polytope_vertices=320)
        flat = _flat(monkeypatch, fit, request)
        assert calls == [(g, g + 1) for g in range(160)]
        calls.clear()
        pruned = fit(request)
        _same_fit(pruned, flat)
        assert pruned.subproblem_count == 160
        assert calls[:5] == [(a, a + 32) for a in range(0, 160, 32)]  # the 10-gon
        assert len(calls) <= 20
        searched = list(calls)
        calls.clear()
        _same_fit(fit(FitRequest(stars, crit, LTau(2), seed=1, polytope_vertices=poly)), pruned)
        assert calls == searched


def test_block_polygons_are_searched_on_chords(monkeypatch, stars):
    # a d = 2 block ball, l1, linf or read from a file, is searched on the
    # chords of its polar polygon like an l-tau fit, with the flat scan's
    # answer and one disjunct per sign-distinct ball vertex; the 24-gon
    # starts from the chords of a 6-gon.  The 292-gon on the l-11 sphere
    # (tau = 11/10, N = 320) as a ball has edge normals about 1e-11 apart
    # near the axes, so neighbouring polar vertices are nearly collinear:
    # every one is still a vertex of the search
    
    k = np.arange(24) * math.pi / 12
    ellipse = Polytope.from_vertices(np.column_stack([2.0 * np.cos(k), np.sin(k)]))
    fine, _ = inscribed_polytope(Fraction(11, 10), 320)
    calls = _count_solves(monkeypatch)
    for ball, n_v in ((ellipse, 24), (HEX, 6), (l1_ball(2), 4), (linf_ball(2), 4), (fine, 292)):
        block = Block(ball)
        assert len(first_of_each_class(ball.vertices)) == n_v // 2
        for name in ("MED", "SUM", "SOS", "1.5SUM"):
            crit = preset(name, stars.n)
            calls.clear()
            flat = _flat(monkeypatch, fit, FitRequest(stars, crit, block, seed=1))
            assert calls == [(g, g + 1) for g in range(n_v // 2)]
            calls.clear()
            searched = fit(FitRequest(stars, crit, block, seed=1))
            _same_fit(searched, flat)
            assert searched.subproblem_count == n_v // 2
            if n_v == 24 and name != "1.5SUM":
                assert calls[:3] == [(0, 4), (4, 8), (8, 12)]
                assert len(calls) <= 9


def test_unproven_routes_keep_their_results(stars):
    # irls (1.5SUM) solves all 16 edges in disjunct order, drawing the same
    # random numbers as before the sector search
    from planefit.cli import build_criterion

    want = {
        "1.5SUM": ("irls+inner-32gon", 5.333887647873074,
                   [-4.15199178554076, 0.9991093406954765, -0.042196271577594986],
                   [0.0, 5.346438998765982]),
    }
    for name, (tag, phi, beta, bounds) in want.items():
        crit = build_criterion(name, stars.n, "0.5" if name == "LTS" else None)
        r = fit(FitRequest(stars, crit, LTau(2), seed=1, polytope_vertices=32))
        assert (r.solver_tag, r.subproblem_count) == (tag, 16)
        assert r.phi_star == pytest.approx(phi, rel=1e-12)
        assert r.hyperplane.beta == pytest.approx(beta, rel=1e-12)
        assert r.bounds == pytest.approx(bounds, rel=1e-12)


def test_unproven_ltau_brackets_start_at_zero(stars):
    # an unproven route's block value bounds nothing, so the lower end is
    # Phi >= 0; the upper end, rho / r_P**p, holds for any plane.  On this
    # heuristic fit the block value, 11373.63, lies above a plane the oracle
    # finds at 11366.65
    from planefit.evaluation import synthetic_generate

    data, tau = synthetic_generate(20, 2, "X", 2), Fraction(3, 2)
    crit = Criterion(np.r_[0.0, np.ones(18), 0.0], tau)
    r = fit(FitRequest(data, crit, LTau(tau)))
    assert r.solver_tag == "heuristic+inner-32gon"
    assert r.bounds[0] <= brute_force_fit_2d(data, crit, LTau(tau)).phi_star
    for tau, upper in ((Fraction(3, 2), 5.402634998069219), (2, 5.346438998765982),
                       (3, 5.273162803228618)):
        r = fit(FitRequest(stars, preset("1.5SUM", stars.n), LTau(tau)))
        assert r.solver_tag == "irls+inner-32gon"
        assert r.bounds[0] == 0.0
        assert r.bounds[1] == pytest.approx(upper, rel=1e-12)


def test_sector_search_refines_every_bound_within_the_margin(monkeypatch):
    # scripted values on the sectors of the 16-gon, keyed (level, k): level 0
    # holds the chords of width 4, level 1 those of width 2 and level 2 the
    # edges (chords one edge wide), each coarse value a lower bound of its
    # halves: a key within 1e-9 relative of the incumbent is refined, one
    # above it is pruned, and the winner keeps the sequential rule, a later
    # edge winning only when lower by more than 1e-12 relative
    from types import SimpleNamespace

    from planefit import solvers

    poly, _ = inscribed_polytope(2, 16)
    block = Block(polar_polytope(poly), poly)
    index = {tuple(v): a for a, v in enumerate(poly.vertices)}

    def problem(key):
        return SimpleNamespace(key=key, to_beta=lambda v: np.array(key, dtype=float))

    def chord(data, p, q):
        a, b = index[tuple(p)], index[tuple(q)]
        return problem(({4: 0, 2: 1, 1: 2}[b - a], a // (b - a)))

    def disjunct(*args):
        raise AssertionError("a polygon built a disjunct")

    monkeypatch.setattr(solvers, "_disjunct_problem", disjunct)
    monkeypatch.setattr(solvers, "_chord_problem", chord)
    base = {(0, 0): 0.5, (0, 1): 1.0 - 1e-12,
            (1, 0): 0.6, (1, 1): 1.0 + 2e-9, (1, 2): 1.0 - 1e-12, (1, 3): 1.0 + 5e-10,
            (2, 0): 1.0 + 1e-11, (2, 4): 1.0, (2, 5): 1.0 - 5e-13}
    # a perfect fit: the margin is relative, so only bounds <= 0 are refined;
    # no value is below 0, so a positive bound cannot hold a better edge
    zero = {(0, 0): 0.0, (0, 1): 5e-13, (1, 0): 0.0, (1, 1): 2e-12, (1, 2): 5e-13, (2, 0): 0.0}
    # every leaf below 1e-12, the first sector's bound equal to the later
    # edge: both are refined, and the later edge, 4x lower, wins on the
    # relative rule
    tiny = {(0, 0): 1e-13, (0, 1): 5e-14, (1, 0): 1e-13, (1, 2): 5e-14, (2, 0): 4e-13,
            (2, 4): 1e-13}
    for values, want_finest, want_beta in (
            (base, [0, 1, 4, 5, 6, 7], [2.0, 4.0]),
            (zero, [0, 1], [2.0, 0.0]),
            (tiny, [0, 1, 4, 5], [2.0, 4.0])):
        solved = []

        def solve(prob):
            solved.append(prob.key)
            return values.get(prob.key, 9.0), None

        beta, count = solvers._solve_block(None, block, solve, True)
        assert solved[:2] == [(0, 0), (0, 1)]
        assert sorted(g for level, g in solved if level == 2) == want_finest
        assert (list(beta), count) == (want_beta, 8)


def _edge_chord_values(data, crit, poly):
    """Value of each of the first half of the edges of ``poly``, solved on
    its own chord beta_-0 = V[g] + s (V[g + 1] - V[g]), s in [0, 1]."""
    from planefit.rng import SplitMix64
    from planefit.solvers import _LinearResiduals, _solve_subproblem

    V = poly.vertices
    values = []
    for g in range(len(V) // 2):
        p, q = V[g], V[g + 1]
        prob = _LinearResiduals.chart(data, (q - p)[:, None], p, np.array([[1.0], [-1.0]]),
                                      np.array([1.0, 0.0]))
        values.append(_solve_subproblem(prob, crit, rng=SplitMix64(0), multistart=4,
                                        node_limit=1000)[0])
    return values


def test_flat_scan_leaves_are_their_edges_chord_optima(stars):
    # on the pruned 292-gon (tau = 11/10, N = 320) neighbouring facet
    # normals lie within 1.6e-11, where a slice beta_-0 . b_g = 1 of the
    # ball lost up to 6.8e-6 relative of its edge's optimum: every leaf of
    # the scan is now the chord of its edge
    from planefit import solvers
    from planefit.rng import SplitMix64

    poly, _ = inscribed_polytope(Fraction(11, 10), 320)
    assert poly.n_vertices == 292
    block = Block(polar_polytope(poly), poly)
    for name in ("AkC", "MED", "SUM"):
        crit = preset(name, stars.n)
        leaves = []

        def solve(prob):
            out = solvers._solve_subproblem(prob, crit, rng=SplitMix64(0), multistart=4,
                                            node_limit=1000)
            leaves.append(out[0])
            return out

        solvers._solve_block(stars, block, solve, False)
        want = _edge_chord_values(stars, crit, poly)
        assert len(leaves) == len(want) == 146
        for have, exact in zip(leaves, want):
            assert have == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_ltau_fits_near_tau_one_cover_every_edge(stars):
    # near tau = 1 the inscribed polygon loses nearly collinear vertices (a
    # 292-gon at tau = 11/10, N = 320) and neighbouring facet normals lie
    # within 1.6e-11: every edge is still one disjunct, and a proven lower
    # bound is the minimum over all of them
    for name in ("SUM", "MED", "SOS", "1.5SUM"):
        crit = preset(name, stars.n)
        for tau in (Fraction(101, 100), Fraction(21, 20), Fraction(11, 10)):
            for N in (64, 128, 320):
                poly, _ = inscribed_polytope(tau, N)
                r = fit(FitRequest(stars, crit, LTau(tau), seed=1, polytope_vertices=N))
                assert r.solver_tag.endswith(f"+inner-{poly.n_vertices}gon")
                assert r.subproblem_count == poly.n_vertices // 2
                if name != "1.5SUM":  # irls proves no bound
                    assert r.bounds[0] == pytest.approx(min(_edge_chord_values(stars, crit, poly)),
                                                        rel=1e-9)


# -- exact trimmed squares (lts-scan) ----------------------------------------


def test_lts_on_ltau_is_proven_by_the_sector_search(monkeypatch, stars):
    # lts-scan is proven, so LTS x ltau:2 is searched best first and its
    # bounds are true; the concentration heuristic stopped at this phi*
    from planefit.cli import build_criterion

    heuristic_phi = 0.029504032879814932
    crit = build_criterion("LTS", stars.n, "0.5")
    calls = _count_solves(monkeypatch)
    r = fit(FitRequest(stars, crit, LTau(2), seed=1, polytope_vertices=32))
    assert (r.solver_tag, r.subproblem_count) == ("lts-scan+inner-32gon", 16)
    assert len(calls) <= 14
    assert r.phi_star <= heuristic_phi * (1 + 1e-12)
    lo, hi = r.bounds
    assert lo <= r.phi_star <= hi
    calls.clear()
    flat = _flat(monkeypatch, fit, FitRequest(stars, crit, LTau(2), seed=1, polytope_vertices=32))
    assert calls == EDGES_16
    _same_fit(r, flat)


def _lts_subset_reference(prob, h):
    """Least sum of h squared residuals by enumerating every h-subset, each
    fitted by the closed-form least squares with the slope clipped."""
    u, w = prob.c.astype(float), prob.A[:, 1].astype(float)
    t_lo, t_hi = prob.bounds[1]
    best = np.inf
    for subset in itertools.combinations(range(u.size), h):
        us, ws = u[list(subset)], w[list(subset)]
        du, dw = us - us.mean(), ws - ws.mean()
        cww, cwu, cuu = dw @ dw, dw @ du, du @ du
        t = float(np.clip(-cwu / cww if cww > 0.0 else 0.0, t_lo, t_hi))
        best = min(best, cuu + t * (2.0 * cwu + t * cww))
    return best


def test_lts_scan_matches_h_subset_enumeration(rng):
    from planefit import solvers

    for n in (5, 7, 10):
        obs = np.round(rng.normal(size=(n, 2)) * 2.0, 1)
        obs[: n // 2, 0] = obs[0, 0]  # tied x values
        data = Dataset.from_observations(obs)
        probs = [solvers._vertical_problem(data)]
        for ball in (l1_ball(2), linf_ball(2)):
            probs += [solvers._disjunct_problem(data, ball, g)
                      for g in first_of_each_class(ball.vertices)]
        for prob in probs:
            t_lo, t_hi = prob.bounds[1]
            for h in range(2, n):
                v = solvers._solve_lts_2param(prob, h)
                sse = float(np.sum(np.sort(prob.residuals(v))[:h] ** 2))
                assert sse == pytest.approx(_lts_subset_reference(prob, h), rel=1e-12, abs=1e-12)
                assert t_lo <= v[1] <= t_hi


def test_lts_scan_is_never_above_concentration(rng):
    from planefit import solvers
    from planefit.rng import SplitMix64

    for n in (30, 60, 100):
        data = random_dataset(rng, n, 2)
        crit = preset("LTS", n, alpha=0.5)
        ball = l1_ball(2)
        probs = [solvers._vertical_problem(data)] + [
            solvers._disjunct_problem(data, ball, g)
            for g in first_of_each_class(ball.vertices)]
        for prob in probs:
            assert solvers._route(crit, prob.n_params) == "lts-scan"
            val, _ = solvers._solve_subproblem(prob, crit, rng=SplitMix64(0),
                                               multistart=0, node_limit=1)
            heuristic = _phi(prob, crit.lam,
                             solvers._solve_concentration(prob, crit.lam, 2.0, SplitMix64(n), 16),
                             2.0)
            assert val <= heuristic * (1 + 1e-12)


def test_lts_fits_are_not_above_the_planted_line():
    # LTS(0.5) x vertical cells of synthetic "X" data (d = 2) on which the
    # concentration heuristic ended above the planted line beta = (0, 1, 1):
    # (n, data seed, heuristic phi*)
    from planefit.evaluation import synthetic_generate

    cells = ((100, 15675988078429736603, 586.91), (100, 15103077602957016101, 851.00),
             (100, 16487015050544192953, 1073.95), (200, 16822691023950484414, 1974.75))
    planted = Hyperplane(np.array([0.0, 1.0, 1.0]))
    for n, seed, heuristic in cells:
        data = synthetic_generate(n, 2, "X", seed)
        crit = preset("LTS", n, alpha=0.5)
        r = fit(FitRequest(data, crit, Vertical(), seed=seed))
        assert r.solver_tag == "lts-scan"
        assert r.phi_star <= phi_at(data, crit, Vertical(), planted)
        assert r.phi_star < heuristic


def test_lts_scan_memory_is_bounded(rng):
    import tracemalloc

    from planefit import solvers

    n = 400
    prob = solvers._vertical_problem(random_dataset(rng, n))
    tracemalloc.start()
    try:
        solvers._solve_lts_2param(prob, n // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _scaled(data, s):
    return Dataset.from_observations(data.matrix[:, 1:] * s)


def test_sector_search_prunes_alike_at_every_data_scale(monkeypatch, stars):
    # the prune margin is relative, so l-tau fits at N = 320 refine the same
    # sectors at data x 1e-8, 1e-4 and 1e4 as at x 1, in 15 chord solves for
    # the 160 edges
    calls = _count_solves(monkeypatch)
    for name in ("SOS", "SUM", "MED", "kC"):
        crit = preset(name, stars.n)
        counts = []
        for s in (1.0, 1e-8, 1e-4, 1e4):
            calls.clear()
            r = fit(FitRequest(_scaled(stars, s), crit, LTau(2), polytope_vertices=320))
            assert r.subproblem_count == 160
            counts.append(len(calls))
        assert counts == [counts[0]] * 4, (name, counts)
        assert counts[0] == 15, name


def test_proven_fits_are_scale_equivariant(stars):
    # Phi is homogeneous: data x s scales phi* by s^p and lam x s scales it
    # by s, so every proven stars-grid cell must land on the scaled optimum,
    # with the same tag, from 1e-16 to 1e16 in the data and 1e-12 to 1e9 in
    # lam
    from planefit.cli import GRID_CRITERIA, GRID_RESIDUALS, build_criterion, parse_residual
    from planefit.criteria import Criterion
    from planefit.solvers import PROVEN_ROUTES

    proven = 0
    for name in GRID_CRITERIA:
        crit = build_criterion(name, stars.n, None)
        for spec in GRID_RESIDUALS:
            norm = parse_residual(spec, stars.dim)
            base = fit(FitRequest(stars, crit, norm))
            if base.solver_tag.split("+")[0] not in PROVEN_ROUTES:
                continue
            proven += 1
            cases = [(_scaled(stars, 10.0**k), crit, 10.0 ** (k * crit.p_float))
                     for k in (-16, -8, -4, 4, 8, 16)]
            cases += [(stars, Criterion(crit.lam * 10.0**k, crit.p), 10.0**k)
                      for k in (-12, -9, 9)]
            for data, scaled, factor in cases:
                r = fit(FitRequest(data, scaled, norm))
                assert r.solver_tag == base.solver_tag, (name, spec, factor)
                assert r.phi_star == pytest.approx(base.phi_star * factor, rel=1e-12, abs=0.0), \
                    (name, spec, factor)
    assert proven == 36
    # d = 3 fits of the 1-norm and the max norm, at 1e4 and 1e5
    from planefit.evaluation import synthetic_generate

    data = synthetic_generate(60, 3, "Y", 1)
    for name, spec in (("MAX", "l1"), ("SUM", "linf")):
        crit, norm = preset(name, data.n), parse_residual(spec, data.dim)
        base = fit(FitRequest(data, crit, norm))
        for s in (1e4, 1e5):
            r = fit(FitRequest(_scaled(data, s), crit, norm))
            assert r.solver_tag == base.solver_tag == "lp"
            assert r.phi_star == pytest.approx(base.phi_star * s, rel=1e-12, abs=0.0)
    # d = 3 block balls x 2^-50 (facet rows near 1e-15) and x 2^60 (offsets
    # near 1e18): phi* scales by 1/s
    data = synthetic_generate(30, 3, "Y", 1)
    for ball in (linf_ball(3).vertices, ICOSAHEDRON):
        for name in ("SUM", "MAX"):
            crit = preset(name, data.n)
            base = fit(FitRequest(data, crit, Block(Polytope.from_vertices(ball))))
            for s in (2.0**-50, 2.0**60):
                r = fit(FitRequest(data, crit, Block(Polytope.from_vertices(ball * s))))
                assert r.solver_tag == base.solver_tag == "lp"
                assert r.phi_star * s == pytest.approx(base.phi_star, rel=1e-12, abs=0.0), \
                    (len(ball), name, s)
