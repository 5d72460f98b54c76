import numpy as np
import pytest

from planefit.criteria import preset
from planefit.geometry import Block, Dataset, Hyperplane, LTau, Polytope, Vertical, residual_vector
from planefit.omp1d import candidate_set, gcod, solve_omp


def grid_minimum(values, lam, p, points=100_000):
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        return lo, float(np.dot(lam, np.zeros(len(values))))
    grid = np.linspace(lo, hi, points)
    res = np.abs(grid[:, None] - np.asarray(values)[None, :])
    res.sort(axis=1)
    objs = res**p @ lam if p != 1 else res @ lam
    k = int(np.argmin(objs))
    return float(grid[k]), float(objs[k])


def test_candidate_set_two_values():
    got = candidate_set(np.array([0.0, 2.0]), np.ones(2), 1.0)
    assert got.tolist() == [0.0, 1.0, 2.0]


def test_candidate_set_contains_mean_for_sos():
    vals = np.array([0.0, 1.0, 4.0])
    cands = candidate_set(vals, np.ones(3), 2.0)
    assert np.min(np.abs(cands - 5.0 / 3.0)) < 1e-9


def test_candidate_count_order():
    vals = np.arange(7, dtype=float)
    cands = candidate_set(vals, np.ones(7), 1.0)
    # data values plus interior pairwise midpoints, deduplicated
    assert len(cands) <= 7 + 21
    assert len(cands) >= 7


def test_median_and_mean_special_cases(rng):
    for _ in range(20):
        vals = rng.normal(size=9) * 5.0
        lam = np.ones(9)
        med = solve_omp(vals, lam, 1.0)
        assert med.value == pytest.approx(np.abs(vals - np.median(vals)).sum(), abs=1e-12)
        mean = solve_omp(vals, lam, 2.0)
        assert mean.beta0 == pytest.approx(np.mean(vals), abs=1e-12)
        assert mean.value == pytest.approx(((vals - vals.mean()) ** 2).sum(), abs=1e-10)


def test_one_center_is_midrange(rng):
    for _ in range(10):
        vals = rng.normal(size=10) * 3.0
        lam = np.zeros(10)
        lam[-1] = 1.0
        got = solve_omp(vals, lam, 1.0)
        want = (vals.min() + vals.max()) / 2.0
        assert got.beta0 == pytest.approx(want, abs=1e-4)
        _, grid_val = grid_minimum(vals, lam, 1.0)
        assert got.value <= grid_val + 1e-9


def test_omp_beats_grid_random_instances(rng):
    for _ in range(25):
        n = int(rng.integers(3, 12))
        vals = rng.normal(size=n) * 4.0
        lam = np.abs(rng.normal(size=n))
        lam[int(rng.integers(0, n))] += 1.0
        p = float(rng.choice([1.0, 1.5, 2.0]))
        got = solve_omp(vals, lam, p)
        _, grid_val = grid_minimum(vals, lam, p)
        assert got.value <= grid_val + 1e-6


def test_omp_tie_breaks_to_smallest():
    # symmetric pair: both endpoints optimal for the max criterion midpoint...
    vals = np.array([0.0, 1.0])
    lam = np.array([1.0, 0.0])  # smallest residual only: any data point works
    got = solve_omp(vals, lam, 1.0)
    assert got.beta0 == 0.0


def _derivative_reference(beta0, values, lam, p):
    diffs = values - beta0
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranked_lam = np.empty_like(lam)
    ranked_lam[order] = lam
    return float(np.sum(-ranked_lam * np.sign(diffs) * p * absd ** (p - 1.0)))


def _solve_omp_reference(values, lam, p):
    """The per-interval loop the blocked pass replaced: derivatives probed
    1e-9 inside each interval (so it holds only on data of unit scale), one
    bisection per sign change, every candidate scored by a sort.  Returns
    (beta0, value, candidate count)."""
    base = np.unique(values)
    mids = ((values[:, None] + values[None, :]) / 2.0)[np.triu_indices(values.size, 1)]
    mids = mids[(mids > base[0]) & (mids < base[-1])]
    points = np.unique(np.concatenate([base, mids]))
    crit = []
    for k in range(points.size - 1 if p != 1.0 else 0):
        a, b = points[k], points[k + 1]
        fa = _derivative_reference(a + 1e-9 * max(b - a, 1.0), values, lam, p)
        fb = _derivative_reference(b - 1e-9 * max(b - a, 1.0), values, lam, p)
        if fa == 0.0 or fa * fb > 0:
            continue
        lo, hi = a, b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = _derivative_reference(mid, values, lam, p)
            if fm == 0.0:
                break
            if fa * fm < 0:
                hi = mid
            else:
                lo, fa = mid, fm
        crit.append(0.5 * (lo + hi))
    cands = np.unique(np.concatenate([points, np.array(crit)]))
    res = np.sort(np.abs(cands[:, None] - values[None, :]), axis=1)
    objs = res**p @ lam
    best = int(np.argmin(objs))
    return float(cands[best]), float(objs[best]), cands.size


def test_omp_matches_reference_loop():
    rng = np.random.default_rng(404)
    for case in range(240):
        n = int(rng.integers(2, 14))
        if case % 3 == 0:
            vals = rng.integers(0, 5, size=n).astype(float)  # many duplicates
        else:
            vals = rng.normal(size=n)
        lam = np.abs(rng.normal(size=n))
        lam[rng.random(n) < 0.3] = 0.0
        lam[int(rng.integers(0, n))] += 0.5
        if case % 4 == 0:
            lam = np.sort(lam)  # monotone; the rest are mostly non-monotone
        p = [1.0, 1.5, 2.0, 3.0][case % 4]
        _, want_value, want_count = _solve_omp_reference(vals, lam, p)
        got = solve_omp(vals, lam, p)
        assert got.value == pytest.approx(want_value, rel=1e-12, abs=1e-300)
        assert got.candidates_evaluated == want_count
        cands = candidate_set(vals, lam, p)
        assert cands.size == want_count
        assert got.beta0 in cands


def test_omp_is_scale_invariant():
    rng = np.random.default_rng(9)
    x = rng.normal(size=9)
    lam = np.array([0.0, 2.0, 0.5, 0.0, 1.0, 3.0, 0.0, 0.25, 1.5])  # non-monotone
    for p in (1.0, 1.5, 2.0):
        unit = solve_omp(x, lam, p)
        for c in (1e-12, 1e-9, 1.0, 1e6):
            got = solve_omp(c * x, lam, p)
            assert got.beta0 == pytest.approx(c * unit.beta0, rel=1e-9), (p, c)
            assert got.value == pytest.approx(c**p * unit.value, rel=1e-9), (p, c)
            assert got.candidates_evaluated == unit.candidates_evaluated, (p, c)


def test_omp_memory_is_bounded_by_the_block():
    import tracemalloc

    rng = np.random.default_rng(3)
    vals = rng.normal(size=300)
    # p = 3/2 with non-monotone lam visits every interval, at n = 200
    zigzag = np.tile([1.0, 0.0, 2.0, 0.5], 50)
    for x, lam, p in ((vals, np.ones(300), 1.0), (vals, np.ones(300), 2.0),
                      (vals[:200], zigzag, 1.5)):
        tracemalloc.start()
        try:
            solve_omp(x, lam, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 45,000 candidates x 300 points would be 108 MB per matrix
        assert peak < 32 * 2**20, (p, peak)


# gcod -----------------------------------------------------------------------


def test_gcod_perfect_fit_is_one(stars):
    crit = preset("SUM", stars.n)
    assert gcod(0.0, stars, crit, LTau(1)) == pytest.approx(1.0)


def test_gcod_constant_model_is_zero(stars):
    crit = preset("SUM", stars.n)
    base = solve_omp(stars.matrix[:, -1], crit.lam, 1.0)
    assert gcod(base.value, stars, crit, LTau(1)) == pytest.approx(0.0, abs=1e-12)


def test_gcod_reference_line_sum_l1(stars):
    # evaluating y = 7x - 25.81 under the l1 distance criterion
    crit = preset("SUM", stars.n)
    plane = Hyperplane.from_slope_intercept(7.0, -25.81)
    phi = crit.lam @ np.sort(residual_vector(plane, stars, LTau(1)))
    assert gcod(phi, stars, crit, LTau(1)) == pytest.approx(0.6505853, abs=1e-7)


def test_gcod_dilation_invariance(stars):
    hexa = Polytope.from_vertices([(2, 0), (2, 2), (-1, 2), (-2, 0), (-2, -2), (1, -2)])
    small = Polytope.from_vertices(np.asarray(hexa.vertices) / 2.0)
    crit = preset("SUM", stars.n)
    plane = Hyperplane.from_slope_intercept(7.0, -25.81)
    phi_big = crit.lam @ np.sort(residual_vector(plane, stars, Block(hexa)))
    phi_small = crit.lam @ np.sort(residual_vector(plane, stars, Block(small)))
    g_big = gcod(phi_big, stars, crit, Block(hexa))
    g_small = gcod(phi_small, stars, crit, Block(small))
    assert g_big == pytest.approx(g_small, abs=1e-12)


def test_gcod_degenerate_reference():
    flat = Dataset.from_observations(np.column_stack([np.arange(4.0), np.ones(4)]))
    crit = preset("SUM", 4)
    assert gcod(0.0, flat, crit, Vertical()) == 1.0
    with pytest.raises(ValueError):
        gcod(1.0, flat, crit, Vertical())


# the sweep against the blocked pass it replaced at p = 1 and p = 2 ----------


def _blocked_reference(values, lam, p):
    """The blocked pass the sweep replaced for p in {1, 2}, and the
    bisection for nondecreasing lam at other p: each block of intervals
    reads its ranking by an argsort at the midpoints, scores the
    breakpoints by row dot products (p = 1: a row sort) and bisects for
    interior roots.  Returns (sorted candidates, f at each)."""
    base = np.unique(values)
    if base.size == 1:
        return base, np.zeros(1)
    iu, ju = np.triu_indices(values.size, 1)
    mids = (values[iu] + values[ju]) / 2.0
    mids = mids[(mids > base[0]) & (mids < base[-1])]
    points = np.unique(np.concatenate([base, mids]))
    if p == 1.0:
        res = np.sort(np.abs(points[:, None] - values[None, :]), axis=1)
        return points, res @ lam
    x = np.sort(values)
    a, b = points[:-1], points[1:]
    order = np.argsort(np.abs((0.5 * (a + b))[:, None] - x[None, :]), axis=1, kind="stable")
    weight = np.empty((a.size, x.size))
    np.put_along_axis(weight, order, lam[None, :], axis=1)
    diff = points[:, None] - x[None, :]
    level = np.abs(diff) ** p
    slope = np.copysign(np.abs(diff) ** (p - 1.0), diff)
    f_points = np.append(np.einsum("ij,ij->i", weight, level[:-1]), weight[-1] @ level[-1])
    act = np.flatnonzero((np.einsum("ij,ij->i", weight, slope[:-1]) < 0.0)
                         & (np.einsum("ij,ij->i", weight, slope[1:]) > 0.0))
    w, lo, hi = weight[act], a[act], b[act]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d = mid[:, None] - x[None, :]
        fm = np.einsum("ij,ij->i", w, np.copysign(np.abs(d) ** (p - 1.0), d))
        lo = np.where(fm <= 0.0, mid, lo)
        hi = np.where(fm >= 0.0, mid, hi)
    root = 0.5 * (lo + hi)
    f_roots = np.einsum("ij,ij->i", w, np.abs(root[:, None] - x[None, :]) ** p)
    cands, first = np.unique(np.concatenate([points, root]), return_index=True)
    return cands, np.concatenate([f_points, f_roots])[first]


def _random_case(rng, case):
    n = int(rng.integers(1, 81))
    kind = case % 4
    if kind == 0:
        vals = rng.integers(0, 6, size=n).astype(float)  # many repeated values
    elif kind == 1:
        vals = np.full(n, 2.5)
    else:
        vals = rng.normal(size=n)
    shape = case % 3
    if shape == 0:  # one rank
        lam = np.zeros(n)
        lam[int(rng.integers(0, n))] = 1.0
    else:
        lam = rng.integers(0, 4, size=n).astype(float) if kind == 0 else np.abs(rng.normal(size=n))
        lam[rng.random(n) < 0.3] = 0.0
        lam[int(rng.integers(0, n))] += 1.0
        if shape == 1:
            lam = np.sort(lam)  # monotone; shape 2 is mostly non-monotone
    return vals, lam


def test_omp_sweep_matches_the_blocked_pass():
    rng = np.random.default_rng(1105)
    for case in range(300):
        vals, lam = _random_case(rng, case)
        for p in (1.0, 2.0):
            cands, objs = _blocked_reference(vals, lam, p)
            want = int(np.argmin(objs))
            got = solve_omp(vals, lam, p)
            assert got.value == pytest.approx(objs[want], rel=1e-12, abs=1e-300), (case, p)
            assert got.candidates_evaluated == cands.size, (case, p)
            got_set = candidate_set(vals, lam, p)
            np.testing.assert_allclose(got_set, cands, rtol=1e-12, atol=1e-15)
            assert got.beta0 in got_set
            if case % 4 == 0 and p == 1.0:
                # small integers: both sides score exactly, so ties are exact
                assert got.beta0 == cands[want], case


def test_omp_bisection_matches_the_blocked_pass(monkeypatch):
    # nondecreasing lam at p not in {1, 2} make f strictly convex: bisected,
    # with the pass's candidate set; other lam visit every interval
    from planefit import omp1d

    passes = []
    real = omp1d._every_interval

    def counting(*args):
        passes.append(args[2])
        return real(*args)

    monkeypatch.setattr(omp1d, "_every_interval", counting)
    rng = np.random.default_rng(1207)
    for case in range(240):
        vals, lam = _random_case(rng, case)
        monotone = bool(np.all(np.diff(lam) >= 0))
        for p in (1.25, 1.5, 3.0):
            passes.clear()
            cands, objs = _blocked_reference(vals, lam, p)
            got = solve_omp(vals, lam, p)
            assert len(passes) == int(not monotone and np.unique(vals).size > 1), (case, p)
            assert got.value == pytest.approx(objs.min(), rel=1e-12, abs=1e-300), (case, p)
            assert got.candidates_evaluated == cands.size, (case, p)
            got_set = candidate_set(vals, lam, p)
            np.testing.assert_allclose(got_set, cands, rtol=1e-12, atol=1e-15)
            assert got.beta0 in got_set


def test_omp_ties_go_to_the_smallest_beta0():
    # SUM on an even count is flat between the middle values
    assert solve_omp([9.0, 1.0, 5.0, 0.0], np.ones(4), 1.0).beta0 == 1.0
    mirror = np.array([0.0, 1.0, 3.0, 4.0])
    # the second-smallest distance is 1/2 at both pair midpoints
    assert solve_omp(mirror, np.array([0.0, 1.0, 0.0, 0.0]), 2.0).beta0 == 0.5
    # the two smallest squared distances sum to 1/2 at both pair midpoints
    got = solve_omp(mirror, np.array([1.0, 1.0, 0.0, 0.0]), 2.0)
    assert (got.beta0, got.value) == (0.5, 0.5)
    # every vertex is on a data value: the breakpoints alone are the candidates
    assert candidate_set(mirror, np.array([1.0, 0.0, 0.0, 0.0]), 2.0).tolist() == [
        0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def test_omp_badly_conditioned_scores_the_winner_on_the_original_values():
    from fractions import Fraction

    rng = np.random.default_rng(21)
    for _ in range(4):
        vals = 1e3 + 1e-3 * rng.normal(size=40)
        lam = np.abs(rng.normal(size=40))
        for p in (1.0, 2.0):

            def exact(beta0):
                dist = sorted(abs(Fraction(v) - Fraction(beta0)) for v in vals)
                return sum(Fraction(w) * r ** int(p) for w, r in zip(lam, dist))

            got = solve_omp(vals, lam, p)
            assert got.value == np.sort(np.abs(vals - got.beta0)) ** p @ lam
            assert got.value == pytest.approx(float(exact(got.beta0)), rel=1e-14)
            cands, objs = _blocked_reference(vals, lam, p)
            assert got.candidates_evaluated == cands.size
            # summed on the raw values near 1e3 instead of centred ones, the
            # sweep's p = 2 winner ends up to 6e-5 above the best candidate
            best = min(exact(c) for c in cands[objs <= objs.min() * (1 + 1e-8)])
            assert got.value == pytest.approx(float(best), rel=1e-12)


def test_omp_sweep_memory_at_n_1000():
    import tracemalloc

    rng = np.random.default_rng(3)
    vals = rng.normal(size=1000)
    lam = np.ones(1000)
    for p in (1.0, 2.0):
        tracemalloc.start()
        try:
            solve_omp(vals, lam, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 500,500 events: their int32 pair indices, the breakpoints and f
        # take about 14 MB, and the deltas are built a chunk at a time
        assert peak <= 32 * 2**20, (p, peak)


@pytest.mark.parametrize("fn", [solve_omp, candidate_set])
@pytest.mark.parametrize("values, lam, p, match", [
    ([0.0, 1.0, 2.0], [1.0, 1.0], 1.0, "shape"),
    ([0.0, 1.0], [1.0, 1.0, 1.0], 2.0, "shape"),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0, 1.0], 1.0, "nonnegative"),
    ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], 2.0, "finite"),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0], 1.0, "finite"),
    ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], 1.0, "positive"),
    ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 0.5, "p must be"),
    ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], np.nan, "p must be"),
    ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0], 1.0, "values must be finite"),
    ([0.0, np.inf, 2.0], [1.0, 1.0, 1.0], 2.0, "values must be finite"),
    ([], [], 1.0, "nonempty"),
])
def test_omp_rejects_bad_inputs(fn, values, lam, p, match):
    with pytest.raises(ValueError, match=match):
        fn(np.array(values), np.array(lam), p)
