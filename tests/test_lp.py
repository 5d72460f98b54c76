import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planefit.lp as lpmod
from planefit.lp import (
    FEAS_TOL,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LinearProgram,
    MixedIntegerProgram,
    SolveStatus,
    export_lp_file,
    parse_lp_file,
    solve_lp,
    solve_milp,
)


def test_single_bound_constraint():
    lp = LinearProgram(np.array([1.0]))
    lp.add_row([1.0], ">=", 3.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([3.0])
    assert out.objective == pytest.approx(3.0)


def test_simplex_two_vars():
    lp = LinearProgram(np.array([-1.0, -1.0]))
    lp.add_row([1.0, 1.0], "<=", 1.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)


def test_infeasible_detected():
    lp = LinearProgram(np.array([1.0]))
    lp.add_row([1.0], "<=", 1.0)
    lp.add_row([1.0], ">=", 2.0)
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_detected():
    lp = LinearProgram(np.array([-1.0]))
    lp.add_row([1.0], ">=", 1.0)
    assert solve_lp(lp).status == UNBOUNDED


def test_free_and_bounded_variables():
    lp = LinearProgram(np.array([0.0, 1.0, 1.0]),
                       bounds=[(None, None), (0.0, None), (0.0, None)])
    lp.add_row([1.0, 1.0, -1.0], "=", 5.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(0.0, abs=1e-9)
    assert out.x[0] == pytest.approx(5.0)

    lp = LinearProgram(np.array([-1.0]), bounds=[(2.0, 7.0)])
    out = solve_lp(lp)
    assert out.x == pytest.approx([7.0])


def test_infeasible_by_one_at_large_scale():
    # the infeasibility tolerance is relative to the rhs, 1e-7 * 1e6 here
    lp = LinearProgram(np.array([1.0]))
    lp.add_row([1.0], "<=", 1e6)
    lp.add_row([1.0], ">=", 1e6 + 1.0)
    assert solve_lp(lp).status == INFEASIBLE


def test_fixed_variables_are_constants():
    # x1 fixed at -2 and x3 fixed at 4: min x2 s.t. x1 + x2 + x3 >= 5
    lp = LinearProgram(np.array([1.0, 1.0, 1.0]),
                       bounds=[(-2.0, -2.0), (0.0, None), (4.0, 4.0)])
    lp.add_row([1.0, 1.0, 1.0], ">=", 5.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([-2.0, 3.0, 4.0])
    assert out.objective == pytest.approx(5.0)

    # every variable fixed: the rows are checked as constants
    lp = LinearProgram(np.array([1.0, -1.0]), bounds=[(1.0, 1.0), (2.0, 2.0)])
    lp.add_row([1.0, 1.0], "<=", 3.0)
    lp.add_row([1.0, -1.0], "=", -1.0)
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert out.x.tolist() == [1.0, 2.0]
    lp.add_row([1.0, 1.0], ">=", 3.5)
    assert solve_lp(lp).status == INFEASIBLE


def _std_row_reference(tr, coeffs):
    """Per-coefficient loop that std_rows must reproduce bit for bit."""
    row = np.zeros(tr.n_std)
    offset = 0.0
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        offset += c * tr.shift[j]
        if tr.column[j] < 0:
            continue
        row[tr.column[j]] += c * tr.scale[j]
        if tr.neg_column[j] >= 0:
            row[tr.neg_column[j]] -= c
    return row, offset


def test_standard_form_rows_match_reference_loop():
    from planefit.lp import _Transform

    # x0 >= 2 (shift 2), x1 <= 3 (mirrored: shift 3, scale -1), x2 free
    # (split into two columns), x3 fixed at 5 (no column)
    tr = _Transform(LinearProgram(np.zeros(4),
                                  bounds=[(2.0, None), (None, 3.0), (None, None), (5.0, 5.0)]))
    rows, offsets = tr.std_rows(np.array([[1.5, 2.0, -4.0, 0.5], [0.0, 0.0, 0.0, 0.0]]))
    assert rows.tolist() == [[1.5, -2.0, -4.0, 4.0], [0.0] * 4]
    assert offsets.tolist() == [1.5 * 2.0 + 2.0 * 3.0 + 0.5 * 5.0, 0.0]

    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        bounds = []
        for _ in range(n):
            lo = float(rng.normal())
            bounds.append([(lo, None), (None, lo), (None, None), (lo, lo), (lo, lo + 1.0),
                           (0.0, None)][int(rng.integers(0, 6))])
        tr = _Transform(LinearProgram(np.zeros(n), bounds=bounds))
        coeffs = rng.normal(size=(4, n)) * (rng.random((4, n)) < 0.6)
        coeffs[0, 0] = -0.0
        rows, offsets = tr.std_rows(coeffs)
        for got_row, got_offset, c in zip(rows, offsets, coeffs):
            want_row, want_offset = _std_row_reference(tr, c)
            assert got_row.tobytes() == want_row.tobytes()  # signed zeros too
            assert got_offset == want_offset


def test_iteration_limit_status():
    lp = LinearProgram(np.array([-1.0, -1.0]))
    for _ in range(4):
        lp.add_row([1.0, 2.0], "<=", 10.0)
        lp.add_row([2.0, 1.0], "<=", 10.0)
    assert solve_lp(lp, max_iters=1).status == ITERATION_LIMIT


def _enumerate_vertices(lp: LinearProgram):
    """Exhaustive basic-solution oracle for small LPs with bounds x >= 0.

    A variable with ``lo == hi`` enters as an equality row, and redundant
    rows are allowed: a basis has rank(A) columns and must solve A x = b.
    """
    rows = [(np.asarray(r), rel, rhs) for r, rel, rhs in lp.rows]
    n = lp.n_vars
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo == hi:
            rows.append((np.eye(n)[j], "=", lo))
    # standard form with slacks on inequality rows
    slacks = [i for i, (_, rel, _) in enumerate(rows) if rel != "="]
    total = n + len(slacks)
    A = np.zeros((len(rows), total))
    b = np.zeros(len(rows))
    s = 0
    for i, (r, rel, rhs) in enumerate(rows):
        A[i, :n] = r
        b[i] = rhs
        if rel == "<=":
            A[i, n + s] = 1.0
            s += 1
        elif rel == ">=":
            A[i, n + s] = -1.0
            s += 1
    rank = np.linalg.matrix_rank(A)
    best = None
    for cols in itertools.combinations(range(total), rank):
        B = A[:, cols]
        if np.linalg.matrix_rank(B) < rank:
            continue
        xb = np.linalg.lstsq(B, b, rcond=None)[0]
        if np.any(xb < -1e-9) or not np.allclose(B @ xb, b, atol=1e-9):
            continue
        x = np.zeros(total)
        x[list(cols)] = xb
        val = float(lp.objective @ x[:n])
        if best is None or val < best:
            best = val
    return best


def test_random_lps_match_vertex_enumeration(rng):
    hits = infeasible = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        lp = LinearProgram(rng.normal(size=n))
        for _ in range(m):
            row = rng.normal(size=n)
            # positive, zero and negative right-hand sides
            rhs = float(rng.choice([rng.normal() + 2.0, 0.0, rng.normal() - 1.0]))
            lp.add_row(row, rng.choice(["<=", ">=", "="]), rhs)
        if rng.random() < 0.3:
            # an equality and its double: one row is left for the drive-out
            row, rhs = rng.normal(size=n), float(rng.normal())
            lp.add_row(row, "=", rhs)
            lp.add_row(2.0 * row, "=", 2.0 * rhs)
        if rng.random() < 0.4:
            v = float(rng.uniform(0.0, 3.0))
            lp.bounds[int(rng.integers(n))] = (v, v)
        # keep the region bounded so both methods terminate with optima
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            lp.add_row(e, "<=", 50.0)
        out = solve_lp(lp)
        want = _enumerate_vertices(lp)
        if want is None:
            assert out.status == INFEASIBLE
            infeasible += 1
        else:
            assert out.status == OPTIMAL
            assert out.objective == pytest.approx(want, abs=1e-6)
            hits += 1
    # the generator produces plenty of feasible and infeasible instances
    assert hits >= 10 and infeasible >= 10


def test_solutions_satisfy_constraints(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        lp = LinearProgram(rng.normal(size=n))
        for _ in range(int(rng.integers(1, 5))):
            lp.add_row(rng.normal(size=n), "<=", abs(float(rng.normal())) + 1.0)
        out = solve_lp(lp)
        if out.status != OPTIMAL:
            continue
        for row, rel, rhs in lp.rows:
            lhs = float(np.asarray(row) @ out.x)
            if rel == "<=":
                assert lhs <= rhs + 1e-7
            elif rel == ">=":
                assert lhs >= rhs - 1e-7
            else:
                assert lhs == pytest.approx(rhs, abs=1e-7)
        assert np.all(out.x >= -1e-12)


def test_determinism(rng):
    lp = LinearProgram(rng.normal(size=4))
    for _ in range(5):
        lp.add_row(rng.normal(size=4), "<=", 3.0)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


# full-tableau reference -------------------------------------------------------
# The simplex with one column per structural variable and per slack, basic or
# not, that updates every column on each pivot.  solve_lp keeps only the
# nonbasic columns and updates only those the pivot row touches, and must
# reproduce every status, x, objective and pivot count of this reference bit
# for bit.


def _reference_leaving(T, basis, col):
    column = T[:-1, col]
    rhs = T[:-1, -1]
    eligible = column > PIVOT_TOL
    if not np.any(eligible):
        return None
    ratios = np.full(column.shape, np.inf)
    ratios[eligible] = rhs[eligible] / column[eligible]
    best = ratios.min()
    contenders = np.flatnonzero(ratios <= best + PIVOT_TOL)
    return int(contenders[np.argmin(basis[contenders])])


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _reference_simplex(T, basis, max_iters):
    """(status, pivots made); iteration_limit when a pivot is due after
    ``max_iters`` of them."""
    for k in range(max_iters + 1):
        neg = np.flatnonzero(T[-1, :-1] < -PIVOT_TOL)
        if not neg.size:
            return OPTIMAL, k
        if k == max_iters:
            return ITERATION_LIMIT, k
        col = int(neg[0])
        row = _reference_leaving(T, basis, col)
        if row is None:
            return UNBOUNDED, k
        _reference_pivot(T, basis, row, col)


def _reference_solve_lp(lp, max_iters=None):
    tr = lpmod._Transform(lp)
    coeffs = np.array([r for r, _, _ in lp.rows], dtype=float).reshape(len(lp.rows), lp.n_vars)
    std, offsets = tr.std_rows(coeffs)
    rows = [[r, rel, rhs - off] for r, (_, rel, rhs), off in zip(std, lp.rows, offsets)]
    for j, width in tr.extra_rows:
        r = np.zeros(tr.n_std)
        r[tr.column[j]] = 1.0
        rows.append([r, "<=", width])

    m = len(rows)
    n = tr.n_std
    if max_iters is None:
        max_iters = 50 * (m + n)
    c_std = tr.std_rows(lp.objective[None, :])[0][0]
    # phase 2 prices the costs divided by their largest magnitude
    top = np.abs(c_std).max(initial=0.0)
    cost = c_std / top if top else c_std

    if m == 0:
        if np.any(cost < -PIVOT_TOL):
            return SolveStatus(UNBOUNDED)
        x = tr.recover(np.zeros(n), lp)
        return SolveStatus(OPTIMAL, x, float(lp.objective @ x))

    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    art_start = n + n_slack
    T = np.zeros((m + 1, art_start + 1))
    basis = np.empty(m, dtype=int)
    s = 0
    for i, (r, rel, rhs) in enumerate(rows):
        if rhs < 0 or (rhs == 0 and rel == ">="):
            r, rhs = -r, -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        T[i, :n] = r
        T[i, -1] = rhs
        basis[i] = art_start + i
        if rel == "<=":
            T[i, n + s] = 1.0
            basis[i] = n + s
            s += 1
        elif rel == ">=":
            T[i, n + s] = -1.0
            s += 1
    feas_tol = FEAS_TOL * max(1.0, float(T[:-1, -1].max()))

    T[-1] = -T[:-1][basis >= art_start].sum(axis=0)
    status, pivots = _reference_simplex(T, basis, max_iters)
    if status == ITERATION_LIMIT:
        return SolveStatus(ITERATION_LIMIT, pivots=pivots)
    if T[-1, -1] < -feas_tol:
        return SolveStatus(INFEASIBLE, pivots=pivots)

    for i in np.flatnonzero(basis >= art_start):
        candidates = np.flatnonzero(np.abs(T[i, :-1]) > PIVOT_TOL)
        if candidates.size:
            _reference_pivot(T, basis, i, int(candidates[0]))
            pivots += 1
    keep = basis < art_start
    if np.any(np.abs(T[:-1, -1][~keep]) > feas_tol):
        return SolveStatus(INFEASIBLE, pivots=pivots)
    T = T[np.append(np.flatnonzero(keep), m)]
    basis = basis[keep]

    T[-1] = 0.0
    T[-1, :n] = cost
    for i, bv in enumerate(basis):
        coef = T[-1, bv]
        if coef != 0.0:
            T[-1] -= coef * T[i]

    status, phase2 = _reference_simplex(T, basis, max_iters)
    pivots += phase2
    if status != OPTIMAL:
        return SolveStatus(status, pivots=pivots)

    xstd = np.zeros(art_start)
    xstd[basis] = T[:-1, -1]
    x = tr.recover(xstd[:n], lp)
    return SolveStatus(OPTIMAL, x, float(lp.objective @ x), pivots=pivots)


def _assert_same_solve(got, want):
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
    assert repr(got.objective) == repr(want.objective)
    assert got.pivots == want.pivots


# small integers make ties and degenerate pivots common; the values next to
# PIVOT_TOL sit at the pricing threshold beside a cost of order 1, and set the
# scale when every cost is that small
_COEFF = st.integers(-3, 3).map(float) | st.floats(-5.0, 5.0)
_COST = _COEFF | st.sampled_from([1e-13, -1e-13, 1e-9, -1e-9, 2e-9, -2e-9])


@st.composite
def _lps(draw):
    """LPs with every relation, any rhs sign, and every kind of bound."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-2, 2).map(float) | st.floats(-3.0, 3.0))
        hi = lo + draw(st.sampled_from([0.5, 1.0, 4.0]))
        bounds.append(draw(st.sampled_from([(0.0, None), (lo, None), (None, None), (lo, lo),
                                            (lo, hi), (None, lo)])))
    lp = LinearProgram(np.array(draw(st.lists(_COST, min_size=n, max_size=n))), bounds=bounds)
    for _ in range(draw(st.integers(0, 6))):
        lp.add_row(draw(st.lists(_COEFF, min_size=n, max_size=n)),
                   draw(st.sampled_from(["<=", "=", ">="])), draw(_COEFF))
    if lp.rows and draw(st.booleans()):
        # an equality and its double: the double's artificial stays basic on
        # an all-zero row, which is dropped
        row, _, rhs = lp.rows[draw(st.integers(0, len(lp.rows) - 1))]
        lp.add_row(row, "=", rhs)
        lp.add_row(2.0 * row, "=", 2.0 * rhs)
    return lp


def _lp(cost, rows, bounds=None):
    lp = LinearProgram(np.array(cost, dtype=float), bounds=bounds)
    for coeffs, rel, rhs in rows:
        lp.add_row(coeffs, rel, rhs)
    return lp


def _small_cost_lps(scale):
    """Two LPs whose costs are of order 1e-9 times ``scale``.  Priced at an
    absolute 1e-9, the first stopped at -1.2e-8 at (1, 0, 5) and the second
    at 0, where (3.5, 5, 5) reaches -1.6995e-8 and (0, 0, 4) -1.2e-9."""
    return [_lp(np.array([-2e-9, 1e-12, -2e-9]) * scale,
                [([-2.0, 1.0, 0.0], "=", -2.0), ([0.0, 3.0, 1.0], ">=", 3.0)], [(0.0, 5.0)] * 3),
            _lp(np.array([-2e-10, 0.0, -3e-10]) * scale, [([1.0, 1.0, 1.0], "<=", 4.0)],
                [(0.0, 5.0)] * 3)]


# eleven equality rows on a fixed variable, whose artificials sum to 1e-7 in
# turn and to 1.0000000000000001e-07 pairwise, next to a slack row: a full
# tableau sums row after row and finds the sum above FEAS_TOL
_RHS_SUMMING_TO_FEAS_TOL = [
    9.491103907940031e-09, 4.885055705901077e-09, 1.0990207278267941e-08, 3.262995234568911e-09,
    1.5407882862929456e-08, 5.971230674580433e-09, 1.7253330752782055e-09, 1.0288812032163158e-08,
    1.5163241642843994e-08, 7.202192114408712e-09, 1.5611945471118074e-08]


@given(_lps(), st.none() | st.integers(1, 4))
@example(_lp([1.0], [([1.0], "<=", 1.0), ([1.0], ">=", 2.0)]), None)  # infeasible
@example(_lp([-1.0, 0.0], [([1.0, -1.0], ">=", 1.0)]), None)  # unbounded
@example(_lp([-1.0, -1.0], [([1.0, 2.0], "<=", 10.0), ([2.0, 1.0], "<=", 10.0)] * 2), 1)
@example(_lp([-1.0, -1.0], [([1.0, 2.0], "<=", 10.0), ([2.0, 1.0], "<=", 10.0)] * 2), 2)
@example(_lp([0.0], [], [(0.0, 0.0)]), None)  # neither rows nor columns: no pivot budget
@example(_lp([1.0, 1.0], [([1.0, 1.0], "=", 2.0), ([2.0, 2.0], "=", 4.0)]), None)  # redundant row
@example(_lp([-2.0, 2.0, 2.0], [([2.0, 0.0, 1.0], ">=", 2.0), ([1.0, 2.0, -1.0], "<=", 2.0),
                                ([1.0, -1.0, 1.0], "<=", 0.0), ([2.0, 0.0, 1.0], "=", 2.0),
                                ([4.0, 0.0, 2.0], "=", 4.0)]), None)  # a drive-out with a choice
@example(_small_cost_lps(1.0)[0], None)  # costs of order 1e-9, priced at their own scale
@example(_lp([1.0], [([1.0], "=", r) for r in _RHS_SUMMING_TO_FEAS_TOL] + [([1.0], "<=", 1.0)],
             [(0.0, 0.0)]), None)
@settings(max_examples=400, deadline=None)
def test_solve_lp_matches_full_tableau_reference(lp, max_iters):
    _assert_same_solve(solve_lp(lp, max_iters), _reference_solve_lp(lp, max_iters))


def test_pricing_does_not_depend_on_the_cost_scale():
    # each LP pivots as its twin with costs x 1e9 does, to the same vertex
    for small, twin in zip(_small_cost_lps(1.0), _small_cost_lps(1e9)):
        got, want = solve_lp(small), solve_lp(twin)
        assert got.status == want.status == OPTIMAL
        assert got.x.tobytes() == want.x.tobytes()
        assert got.pivots == want.pivots
    first, second = (solve_lp(lp) for lp in _small_cost_lps(1.0))
    assert first.x.tolist() == [3.5, 5.0, 5.0]
    assert first.objective == pytest.approx(-1.6995e-8, rel=1e-12)
    assert second.x.tolist() == [0.0, 0.0, 4.0]
    assert second.objective == pytest.approx(-1.2e-9, rel=1e-12)


def test_lp_without_rows_prices_at_its_cost_scale():
    # no rows and x >= 0: any negative cost, however small, is unbounded
    assert solve_lp(LinearProgram(np.array([-1e-12]))).status == UNBOUNDED
    out = solve_lp(LinearProgram(np.array([1e-12, 0.0])))
    assert out.status == OPTIMAL
    assert out.x.tolist() == [0.0, 0.0]


def _wide_disjunct_lp():
    """The n = 100, d = 3 kC x linf disjunct LP, lp-scale's widest (205 rows)."""
    from planefit import synthetic_generate
    from planefit.cli import build_criterion
    from planefit.solvers import _build_monotone_lp, _disjunct_problem, linf_ball

    data = synthetic_generate(100, 3, "Y", 1)
    prob = _disjunct_problem(data, linf_ball(3), 0)
    return _build_monotone_lp(prob, build_criterion("kC", data.n, None).lam)


def _stars_chord_lp():
    """A stars-grid MAX x ltau:2 LP: the chord from vertex 0 to vertex 8 of
    the 32-gon, the first coarse sector the l-tau search solves."""
    from planefit.cli import build_criterion
    from planefit.data import cyg_ob1
    from planefit.geometry import inscribed_polytope, polar_polytope
    from planefit.solvers import _build_monotone_lp, _chord_problem

    stars = cyg_ob1()
    corners = polar_polytope(inscribed_polytope(2, 32)[0]).vertices
    prob = _chord_problem(stars, corners[0], corners[8])
    return _build_monotone_lp(prob, build_criterion("MAX", stars.n, None).lam)


class _Captured(Exception):
    pass


def _assignment_root_lp():
    """The root relaxation of a milp-d3 assignment MILP (MED x vertical,
    n = 5, d = 3), as ``_solve_subproblem`` scales it and ``_solve_p1_milp``
    builds it."""
    from planefit import synthetic_generate
    from planefit.cli import build_criterion
    from planefit.rng import SplitMix64
    from planefit.solvers import _solve_subproblem, _vertical_problem

    def capture(mip, node_limit):
        raise _Captured(mip)

    data = synthetic_generate(5, 3, "Y", 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lpmod, "solve_milp", capture)
        with pytest.raises(_Captured) as caught:
            _solve_subproblem(_vertical_problem(data), build_criterion("MED", 5, None),
                              rng=SplitMix64(0), multistart=0, node_limit=100)
    return caught.value.args[0].lp


@pytest.mark.parametrize("build", [_wide_disjunct_lp, _stars_chord_lp, _assignment_root_lp])
def test_real_lps_match_full_tableau_reference(build):
    """LPs the benchmark solves, whose pivot rows are mostly zero (the
    generated LPs above have at most five variables, so theirs rarely are)."""
    lp = build()
    got = solve_lp(lp)
    assert got.status == OPTIMAL
    assert got.pivots > 0
    _assert_same_solve(got, _reference_solve_lp(lp))


def test_tableau_memory_on_a_wide_disjunct_lp():
    """Peak memory of the n = 100, d = 3 kC x linf disjunct LP (205 rows).

    The LP has a pair of rows per residual, one centrum term with one t
    column and n columns s_i.  The tableau keeps nonbasic columns only,
    206 x 209 in phase 1 and 206 x 108 in phase 2, and a pivot's outer
    product is rows x the pivot row's nonzeros (39 of 114 columns on
    average over its 839 pivots): the solve peaks at 1.21 MB.  With a
    shared eps_i >= |r_i| column per point and n more rows
    s_i >= eps_i - t, it had 305 rows and peaked at 2.81 MB.
    """
    lp = _wide_disjunct_lp()
    tracemalloc.start()
    try:
        out = solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.status == OPTIMAL
    assert peak < 1.5e6


# branch and bound -----------------------------------------------------------


def test_milp_without_binaries_is_lp():
    lp = LinearProgram(np.array([-1.0, -2.0]))
    lp.add_row([1.0, 1.0], "<=", 4.0)
    mip = MixedIntegerProgram(lp, frozenset())
    a = solve_milp(mip)
    b = solve_lp(lp)
    assert a.status == b.status == OPTIMAL
    assert a.objective == pytest.approx(b.objective)


def _assignment_mip():
    """Three items to three sorted slots; the costs force a unique assignment."""
    vals = np.array([3.0, 1.0, 2.0])
    lam = np.array([0.0, 1.0, 2.0])
    n = 3
    nv = n + n * n  # theta_j, then w_ij row-major
    cost = np.zeros(nv)
    cost[:n] = lam
    big = 10.0
    lp = LinearProgram(cost, bounds=[(0.0, None)] * n + [(0.0, 1.0)] * (n * n))
    for i in range(n):
        for j in range(n):
            row = np.zeros(nv)
            row[j] = -1.0
            row[n + i * n + j] = big
            lp.add_row(row, "<=", big - vals[i])  # vals_i <= theta_j + big(1 - w_ij)
    for j in range(n):
        row = np.zeros(nv)
        row[n + j::n] = 0.0
        for i in range(n):
            row[n + i * n + j] = 1.0
        lp.add_row(row, "=", 1.0)
    for i in range(n):
        row = np.zeros(nv)
        row[n + i * n: n + (i + 1) * n] = 1.0
        lp.add_row(row, "=", 1.0)
    for j in range(1, n):
        row = np.zeros(nv)
        row[j - 1] = 1.0
        row[j] = -1.0
        lp.add_row(row, "<=", 0.0)
    best = min(
        sum(lam[j] * sorted_vals[j] for j in range(n))
        for perm in itertools.permutations(vals)
        if (sorted_vals := list(perm)) == sorted(perm)
    )
    return MixedIntegerProgram(lp, frozenset(range(n, nv))), best


def _knapsack_mip(values, weights, share):
    lp = LinearProgram(-values, bounds=[(0.0, 1.0)] * values.size)
    lp.add_row(weights, "<=", float(weights.sum() * share))
    return MixedIntegerProgram(lp, frozenset(range(values.size)))


def _two_binaries_mip():
    """Relaxation (1, 0.5); fixing x2 = 1 forces x1 <= 0.5, and fixing both
    to 1 leaves the constant row 2 <= 1.5, which is infeasible."""
    lp = LinearProgram(np.array([-1.0, -1.0]), bounds=[(0.0, 1.0)] * 2)
    lp.add_row([1.0, 1.0], "<=", 1.5)
    return MixedIntegerProgram(lp, frozenset([0, 1]))


def _node_limit_mip():
    rng = np.random.default_rng(5)
    return _knapsack_mip(rng.uniform(1.0, 5.0, size=10), rng.uniform(1.0, 4.0, size=10), 0.5)


def test_assignment_milp_matches_permutation_enumeration():
    mip, best = _assignment_mip()
    out = solve_milp(mip)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(best, abs=1e-6)


def test_knapsack_against_exhaustive(rng):
    for _ in range(6):
        values = rng.uniform(1.0, 5.0, size=5)
        weights = rng.uniform(1.0, 4.0, size=5)
        out = solve_milp(_knapsack_mip(values, weights, 0.55))
        assert out.status == OPTIMAL
        cap = float(weights.sum() * 0.55)
        best = min(
            -float(values @ np.array(bits))
            for bits in itertools.product([0, 1], repeat=5)
            if float(weights @ np.array(bits)) <= cap + 1e-12
        )
        assert out.objective == pytest.approx(best, abs=1e-9)


def test_milp_prunes_infeasible_fixing():
    mip = _two_binaries_mip()
    fixed_both = LinearProgram(mip.lp.objective, list(mip.lp.rows), [(1.0, 1.0)] * 2)
    assert solve_lp(fixed_both).status == INFEASIBLE
    out = solve_milp(mip)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)
    assert out.nodes == 5


def test_milp_node_limit_returns_no_point():
    # the limit is checked before each node LP, the root included, so a
    # search stopped at it has solved exactly that many
    for node_limit in range(2, 9):
        out = solve_milp(_node_limit_mip(), node_limit=node_limit)
        assert (out.status, out.nodes) == (ITERATION_LIMIT, node_limit)
        assert out.x is None and out.objective is None


def test_milp_matches_full_tableau_reference(rng, monkeypatch):
    """The oracle cases above keep their node count and bitwise x."""
    cases = [(_assignment_mip()[0], 100_000), (_two_binaries_mip(), 100_000),
             (_node_limit_mip(), 3), (_node_limit_mip(), 100_000)]
    for size, low, high, share in ((5, 1.0, 5.0, 0.55), (6, 0.5, 3.0, 0.6)):
        cases += [(_knapsack_mip(rng.uniform(low, high, size=size),
                                 rng.uniform(low, high - 1.0, size=size), share), 100_000)
                  for _ in range(6)]
    for mip, node_limit in cases:
        got = solve_milp(mip, node_limit)
        with monkeypatch.context() as patch:
            patch.setattr(lpmod, "solve_lp", _reference_solve_lp)
            want = solve_milp(mip, node_limit)
        _assert_same_solve(got, want)
        assert got.nodes == want.nodes


# LP-file format --------------------------------------------------------------


def test_export_tiny_lp(tmp_path):
    lp = LinearProgram(np.array([1.0]))
    lp.add_row([1.0], ">=", 3.0)
    path = tmp_path / "tiny.lp"
    export_lp_file(lp, path)
    text = path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "End"):
        assert section in text


def test_export_contains_binary_section(tmp_path):
    lp = LinearProgram(np.array([-1.0, -1.0]), bounds=[(0.0, 1.0)] * 2,
                       names=["w1", "w2"])
    lp.add_row([1.0, 1.0], "<=", 1.0)
    mip = MixedIntegerProgram(lp, frozenset([0, 1]))
    path = tmp_path / "bin.lp"
    export_lp_file(mip, path)
    text = path.read_text()
    assert "Binary" in text
    assert " w1" in text


def test_round_trip_structural_equality(tmp_path, rng):
    for k in range(5):
        n = int(rng.integers(2, 5))
        bounds = []
        for _ in range(n):
            kind = rng.integers(0, 4)
            bounds.append([(0.0, None), (None, None), (-2.0, 5.0), (None, 3.0)][kind])
        lp = LinearProgram(np.round(rng.normal(size=n), 6), bounds=bounds)
        for _ in range(int(rng.integers(1, 4))):
            lp.add_row(np.round(rng.normal(size=n), 6),
                       ["<=", ">=", "="][int(rng.integers(0, 3))],
                       round(float(rng.normal()), 6))
        path = tmp_path / f"rt{k}.lp"
        export_lp_file(lp, path)
        back = parse_lp_file(path)
        assert back.n_vars == lp.n_vars
        assert np.allclose(back.objective, lp.objective)
        assert len(back.rows) == len(lp.rows)
        for (ra, rela, rhsa), (rb, relb, rhsb) in zip(lp.rows, back.rows):
            assert rela == relb
            assert rhsa == pytest.approx(rhsb, abs=0.0)
            assert np.allclose(ra, rb)
        assert back.bounds == [tuple(b) for b in lp.bounds]


def test_golden_lp_file(tmp_path):
    """The text format is a stable interface: exact bytes are pinned."""
    lp = LinearProgram(np.array([1.5, -1.0]), bounds=[(0.0, None), (None, None)])
    lp.add_row([1.0, 2.0], "<=", 4.0)
    lp.add_row([1.0, -1.0], "=", 0.5)
    path = tmp_path / "golden.lp"
    export_lp_file(lp, path)
    assert path.read_text() == (
        "Minimize\n"
        " obj: 1.5 x1 - x2\n"
        "Subject To\n"
        " c1: x1 + 2.0 x2 <= 4.0\n"
        " c2: x1 - x2 = 0.5\n"
        "Bounds\n"
        " x1 >= 0.0\n"
        " x2 free\n"
        "End\n"
    )
