import itertools

import numpy as np
import pytest

from planefit.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MixedIntegerProgram,
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


# branch and bound -----------------------------------------------------------


def test_milp_without_binaries_is_lp():
    lp = LinearProgram(np.array([-1.0, -2.0]))
    lp.add_row([1.0, 1.0], "<=", 4.0)
    mip = MixedIntegerProgram(lp, frozenset())
    a = solve_milp(mip)
    b = solve_lp(lp)
    assert a.status == b.status == OPTIMAL
    assert a.objective == pytest.approx(b.objective)


def test_assignment_milp_matches_permutation_enumeration():
    # three items to three sorted slots; costs force a unique assignment
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
    mip = MixedIntegerProgram(lp, frozenset(range(n, nv)))
    out = solve_milp(mip)
    assert out.status == OPTIMAL

    import itertools as it

    best = min(
        sum(lam[j] * sorted_vals[j] for j in range(n))
        for perm in it.permutations(vals)
        if (sorted_vals := list(perm)) == sorted(perm)
    )
    assert out.objective == pytest.approx(best, abs=1e-6)


def test_knapsack_against_exhaustive(rng):
    for _ in range(6):
        values = rng.uniform(1.0, 5.0, size=5)
        weights = rng.uniform(1.0, 4.0, size=5)
        cap = float(weights.sum() * 0.55)
        lp = LinearProgram(-values, bounds=[(0.0, 1.0)] * 5)
        lp.add_row(weights, "<=", cap)
        out = solve_milp(MixedIntegerProgram(lp, frozenset(range(5))))
        assert out.status == OPTIMAL
        best = min(
            -float(values @ np.array(bits))
            for bits in itertools.product([0, 1], repeat=5)
            if float(weights @ np.array(bits)) <= cap + 1e-12
        )
        assert out.objective == pytest.approx(best, abs=1e-9)


def test_milp_prunes_infeasible_fixing():
    # relaxation (1, 0.5); fixing x2 = 1 forces x1 <= 0.5, and fixing both
    # to 1 leaves the constant row 2 <= 1.5, which is infeasible
    lp = LinearProgram(np.array([-1.0, -1.0]), bounds=[(0.0, 1.0)] * 2)
    lp.add_row([1.0, 1.0], "<=", 1.5)
    fixed_both = LinearProgram(lp.objective, list(lp.rows), [(1.0, 1.0)] * 2)
    assert solve_lp(fixed_both).status == INFEASIBLE
    out = solve_milp(MixedIntegerProgram(lp, frozenset([0, 1])))
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-1.0)
    assert out.nodes == 5


def test_milp_node_limit_returns_incumbent():
    rng = np.random.default_rng(5)
    values = rng.uniform(1.0, 5.0, size=10)
    weights = rng.uniform(1.0, 4.0, size=10)
    lp = LinearProgram(-values, bounds=[(0.0, 1.0)] * 10)
    lp.add_row(weights, "<=", float(weights.sum() * 0.5))
    out = solve_milp(MixedIntegerProgram(lp, frozenset(range(10))), node_limit=3)
    assert out.status == ITERATION_LIMIT
    assert out.nodes <= 5


def test_milp_incumbent_soundness(rng):
    for _ in range(5):
        values = rng.uniform(0.5, 3.0, size=6)
        weights = rng.uniform(0.5, 3.0, size=6)
        lp = LinearProgram(-values, bounds=[(0.0, 1.0)] * 6)
        lp.add_row(weights, "<=", float(weights.sum() * 0.6))
        out = solve_milp(MixedIntegerProgram(lp, frozenset(range(6))))
        assert out.status == OPTIMAL
        assert out.best_bound <= out.objective + 1e-6 * max(1.0, abs(out.objective))


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
