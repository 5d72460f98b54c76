"""Dense linear programming and a small branch-and-bound layer.

The solver is a two-phase primal simplex on a dense numpy tableau with
Bland's anti-cycling rule permanently on: the entering variable is the
lowest index with reduced cost below -1e-9, and ratio-test ties leave the
row whose basic variable has the smallest index.  General bounds are handled
by substituting fixed variables (lo == hi) as constants, shifting finite
lower bounds to zero, reflecting upper-bounded-only variables and splitting
free variables; the other finite upper bounds become rows.

Phase 2 prices by one rule at the cost vector's own scale: it divides the
standard-form costs by their largest magnitude once (when that is
nonzero), so the -1e-9 is relative to it, and prices out every basic
variable whose cost is nonzero.  So ``optimal`` means the same at any scale
of the objective, and an LP without rows needs no case of its own.

Phase 1 starts from the slack basis: after rows are flipped to a
nonnegative rhs, each "<=" row (and each ">=" row with zero rhs, negated)
starts with its slack basic, and only "=" rows and ">=" rows with positive
rhs get an artificial.  The tableau keeps a column for nonbasic variables
only, (rows + 1) x (nonbasic columns + 1): a leaving variable takes the
entering one's column, and a leaving artificial's column is dropped.  A
pivot's rank-1 update touches only the columns where the pivot row is
nonzero (the rhs included); any other column would only lose ``f * 0.0``.
Every pivot is the one a full tableau, with a column per slack and an
update of every column, would make, bit for bit; at most the sign of a zero
entry differs, which no comparison sees.

Problem sizes here stay in the hundreds of rows, where a dense tableau is
simple and fast enough.  Binaries are solved by best-first branch and bound
on LP relaxations, branching on the most fractional variable (ties to the
lowest index, down-branch explored first).  Nodes are popped in order of
their LP bound, so the first integral one popped is optimal and the search
returns it; a search solves at most its node limit of node LPs, the root
included, and one stopped there returns no point.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "MixedIntegerProgram",
    "SolveStatus",
    "solve_lp",
    "solve_milp",
    "export_lp_file",
    "parse_lp_file",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
INT_TOL = 1e-9  # a binary this close to 0 or 1 counts as integral

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class LinearProgram:
    """min c.x subject to rows (coeffs, relation, rhs) and variable bounds.

    Bounds default to x >= 0; entries are (lo, hi) with None for unbounded.
    """

    objective: np.ndarray
    rows: list = field(default_factory=list)
    bounds: list = None
    names: list = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.bounds is None:
            self.bounds = [(0.0, None)] * self.n_vars
        if len(self.bounds) != self.n_vars:
            raise ValueError("one bound pair per variable required")
        for lo, hi in self.bounds:
            if lo is not None and hi is not None and lo > hi:
                raise ValueError("lower bound exceeds upper bound")
        for coeffs, rel, _ in self.rows:
            if len(coeffs) != self.n_vars:
                raise ValueError("constraint row length mismatch")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def add_row(self, coeffs, rel: str, rhs: float) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != self.n_vars:
            raise ValueError("constraint row length mismatch")
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        self.rows.append((coeffs, rel, float(rhs)))

    def var_name(self, j: int) -> str:
        if self.names is not None and self.names[j]:
            return self.names[j]
        return f"x{j + 1}"


@dataclass
class MixedIntegerProgram:
    lp: LinearProgram
    integral: frozenset

    def __post_init__(self):
        self.integral = frozenset(self.integral)
        for j in self.integral:
            if not 0 <= j < self.lp.n_vars:
                raise ValueError("integral index out of range")
            lo, hi = self.lp.bounds[j]
            if lo is None or hi is None or lo < 0 or hi > 1:
                raise ValueError("integral variables must be bounded within [0, 1]")


@dataclass
class SolveStatus:
    status: str
    x: np.ndarray = None
    objective: float = None
    nodes: int = 0
    pivots: int = 0  # simplex pivots; solve_milp sums those of its node LPs

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


# ---------------------------------------------------------------------------
# simplex core


class _Transform:
    """Maps user variables onto nonnegative standard-form variables.

    A fixed variable (``lo == hi``) becomes a constant: it gets no column and
    its value moves into each row's right-hand side.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        self.shift = np.zeros(n)
        self.scale = np.ones(n)
        self.column = np.full(n, -1)  # -1 marks a fixed variable
        self.neg_column = np.full(n, -1)
        self.extra_rows = []  # (user var, width) for finite bounds lo < hi
        cols = 0
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                self.shift[j] = lo
                if lo == hi:
                    continue
                self.column[j] = cols
                cols += 1
                if hi is not None:
                    self.extra_rows.append((j, hi - lo))
            elif hi is not None:
                self.shift[j] = hi
                self.scale[j] = -1.0
                self.column[j] = cols
                cols += 1
            else:
                self.column[j] = cols
                self.neg_column[j] = cols + 1
                cols += 2
        self.n_std = cols

    def std_rows(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(standard-form rows, constants coeffs . shift) of user-variable rows.

        Each standard-form column takes one variable's term, so no entry
        accumulates.  The constants add the shifted variables' terms in
        variable order, and ``+ 0.0`` clears the sign of negated zeros, so
        every row is bit for bit the one a per-coefficient loop builds.
        """
        rows = np.zeros((coeffs.shape[0], self.n_std))
        live = self.column >= 0
        rows[:, self.column[live]] = coeffs[:, live] * self.scale[live]
        split = self.neg_column >= 0
        rows[:, self.neg_column[split]] = -coeffs[:, split]
        rows += 0.0
        offsets = np.zeros(coeffs.shape[0])
        for j in np.flatnonzero(self.shift):
            offsets += coeffs[:, j] * self.shift[j]
        return rows, offsets

    def recover(self, xstd: np.ndarray, lp: LinearProgram) -> np.ndarray:
        x = self.shift.copy()
        for j in range(lp.n_vars):
            if self.column[j] < 0:
                continue
            x[j] += xstd[self.column[j]] * self.scale[j]
            if self.neg_column[j] >= 0:
                x[j] -= xstd[self.neg_column[j]]
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None and x[j] < lo:
                x[j] = lo
            if hi is not None and x[j] > hi:
                x[j] = hi
        return x


class _Tableau:
    """Constraint rows and the objective row over the nonbasic variables only.

    ``T`` holds one column per nonbasic variable, then the right-hand side;
    ``var[j]`` is the variable in column j and ``basis[i]`` the variable
    basic in row i.  A basic variable's column in a full tableau is a unit
    vector, so it is left out: a pivot writes the leaving variable's unit
    column into the entering variable's slot and then pivots as a full
    tableau does, except that the rank-1 update skips the columns where the
    divided pivot row is zero.  That makes every kept column bit for bit the
    full tableau's, but for the sign of a zero, which no comparison sees: a
    zero in the phase-1 objective row, or a zero in a skipped column, which
    a full update could have turned from -0.0 to 0.0.  An artificial
    (index >= ``art_start``) has no column, so when one leaves the last
    column moves into the freed slot.  ``pivots`` counts the pivots made.
    """

    def __init__(self, T: np.ndarray, var: np.ndarray, basis: np.ndarray, art_start: int):
        self.T = T
        self.var = var
        self.basis = basis
        self.art_start = art_start
        self.pivots = 0

    def pivot(self, row: int, col: int) -> None:
        self.pivots += 1
        T = self.T
        piv = T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        leaving = self.basis[row]
        self.basis[row] = self.var[col]
        if leaving >= self.art_start:
            T[:, col] = T[:, -2]
            T[:, -2] = T[:, -1]
            self.var[col] = self.var[-1]
            T = self.T = T[:, :-1]
            self.var = self.var[:-1]
        else:
            T[:, col] = 0.0
            T[row, col] = 1.0
            self.var[col] = leaving
        T[row] /= piv
        nz = T[row].nonzero()[0]
        T[:, nz] -= factors[:, None] * T[row, nz]


def _bland_entering(tab: _Tableau) -> int | None:
    """Column of the lowest-index variable with reduced cost below -PIVOT_TOL."""
    neg = (tab.T[-1, :-1] < -PIVOT_TOL).nonzero()[0]
    return int(neg[tab.var[neg].argmin()]) if neg.size else None


def _bland_leaving(T: np.ndarray, basis: np.ndarray, col: int) -> int | None:
    column = T[:-1, col]
    rhs = T[:-1, -1]
    eligible = column > PIVOT_TOL
    if not eligible.any():
        return None
    ratios = np.divide(rhs, column, out=np.full(column.shape, np.inf), where=eligible)
    best = ratios.min()
    contenders = (ratios <= best + PIVOT_TOL).nonzero()[0]
    return int(contenders[basis[contenders].argmin()])


def _run_simplex(tab: _Tableau, max_iters: int) -> str:
    """Bland pivots until optimal or unbounded; iteration_limit only when a
    pivot is still due after ``max_iters`` of them (an LP with neither rows
    nor columns gets a budget of 0 and is optimal as it starts)."""
    for _ in range(max_iters):
        col = _bland_entering(tab)
        if col is None:
            return OPTIMAL
        row = _bland_leaving(tab.T, tab.basis, col)
        if row is None:
            return UNBOUNDED
        tab.pivot(row, col)
    return OPTIMAL if _bland_entering(tab) is None else ITERATION_LIMIT


def solve_lp(lp: LinearProgram, max_iters: int | None = None) -> SolveStatus:
    """Two-phase primal simplex from the slack basis.

    Phase 1 reports infeasible when the artificials cannot reach zero within
    ``FEAS_TOL`` times the largest right-hand side (at least 1).
    """
    tr = _Transform(lp)
    coeffs, rels, rhs = zip(*lp.rows) if lp.rows else ((), (), ())
    std, offsets = tr.std_rows(np.array(coeffs, dtype=float).reshape(len(lp.rows), lp.n_vars))
    # each finite width hi - lo of a shifted variable is one more "<=" row
    j, width = np.array(tr.extra_rows, dtype=float).reshape(-1, 2).T
    unit = np.zeros((len(j), tr.n_std))
    unit[np.arange(len(j)), tr.column[j.astype(int)]] = 1.0
    A = np.vstack([std, unit])
    b = np.concatenate([np.array(rhs, dtype=float) - offsets, width])
    rel = np.array(rels + ("<=",) * len(j), dtype="U2")

    m = len(A)
    n = tr.n_std
    if max_iters is None:
        max_iters = 50 * (m + n)
    c_std = tr.std_rows(lp.objective[None, :])[0][0]

    # Rows get rhs >= 0.  A "<=" row, or a ">=" row with zero rhs negated,
    # starts with its slack basic; the others start with an artificial.
    # Variables are numbered structural, then one slack per inequality row,
    # then an artificial per row from art_start; only the nonbasic ones,
    # the structural columns and the slacks of ">=" rows, get a column.
    le, ge = rel == "<=", rel == ">="
    flip = (b < 0) | ((b == 0) & ge)
    A[flip], b[flip] = -A[flip], -b[flip]
    le, ge = np.where(flip, ge, le), np.where(flip, le, ge)
    inequality = le | ge
    slack = n + np.cumsum(inequality) - 1  # the slack of each inequality row
    n_slack = int(inequality.sum())
    art_start = n + n_slack
    n_ge = int(ge.sum())
    T = np.zeros((m + 1, n + n_ge + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[np.flatnonzero(ge), n + np.arange(n_ge)] = -1.0
    var = np.arange(n + n_ge)
    var[n:] = slack[ge]
    basis = np.where(le, slack, art_start + np.arange(m))
    # phase-1 tests are relative to the rhs: round-off grows with the data
    feas_tol = FEAS_TOL * max(1.0, float(T[:-1, -1].max(initial=0.0)))

    # phase 1: minimize the sum of the artificials, reduced against the basis
    art_rows = T[:-1][basis >= art_start]
    if art_rows.shape[1] == 1 and n_slack:
        # numpy sums a one-column array pairwise but a wider one row after
        # row, as the full tableau with its slack columns was summed
        art_rows = np.repeat(art_rows, 2, axis=1)
    T[-1] = -art_rows.sum(axis=0)[:T.shape[1]]
    tab = _Tableau(T, var, basis, art_start)
    status = _run_simplex(tab, max_iters)
    if status == ITERATION_LIMIT:
        return SolveStatus(ITERATION_LIMIT, pivots=tab.pivots)
    if tab.T[-1, -1] < -feas_tol:
        return SolveStatus(INFEASIBLE, pivots=tab.pivots)

    # drive surviving artificials out of the basis where possible
    for i in np.flatnonzero(basis >= art_start):
        candidates = np.flatnonzero(np.abs(tab.T[i, :-1]) > PIVOT_TOL)
        if candidates.size:
            tab.pivot(i, int(candidates[np.argmin(tab.var[candidates])]))
    keep = basis < art_start  # rows still on an artificial are all zero: redundant
    if np.any(np.abs(tab.T[:-1, -1][~keep]) > feas_tol):
        return SolveStatus(INFEASIBLE, pivots=tab.pivots)
    T = tab.T = tab.T[np.append(np.flatnonzero(keep), m)]
    tab.basis = basis[keep]

    # phase 2 with the true objective, priced at its own scale
    cost = np.zeros(art_start)
    top = np.abs(c_std).max(initial=0.0)
    cost[:n] = c_std / top if top else c_std
    T[-1] = 0.0
    T[-1, :-1] = cost[tab.var]
    for i, bv in enumerate(tab.basis):
        coef = cost[bv]
        if coef != 0.0:
            T[-1] -= coef * T[i]

    status = _run_simplex(tab, max_iters)
    if status != OPTIMAL:
        return SolveStatus(status, pivots=tab.pivots)

    xstd = np.zeros(art_start)
    xstd[tab.basis] = tab.T[:-1, -1]
    x = tr.recover(xstd[:n], lp)
    return SolveStatus(OPTIMAL, x, float(lp.objective @ x), pivots=tab.pivots)


# ---------------------------------------------------------------------------
# branch and bound


def _most_fractional(x: np.ndarray, integral) -> int | None:
    pick, best = None, INT_TOL
    for j in sorted(integral):
        frac = x[j] - np.floor(x[j])
        dist = min(frac, 1.0 - frac)
        if dist > best + 1e-12:
            best, pick = dist, j
    return pick


def solve_milp(mip: MixedIntegerProgram, node_limit: int = 100_000) -> SolveStatus:
    """Best-first branch and bound over the binary variables of ``mip``.

    The open nodes are popped in order of their LP bound, so the first
    integral one popped is at most every open bound and is optimal.  An
    infeasible node is dropped; an unbounded one, or one whose LP hits its
    iteration limit, ends the search with that status.  The node limit is
    checked before each node LP, so a search solves at most ``node_limit``
    of them, the root included, and returns iteration_limit with no point
    when the budget runs out first.
    """
    base = mip.lp
    heap = []  # (LP bound, solve order, fixed binaries, LP solution)
    nodes = pivots = 0
    pending = [{}]
    while True:
        for fixed in pending:  # down branch first
            if nodes >= node_limit:
                return SolveStatus(ITERATION_LIMIT, nodes=nodes, pivots=pivots)
            bounds = list(base.bounds)
            for j, v in fixed.items():
                bounds[j] = (float(v), float(v))
            sol = solve_lp(LinearProgram(base.objective, list(base.rows), bounds, base.names))
            nodes += 1
            pivots += sol.pivots
            if sol.status == OPTIMAL:
                heapq.heappush(heap, (sol.objective, nodes, fixed, sol))
            elif sol.status != INFEASIBLE:
                return SolveStatus(sol.status, nodes=nodes, pivots=pivots)
        if not heap:
            return SolveStatus(INFEASIBLE, nodes=nodes, pivots=pivots)
        _, _, fixed, sol = heapq.heappop(heap)
        branch_var = _most_fractional(sol.x, mip.integral)
        if branch_var is None:
            x = sol.x.copy()
            for j in mip.integral:
                x[j] = float(round(x[j]))
            return SolveStatus(OPTIMAL, x, sol.objective, nodes=nodes, pivots=pivots)
        pending = [{**fixed, branch_var: value} for value in (0, 1)]


# ---------------------------------------------------------------------------
# LP-file text format (golden, stable across releases)


def _num(v: float) -> str:
    return repr(float(v))


def _format_terms(coeffs: np.ndarray, name_of) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        name = name_of(j)
        mag = abs(c)
        body = name if mag == 1.0 else f"{_num(mag)} {name}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return f"0 {name_of(0)}"
    return " ".join(parts)


def export_lp_file(problem, path) -> None:
    """Write the model as LP-format text (objective, rows c1..cm, bounds)."""
    if isinstance(problem, MixedIntegerProgram):
        lp, integral = problem.lp, sorted(problem.integral)
    else:
        lp, integral = problem, []
    lines = ["Minimize", f" obj: {_format_terms(lp.objective, lp.var_name)}", "Subject To"]
    for i, (coeffs, rel, rhs) in enumerate(lp.rows):
        terms = _format_terms(np.asarray(coeffs, dtype=float), lp.var_name)
        lines.append(f" c{i + 1}: {terms} {rel} {_num(rhs)}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        name = lp.var_name(j)
        if lo is None and hi is None:
            lines.append(f" {name} free")
        elif lo is not None and hi is not None:
            lines.append(f" {_num(lo)} <= {name} <= {_num(hi)}")
        elif lo is not None:
            lines.append(f" {name} >= {_num(lo)}")
        else:
            lines.append(f" {name} <= {_num(hi)}")
    if integral:
        lines.append("Binary")
        lines.extend(f" {lp.var_name(j)}" for j in integral)
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_TOKEN = re.compile(
    r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"  # numbers, incl. scientific
    r"|[A-Za-z_][\w]*"                        # identifiers
    r"|[-+]"
)


def _parse_terms(text: str, index: dict) -> dict:
    coeffs: dict[int, float] = {}
    sign = 1.0
    pending = None
    for tok in _TOKEN.findall(text):
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        else:
            try:
                pending = float(tok)
                continue
            except ValueError:
                pass
            j = index.setdefault(tok, len(index))
            coeffs[j] = coeffs.get(j, 0.0) + sign * (1.0 if pending is None else pending)
            sign, pending = 1.0, None
    return coeffs


def parse_lp_file(path):
    """Read back a model written by :func:`export_lp_file`."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    section = None
    obj_text = ""
    row_texts = []
    bound_lines = []
    binary_names = []
    for ln in raw:
        low = ln.lower()
        if low in ("minimize", "subject to", "bounds", "binary", "end"):
            section = low
            continue
        if section == "minimize":
            obj_text += " " + (ln.split(":", 1)[1] if ":" in ln else ln)
        elif section == "subject to":
            row_texts.append(ln.split(":", 1)[1] if ":" in ln else ln)
        elif section == "bounds":
            bound_lines.append(ln)
        elif section == "binary":
            binary_names.extend(ln.split())

    index: dict[str, int] = {}
    obj_coeffs = _parse_terms(obj_text, index)
    parsed_rows = []
    for text in row_texts:
        for op in ("<=", ">=", "="):
            if op in text:
                lhs, rhs = text.rsplit(op, 1)
                parsed_rows.append((_parse_terms(lhs, index), op, float(rhs)))
                break
        else:
            raise ValueError(f"constraint without relation: {text!r}")
    # bounds and binary sections may mention otherwise-unseen names
    bound_specs = []
    for ln in bound_lines:
        if ln.lower().endswith("free"):
            name = ln[: ln.lower().rfind("free")].strip()
            index.setdefault(name, len(index))
            bound_specs.append((name, None, None))
        elif "<=" in ln:
            parts = [p.strip() for p in ln.split("<=")]
            if len(parts) == 3:
                index.setdefault(parts[1], len(index))
                bound_specs.append((parts[1], float(parts[0]), float(parts[2])))
            else:
                index.setdefault(parts[0], len(index))
                bound_specs.append((parts[0], None, float(parts[1])))
        elif ">=" in ln:
            parts = [p.strip() for p in ln.split(">=")]
            index.setdefault(parts[0], len(index))
            bound_specs.append((parts[0], float(parts[1]), None))
    for name in binary_names:
        index.setdefault(name, len(index))

    n = len(index)
    objective = np.zeros(n)
    for j, c in obj_coeffs.items():
        objective[j] = c
    rows = []
    for coeffs, op, rhs in parsed_rows:
        full = np.zeros(n)
        for j, c in coeffs.items():
            full[j] = c
        rows.append((full, op, rhs))
    bounds = [(0.0, None)] * n
    for name, lo, hi in bound_specs:
        bounds[index[name]] = (lo, hi)
    names = [None] * n
    for name, j in index.items():
        names[j] = name
    lp = LinearProgram(objective, rows, bounds, names)
    if binary_names:
        return MixedIntegerProgram(lp, frozenset(index[nm] for nm in binary_names))
    return lp
