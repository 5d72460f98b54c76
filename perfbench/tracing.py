"""Spans around the calls into planefit's modules, recorded from outside.

The tracer replaces each traced public function by a wrapper under the name
its callers look it up by, because several modules import by name:
``solvers`` reaches ``omp1d.gcod`` as ``gcod_index``, and ``solve_milp``
calls ``solve_lp`` as a module global.  A span records its name, start,
end, parent span and fit id.  Spans stay in memory until the run ends and
are only recorded inside a request, so the output check run after the timed
loop leaves none.  Counts come from the arguments and return values of the
wrapped calls; nothing inside the program is instrumented.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name)
TARGETS = (
    ("planefit.lp", "solve_lp", "lp.solve_lp"),
    ("planefit.lp", "solve_milp", "lp.solve_milp"),
    ("planefit.solvers", "gcod_index", "omp1d.gcod"),
    ("planefit.solvers", "solve_omp", "omp1d.solve_omp"),
    ("planefit.omp1d", "solve_omp", "omp1d.solve_omp"),
    ("planefit.omp1d", "candidate_set", "omp1d.candidate_set"),
    ("planefit.solvers", "evaluate", "criteria.evaluate"),
    ("planefit.solvers", "residual_vector", "geometry.residual_vector"),
    ("planefit.solvers", "inscribed_polytope", "geometry.inscribed_polytope"),
    ("planefit.solvers", "polar_polytope", "geometry.polar_polytope"),
    ("planefit.evaluation", "residual_vector", "geometry.residual_vector"),
)

# solver_tag prefixes, as `solvers._solve_subproblem` and `fit_lss` name them
ROUTES = ("lp", "exact-enum", "milp", "incumbent", "heuristic", "lsq",
          "normal-equations", "irls", "descent", "quantile-scan")

MB = 2.0**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    fit_id: int
    info: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tableau_bytes(lp) -> int:
    """Phase-1 tableau size `lp.solve_lp` allocates for ``lp``, computed.

    Rows: one per constraint plus one per finite two-sided bound, and the
    objective.  Columns: the standard-form variables (a free variable takes
    two), a slack per inequality, an artificial per row, and the right-hand
    side.
    """
    two_sided = sum(1 for lo, hi in lp.bounds if lo is not None and hi is not None)
    free = sum(1 for lo, hi in lp.bounds if lo is None and hi is None)
    m = len(lp.rows) + two_sided
    slacks = sum(1 for _, rel, _ in lp.rows if rel != "=") + two_sided
    cols = lp.n_vars + free + slacks + m + 1
    return 8 * (m + 1) * cols


def _info(name: str, args: tuple, result) -> tuple:
    if name == "lp.solve_lp":
        lp = args[0]
        return (len(lp.rows), lp.n_vars, _tableau_bytes(lp), result.is_optimal)
    if name == "lp.solve_milp":
        return (result.nodes, result.status == "iteration_limit")
    if name == "omp1d.solve_omp":
        return (result.candidates_evaluated,)
    return ()


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._fit_id: int | None = None
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self._fit_id is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._fit_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _info(name, args, result)
            return result

        return traced

    @contextmanager
    def request(self, fit_id: int):
        """Root span of one fit request; traced calls inside it are recorded."""
        span = Span("request", 0.0, 0.0, None, fit_id)
        self._fit_id = fit_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._fit_id = None

    def __enter__(self):
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - origin,
                                     "end": s.end - origin, "parent": s.parent,
                                     "fit_id": s.fit_id}) + "\n")

    def per_fit_counts(self) -> dict[int, dict[str, int]]:
        """LP solves, B&B nodes and GCoD calls of each fit id."""
        counts: dict[int, dict[str, int]] = defaultdict(
            lambda: {"lp_solves": 0, "milp_nodes": 0, "gcod_calls": 0})
        for s in self.spans:
            if s.name == "lp.solve_lp":
                counts[s.fit_id]["lp_solves"] += 1
            elif s.name == "lp.solve_milp" and s.info:
                counts[s.fit_id]["milp_nodes"] += s.info[0]
            elif s.name == "omp1d.gcod":
                counts[s.fit_id]["gcod_calls"] += 1
        return counts

    def layer_metrics(self, routes: dict[int, tuple[str, int]], units: int) -> tuple[dict, dict]:
        """Per-layer metrics, and the split of fit busy time, per unit.

        ``routes`` maps each fit id to its route (the solver_tag before
        ``+inner-``) and subproblem count.  Busy times and counts are divided
        by ``units``; means and per-call figures are not.  The split gives
        ``solvers.self_s`` and the busy time of each kind of direct child of
        a fit span; it should add up to ``solvers.fit.busy_s``.
        """
        spans = self.spans
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for s in spans:
            calls[s.name] += 1
            busy[s.name] += s.duration

        fit_spans = {i for i, s in enumerate(spans) if s.name == "solvers.fit"}
        child_busy: dict[str, float] = defaultdict(float)
        fit_child = defaultdict(float)
        lp_top = 0.0
        for s in spans:
            if s.parent in fit_spans:
                child_busy[s.name] += s.duration
                fit_child[s.parent] += s.duration
            if s.name.startswith("lp.") and not spans[s.parent].name.startswith("lp."):
                lp_top += s.duration
        self_s = sum(spans[i].duration - fit_child[i] for i in fit_spans)
        split = {"solvers.self_s": self_s / units}
        split.update({name: t / units for name, t in sorted(child_busy.items())})

        route_fits: dict[str, int] = defaultdict(int)
        route_busy: dict[str, float] = defaultdict(float)
        for i in fit_spans:
            if spans[i].fit_id in routes:  # fits that raised have no route
                route = routes[spans[i].fit_id][0]
                route_fits[route] += 1
                route_busy[route] += spans[i].duration

        # calls that raised carry no info
        lps = [s.info for s in spans if s.name == "lp.solve_lp" and s.info]
        milps = [s.info for s in spans if s.name == "lp.solve_milp" and s.info]
        candidates = sum(s.info[0] for s in spans if s.name == "omp1d.solve_omp" and s.info)
        per_fit = self.per_fit_counts()
        heuristic = [fid for fid, (route, _) in routes.items() if route == "heuristic"]
        heuristic_subproblems = sum(routes[fid][1] for fid in heuristic)
        heuristic_lps = sum(per_fit[fid]["lp_solves"] for fid in heuristic)
        requests = busy["request"]
        n_fits = len(fit_spans)

        m = {
            "lp.solve_lp.calls": calls["lp.solve_lp"] / units,
            "lp.solve_lp.busy_s": busy["lp.solve_lp"] / units,
            "lp.solve_lp.ms_per_call": 1e3 * busy["lp.solve_lp"] / max(1, calls["lp.solve_lp"]),
            "lp.solve_lp.rows_mean": sum(i[0] for i in lps) / max(1, len(lps)),
            "lp.solve_lp.cols_mean": sum(i[1] for i in lps) / max(1, len(lps)),
            "lp.solve_lp.tableau_mb_computed": max((i[2] for i in lps), default=0) / MB,
            "lp.solve_lp.not_optimal": sum(1 for i in lps if not i[3]) / units,
            "lp.solve_milp.calls": calls["lp.solve_milp"] / units,
            "lp.solve_milp.busy_s": busy["lp.solve_milp"] / units,
            "lp.solve_milp.nodes": sum(i[0] for i in milps) / units,
            "lp.solve_milp.limit_hits": sum(1 for i in milps if i[1]) / units,
            "lp.share": lp_top / requests if requests else 0.0,
            "omp1d.gcod.calls": calls["omp1d.gcod"] / units,
            "omp1d.gcod.busy_s": busy["omp1d.gcod"] / units,
            "omp1d.gcod.per_fit": calls["omp1d.gcod"] / max(1, n_fits),
            "omp1d.gcod.share": busy["omp1d.gcod"] / requests if requests else 0.0,
            "omp1d.solve_omp.calls": calls["omp1d.solve_omp"] / units,
            "omp1d.solve_omp.busy_s": busy["omp1d.solve_omp"] / units,
            "omp1d.candidate_set.busy_s": busy["omp1d.candidate_set"] / units,
            "omp1d.candidates": candidates / units,
            "solvers.fit.calls": n_fits / units,
            "solvers.fit.busy_s": busy["solvers.fit"] / units,
            "solvers.self_s": self_s / units,
            "solvers.subproblems": sum(sp for _, sp in routes.values()) / units,
            "solvers.lp_per_subproblem": heuristic_lps / max(1, heuristic_subproblems),
        }
        for route in ROUTES:
            m[f"solvers.route.{route}.fits"] = route_fits[route] / units
            m[f"solvers.route.{route}.busy_s"] = route_busy[route] / units
        m.update({
            "geometry.inscribed_polytope.calls": calls["geometry.inscribed_polytope"] / units,
            "geometry.inscribed_polytope.busy_s": busy["geometry.inscribed_polytope"] / units,
            "geometry.polar_polytope.busy_s": busy["geometry.polar_polytope"] / units,
            "geometry.residual_vector.calls": calls["geometry.residual_vector"] / units,
            "geometry.residual_vector.busy_s": busy["geometry.residual_vector"] / units,
            "criteria.evaluate.calls": calls["criteria.evaluate"] / units,
            "criteria.evaluate.busy_s": busy["criteria.evaluate"] / units,
            "evaluation.strip_metrics.busy_s": busy["evaluation.strip_metrics"] / units,
        })
        return m, split
