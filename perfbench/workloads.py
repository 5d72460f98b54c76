"""The benchmark's fit workloads.

A workload is a sequence of units.  A unit is a fixed list of cells, each a
fit request, on data built from the workload seed and the unit's index, so
the same seed always gives the same inputs.  A run fits unit 0, then units
1, 2, ... while its time lasts; every unit of a workload has the same mix of
criteria, residuals and sizes, so a run that fits more units measures the
same mix over more data.

Each synthetic cell gets a dataset of its own, from a seed drawn off the
unit's SplitMix64 stream; that seed is also the request's seed.  Solver work
varies severalfold with the data, so a run that averages over many datasets
varies less from one workload seed to the next.  The star cells share the
47-point sample and take the unit seed, as ``planefit batch --seed`` does.

Requests are built the way ``planefit batch`` builds its cells: criteria by
preset name through ``cli.build_criterion`` and residuals by spec through
``cli.parse_residual``, with the CLI defaults N=32, multistart=16 and
node_limit=100000.  ``planefit`` is imported inside ``build_unit`` so that
set-up timing includes the import.
"""

from __future__ import annotations

from dataclasses import dataclass

# `planefit batch` defaults
POLYTOPE_VERTICES = 32
MULTISTART = 16
NODE_LIMIT = 100_000

# Grid cells left out of stars-grid to keep a run near 30 s.  The MED x
# l-tau cells fall back to the concentration heuristic (the enumeration
# budget divided over 16 disjuncts) and take minutes each; the other two
# AkC x l-tau cells repeat the kept AkC x ltau:2; the MED and AkC cells on l1
# and linf repeat the exact-enum work of the vertical cells, per disjunct.
STARS_EXCLUDED = {
    ("MED", "ltau:3/2"), ("MED", "ltau:2"), ("MED", "ltau:3"),
    ("AkC", "ltau:3/2"), ("AkC", "ltau:3"),
    ("MED", "l1"), ("MED", "linf"), ("AkC", "l1"), ("AkC", "linf"),
}


@dataclass(frozen=True)
class Cell:
    """One fit request, described by name only."""

    criterion: str
    param: str | None
    residual: str
    n: int
    d: int
    corruption: str | None  # None: the 47-star CYG OB1 sample


def _stars_grid() -> list[Cell]:
    from planefit.cli import GRID_CRITERIA, GRID_RESIDUALS

    return [Cell(c, None, r, 47, 2, None)
            for c in GRID_CRITERIA for r in GRID_RESIDUALS
            if (c, r) not in STARS_EXCLUDED]


def _lp_scale() -> list[Cell]:
    return [Cell(c, None, r, n, d, "Y")
            for n in (50, 100) for d in (2, 3)
            for c in ("SUM", "MAX", "kC") for r in ("vertical", "l1", "linf")]


def _milp_d3() -> list[Cell]:
    # Node counts vary tenfold with the data, so a unit is kept small
    # (n = 4 and 5) and a run averages over many units.
    small = [Cell(c, None, r, 4, 3, "Y") for c in ("MED", "AkC") for r in ("vertical", "l1")]
    return small + [Cell(c, None, "vertical", 5, 3, "Y") for c in ("MED", "AkC")]


def _gcod_scale() -> list[Cell]:
    return [Cell(c, "0.5" if c == "LTS" else None, r, n, 2, "X")
            for n in (100, 200)
            for c in ("SOS", "1.5SUM", "LMS", "LTS") for r in ("vertical", "l1")]


WORKLOADS = {
    "stars-grid": _stars_grid,
    "lp-scale": _lp_scale,
    "milp-d3": _milp_d3,
    "gcod-scale": _gcod_scale,
}


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index``; unit 0 uses the workload seed itself."""
    return seed + 1_000_003 * index


@dataclass
class Request:
    """A cell with its built inputs and the references the output check uses."""

    cell: Cell
    seed: int  # of the data (synthetic cells) and of the fit request
    data: object  # planefit.Dataset
    request: object  # planefit.FitRequest
    planted: object  # planefit.Hyperplane, or None on the stars sample


def build_unit(workload: str, seed: int, index: int) -> list[Request]:
    """Datasets, criteria, residual specs and fit requests of one unit."""
    import numpy as np

    from planefit import FitRequest, Hyperplane, synthetic_generate
    from planefit.cli import build_criterion, parse_residual
    from planefit.data import cyg_ob1
    from planefit.rng import SplitMix64

    useed = unit_seed(seed, index)
    draws = SplitMix64(useed)
    out = []
    for cell in WORKLOADS[workload]():
        if cell.corruption is None:
            cseed, data, planted = useed, cyg_ob1(), None
        else:
            cseed = draws.next_u64()
            data = synthetic_generate(cell.n, cell.d, cell.corruption, cseed)
            planted = Hyperplane(np.concatenate([[0.0], np.ones(cell.d)]))
        request = FitRequest(data, build_criterion(cell.criterion, data.n, cell.param),
                             parse_residual(cell.residual, data.dim), seed=cseed,
                             multistart=MULTISTART, polytope_vertices=POLYTOPE_VERTICES,
                             node_limit=NODE_LIMIT)
        out.append(Request(cell, cseed, data, request, planted))
    return out
