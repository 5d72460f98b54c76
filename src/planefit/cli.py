"""Command-line interface: fit, batch grids, cross validation, data generation.

Input CSVs carry a header row and numeric columns; the last column is the
dependent coordinate unless --dependent-col picks another, and the intercept
column is always synthesized.  Each fit is one ``FitRequest`` built from the
shared options (``_request``), and ``--emit-lp`` exports that request.  Every
fit's output comes from ``result_record``: ``fit`` writes the record as
versioned JSON, or as one row of the ``batch`` CSV (``_BATCH_COLUMNS``).  An
independent ``verify`` subcommand re-scores a record against the input it
came from and, when the record carries ``bounds``, checks that the
recomputed objective lies inside them.

Exit codes: 0 success, 1 a verification mismatch, 2 a solver error or an
input error: bad input, a record of another schema than ``SCHEMA_VERSION``
given to ``verify``, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .criteria import Criterion, preset
from .evaluation import kfold_cv, strip_metrics, synthetic_generate
from .geometry import (
    Block,
    Dataset,
    GeometryError,
    Hyperplane,
    LTau,
    Polytope,
    Vertical,
    _mirror_close,
)
from .omp1d import _index, _phi0
from .solvers import (
    MULTISTART,
    POLYTOPE_VERTICES,
    FitRequest,
    SolverError,
    export_formulation,
    fit,
    phi_at,
)

SCHEMA_VERSION = "2"
GRID_CRITERIA = ("SUM", "MAX", "MED", "kC", "AkC", "SOS", "1.5SUM")
GRID_RESIDUALS = ("vertical", "l1", "linf", "ltau:3/2", "ltau:2", "ltau:3")


class InputError(Exception):
    """Bad user input; reported as structured JSON with exit code 2."""


# ---------------------------------------------------------------------------
# parsing helpers


def _parse_line(path: str, lineno: int, parts: list[str], what: str) -> list[float]:
    """The numbers of one line of an input file, each finite; anything else
    is an input error naming the file and the line."""
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"{path}, line {lineno}: {what} ({exc})") from exc
    bad = [p.strip() for p, x in zip(parts, values) if not math.isfinite(x)]
    if bad:
        raise InputError(f"{path}, line {lineno}: non-finite value {bad[0]!r}")
    return values


def read_csv_dataset(path: str, dependent: str | None = None) -> tuple[Dataset, list[str]]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2:
        raise InputError(f"{path}: need at least two columns")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != len(header):
            raise InputError(
                f"{path}, line {lineno}: expected {len(header)} fields, found {len(parts)}"
            )
        rows.append(_parse_line(path, lineno, parts, "non-numeric value"))
    if not rows:
        raise InputError(f"{path}: no data rows")
    matrix = np.array(rows)
    if dependent is not None:
        if dependent in header:
            col = header.index(dependent)
        else:
            try:
                col = int(dependent) - 1
            except ValueError:
                raise InputError(f"unknown dependent column {dependent!r}") from None
            if not 0 <= col < len(header):
                raise InputError(f"dependent column index {dependent} out of range")
        order = [j for j in range(len(header)) if j != col] + [col]
        matrix = matrix[:, order]
        header = [header[j] for j in order]
    return Dataset.from_observations(matrix), header


def _load_block_file(path: str) -> Polytope:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read block-norm file {path}: {exc}") from exc
    vertices = []
    for lineno, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        vertex = _parse_line(path, lineno, ln.split(), "bad vertex")
        if vertices and len(vertex) != len(vertices[0]):
            raise InputError(f"{path}, line {lineno}: a vertex of {len(vertex)} coordinates "
                             f"after vertices of {len(vertices[0])}")
        vertices.append(vertex)
    if not vertices:
        raise InputError(f"{path}: no vertices")
    arr = np.array(vertices)
    # complete missing mirror images, warning once
    missing = -arr[~_mirror_close(arr).any(axis=1)]
    if len(missing):
        print(f"warning: {path}: added {len(missing)} mirrored vertices for symmetry",
              file=sys.stderr)
        arr = np.vstack([arr, missing])
    try:
        return Polytope.from_vertices(arr)
    except GeometryError as exc:
        raise InputError(f"{path}: invalid block-norm ball ({exc})") from exc


def _parse_tau(body: str):
    if body in ("inf", "infinity"):
        return math.inf
    try:
        tau = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad tau value {body!r}") from exc
    if tau < 1:
        raise InputError("tau must be >= 1")
    return tau


def parse_residual(spec: str, d: int):
    """The norm a residual spec names.  l1 and linf are the polytopal l-tau
    norms, whose balls ``fit`` builds; only a ``block:`` file is read into a
    ``Block`` here, and its ball must be d-dimensional."""
    spec = spec.strip()
    if spec in ("vertical", "V", "v"):
        return Vertical()
    if spec == "l1":
        return LTau(1)
    if spec == "linf":
        return LTau(math.inf)
    if spec.startswith("ltau:"):
        return LTau(_parse_tau(spec.split(":", 1)[1]))
    if spec.startswith("block:"):
        path = spec.split(":", 1)[1]
        ball = _load_block_file(path)
        if ball.dim != d:
            raise InputError(f"{path}: a {ball.dim}-d block ball cannot measure "
                             f"distances in {d}-d data")
        return Block(ball)
    raise InputError(f"unknown residual spec {spec!r} "
                     "(expected vertical | l1 | linf | ltau:<frac> | block:<file>)")


def build_criterion(name: str, n: int, param: str | None) -> Criterion:
    def parsed(kind, what):
        try:
            return kind(param)
        except ValueError:
            raise InputError(f"{name} needs --param <{what}>, not {param!r}") from None

    kwargs = {}
    if name in ("kC", "AkC") and param is not None:
        kwargs["K"] = parsed(int, "K")
    elif name == "LQS":
        if param is None:
            raise InputError("LQS needs --param <rank r>")
        kwargs["r"] = parsed(int, "rank r")
    elif name == "LTS":
        if param is None:
            raise InputError("LTS needs --param <alpha>")
        kwargs["alpha"] = parsed(float, "alpha")
    return preset(name, n, **kwargs)


def _request(args, data: Dataset, criterion: Criterion, norm) -> FitRequest:
    """The fit of (criterion, norm) on ``data`` under the shared options."""
    return FitRequest(data, criterion, norm, seed=args.seed, multistart=args.multistart,
                      polytope_vertices=args.N)


# ---------------------------------------------------------------------------
# records


def _fmt(v: float) -> str:
    return repr(float(v))


def result_record(config: dict, data: Dataset, result, strip_eps: float,
                  norm, wall_time: float | None) -> dict:
    beta = result.hyperplane.beta
    if beta[-1] != 0.0:
        beta_regression = (beta / -beta[-1]).tolist()
    else:
        beta_regression = None
    metrics = strip_metrics(data, result.hyperplane, norm)
    record = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "beta_raw": beta.tolist(),
        "normalization": result.hyperplane.normalization,
        "beta_regression": beta_regression,
        "phi_star": result.phi_star,
        "gcod": result.gcod,
        "bounds": list(result.bounds) if result.bounds is not None else None,
        "sd": result.sd,
        "strip": {
            "eps": strip_eps,
            "coverage": metrics.coverage_at(strip_eps),
            "eps90": metrics.eps90,
        },
        "solver_tag": result.solver_tag,
        "subproblems": result.subproblem_count,
    }
    if wall_time is not None:
        record["wall_time_s"] = wall_time
    return record


_BATCH_COLUMNS = ("criterion", "residual", "beta", "phi_star", "gcod",
                  "coverage", "eps90", "solver_tag", "error")


def _batch_row(criterion: str, residual: str, record: dict | None, error: str = "") -> dict:
    """One row of the batch grid, in ``_BATCH_COLUMNS`` order, from a fit's
    ``result_record``; a failed fit has no record and fills only ``error``."""
    cells = [""] * 6
    if record is not None:
        cells = [";".join(_fmt(b) for b in record["beta_raw"]), _fmt(record["phi_star"]),
                 _fmt(record["gcod"]), _fmt(record["strip"]["coverage"]),
                 _fmt(record["strip"]["eps90"]), record["solver_tag"]]
    return dict(zip(_BATCH_COLUMNS, [criterion, residual, *cells, error]))


def _batch_csv(rows: list[dict]) -> str:
    return "".join(",".join(line) + "\n"
                   for line in [_BATCH_COLUMNS, *(row.values() for row in rows)])


def _emit(payload: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    data, header = read_csv_dataset(args.input, args.dependent_col)
    criterion = build_criterion(args.criterion, data.n, args.param)
    norm = parse_residual(args.residual, data.dim)
    request = _request(args, data, criterion, norm)
    t0 = time.perf_counter()
    result = fit(request)
    wall = time.perf_counter() - t0
    strip_norm = norm if args.strip_norm is None else parse_residual(args.strip_norm, data.dim)
    config = {
        "input": args.input,
        "dependent_col": args.dependent_col,
        "criterion": args.criterion,
        "param": args.param,
        "residual": args.residual,
        "N": args.N,
        "seed": args.seed,
        "multistart": args.multistart,
        "columns": header,
    }
    record = result_record(config, data, result, args.strip_eps, strip_norm,
                           wall if args.timing else None)
    if args.emit_lp:
        export_formulation(request, args.emit_lp, beta=result.hyperplane.beta)
    if args.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", args.output)
    else:
        _emit(_batch_csv([_batch_row(args.criterion, args.residual, record)]), args.output)
    return 0


def cmd_batch(args) -> int:
    data, header = read_csv_dataset(args.input, args.dependent_col)
    rows = []
    for crit_name in GRID_CRITERIA:
        for resid_name in GRID_RESIDUALS:
            try:
                criterion = build_criterion(crit_name, data.n, None)
                norm = parse_residual(resid_name, data.dim)
                result = fit(_request(args, data, criterion, norm))
                record = result_record(None, data, result, args.strip_eps, norm, None)
                row = _batch_row(crit_name, resid_name, record)
            except (InputError, SolverError, GeometryError, ValueError) as exc:
                row = _batch_row(crit_name, resid_name, None, str(exc))
            rows.append(row)
    if args.format == "json":
        payload = json.dumps({"schema": SCHEMA_VERSION, "seed": args.seed,
                              "grid": rows}, indent=2) + "\n"
    else:
        payload = _batch_csv(rows)
    _emit(payload, args.output)
    return 0


def cmd_cv(args) -> int:
    data, header = read_csv_dataset(args.input, args.dependent_col)
    norm = parse_residual(args.residual, data.dim)

    def fit_fold(train: Dataset) -> Hyperplane:
        criterion = build_criterion(args.criterion, train.n, args.param)
        return fit(_request(args, train, criterion, norm)).hyperplane

    summary = kfold_cv(data, args.cv, fit_fold, norm, seed=args.seed)
    record = {
        "schema": SCHEMA_VERSION,
        "criterion": args.criterion,
        "residual": args.residual,
        "k": args.cv,
        "seed": args.seed,
        "eps90": {
            "min": summary.min,
            "max": summary.max,
            "median": summary.median,
            "mean": summary.mean,
            "folds": summary.fold_eps90,
        },
    }
    if args.format == "json":
        payload = json.dumps(record, indent=2) + "\n"
    else:
        payload = ("criterion,residual,k,min,max,median,mean\n"
                   f"{args.criterion},{args.residual},{args.cv},"
                   f"{_fmt(summary.min)},{_fmt(summary.max)},"
                   f"{_fmt(summary.median)},{_fmt(summary.mean)}\n")
    _emit(payload, args.output)
    return 0


def cmd_gen(args) -> int:
    if args.d < 2:
        raise InputError("need d >= 2")
    data = synthetic_generate(args.n, args.d, args.corruption, args.seed)
    names = [f"x{k}" for k in range(1, args.d)] + ["y"]
    lines = [",".join(names)]
    for row in data.observations:
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _record_fields(record: dict, *keys: str) -> list:
    """The values at the dotted ``keys`` of a record; a missing one is an
    input error that names it."""
    values = []
    for key in keys:
        value = record
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise InputError(f"the record has no {key!r}")
            value = value[part]
        values.append(value)
    return values


def _record_numbers(value, key: str, shape: tuple, what: str) -> np.ndarray:
    """The record's ``key`` as finite numbers of ``shape``; anything else is
    an input error naming it and ``what`` it must be."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape != shape or not np.all(np.isfinite(out)):
        raise InputError(f"the record's {key!r} must be {what}, not {json.dumps(value)}")
    return out


def cmd_verify(args) -> int:
    try:
        with open(args.record) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read record {args.record}: {exc}") from exc
    schema = record.get("schema") if isinstance(record, dict) else None
    if schema != SCHEMA_VERSION:
        raise InputError(f"{args.record} has schema {schema!r}; "
                         f"verify checks schema {SCHEMA_VERSION!r} records")
    criterion_name, residual, beta_raw, phi_star, gcod = _record_fields(
        record, "config.criterion", "config.residual", "beta_raw", "phi_star", "gcod")
    phi_star = float(_record_numbers(phi_star, "phi_star", (), "a finite number"))
    gcod = float(_record_numbers(gcod, "gcod", (), "a finite number"))
    config = record["config"]
    input_path = args.input or config.get("input")
    if input_path is None:
        raise InputError("no input path on the record; pass --input")
    data, _ = read_csv_dataset(input_path, config.get("dependent_col"))
    criterion = build_criterion(criterion_name, data.n, config.get("param"))
    norm = parse_residual(residual, data.dim)
    beta = _record_numbers(beta_raw, "beta_raw", (data.dim + 1,),
                           f"d + 1 = {data.dim + 1} finite numbers")
    plane = Hyperplane(beta, record.get("normalization", "raw"))
    phi = phi_at(data, criterion, norm, plane)
    # phi* carries the data's units, so its absolute floor is a share of
    # phi0, the constant-model objective GCoD divides by
    phi0 = _phi0(data, criterion, norm)
    idx = _index(phi, phi0)
    ok_phi = math.isclose(phi, phi_star, rel_tol=1e-6,
                          abs_tol=1e-9 * phi0 if phi0 > 0.0 else 1e-9)
    ok_gcod = math.isclose(idx, gcod, rel_tol=1e-6, abs_tol=1e-9)
    bounds_ok = None
    if record.get("bounds") is not None:
        lower, upper = _record_numbers(record["bounds"], "bounds", (2,),
                                       "a pair of finite numbers")
        tol = 1e-9 * max(abs(lower), abs(upper))
        bounds_ok = bool(lower - tol <= phi <= upper + tol)
    report = {
        "phi_star_recomputed": phi,
        "phi_star_recorded": phi_star,
        "gcod_recomputed": idx,
        "gcod_recorded": gcod,
        "match": bool(ok_phi and ok_gcod),
        "bounds_ok": bounds_ok,
    }
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", args.output)
    return 0 if report["match"] and bounds_ok is not False else 1


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p: argparse.ArgumentParser, with_criterion: bool = True) -> None:
    p.add_argument("--input", required=True, help="input CSV (header row, numeric)")
    p.add_argument("--dependent-col", default=None,
                   help="dependent column name or 1-based index (default: last)")
    if with_criterion:
        p.add_argument("--criterion", required=True,
                       help="SUM MAX MED kC AkC SOS 1.5SUM LQS LMS LTS")
        p.add_argument("--param", default=None,
                       help="criterion parameter (K for kC/AkC, r for LQS, alpha for LTS)")
        p.add_argument("--residual", required=True,
                       help="vertical | l1 | linf | ltau:<frac> | block:<file>")
    p.add_argument("--N", type=int, default=POLYTOPE_VERTICES,
                   help="polygon vertex count for smooth l-tau approximation")
    p.add_argument("--multistart", type=int, default=MULTISTART,
                   help="random starts of the concentration heuristic, the only "
                        "route that uses them")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strip-eps", type=float, default=10.0,
                   help="strip half-width for the coverage column")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planefit",
        description="Hyperplane fitting with ordered-median criteria and "
                    "norm-based residuals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one criterion/residual pair")
    _add_common(p_fit)
    p_fit.add_argument("--emit-lp", default=None, metavar="PATH",
                       help="export the p=1 subproblem formulation as an LP file")
    p_fit.add_argument("--timing", action="store_true",
                       help="include wall time in the record (off for determinism)")
    p_fit.add_argument("--strip-norm", default=None,
                       help="measure the strip in this residual instead of the fitting one")
    p_fit.set_defaults(func=cmd_fit)

    p_batch = sub.add_parser("batch", help="run the 7x6 criterion/residual grid")
    _add_common(p_batch, with_criterion=False)
    p_batch.set_defaults(func=cmd_batch, format="csv")

    p_cv = sub.add_parser("cv", help="k-fold cross validation of held-out eps90")
    _add_common(p_cv)
    p_cv.add_argument("--cv", type=int, required=True, help="number of folds")
    p_cv.set_defaults(func=cmd_cv)

    p_gen = sub.add_parser("gen", help="generate the synthetic corrupted sample")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--corruption", choices=("X", "Y"), required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_ver = sub.add_parser("verify", help="re-score a result record against its input")
    p_ver.add_argument("--record", required=True, help="JSON record from `fit`")
    p_ver.add_argument("--input", default=None, help="override the input path")
    p_ver.add_argument("--output", default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GeometryError, SolverError, ValueError, OSError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
