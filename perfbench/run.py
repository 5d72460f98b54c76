"""planefit benchmark: fit workloads measured end to end, or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the root of a source checkout; planefit is imported from ``src``.
One process runs one workload as a closed loop: each fit request
(``fit`` then ``strip_metrics``) is issued when the previous one returns.
It fits unit 0 of the workload and then further units while the next one
is expected to end within ``--seconds`` (see ``workloads.py``).  Every fit
is checked after the timed loop.

The output is a line of run metadata, one JSON line per fit, a summary
line and, last, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
calls into planefit's modules are timed from outside (``tracing.py``) and the
metrics are the per-layer ones; the spans are written to
``.bench_spans/spans-<workload>-<seed>.jsonl`` when the run ends.  A fit
that raises counts as failed; the exit code is 1 when a fit returns a
result that fails the output check.

``--workload all`` runs every workload untraced and then traced, each in
its own process, and prints one summary table with the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # neither module imports planefit
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_spans"  # traced runs write their spans here


DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_PROBES = 7
# acceptance 07's exact routes
EXACT_ROUTES = {"lp", "exact-enum", "milp", "quantile-scan", "lsq", "normal-equations"}
# acceptance 10's dominance slack
DOMINANCE_RTOL = 1e-4
# An objective below this share of its reference counts as zero: the milp-d3
# optima interpolate d points and come out near 1e-12.
RATIO_FLOOR = 1e-6
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "fits_per_s": "fits/s",
    "exact_share": "fraction",
    "objective_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def route_of(tag: str) -> str:
    return tag.split("+inner-")[0]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over planefit's source files, to tell measured code apart."""
    h = hashlib.sha256()
    for path in sorted((SRC / "planefit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing planefit and building unit 0."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
                              str(seed)], capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def lss_plane(data):
    """The line `fit_lss` returns, without the GCoD that `fit_lss` also computes."""
    import numpy as np

    from planefit import Hyperplane

    d = data.dim
    coef = np.linalg.lstsq(data.matrix[:, :d], data.matrix[:, d], rcond=None)[0]
    return Hyperplane(np.concatenate([coef, [-1.0]]), "vertical-unit")


def references(req) -> dict[str, float]:
    """Objective of the least-squares line and, on synthetic data, of the
    planted hyperplane, under the request's own criterion and residual."""
    from planefit.solvers import phi_at

    planes = {"lss": lss_plane(req.data)}
    if req.planted is not None:
        planes["planted"] = req.planted
    crit, norm = req.request.criterion, req.request.norm
    return {name: phi_at(req.data, crit, norm, plane) for name, plane in planes.items()}


def check_fit(req, result, refs: dict[str, float]) -> list[str]:
    """Output check of one fit; returns the violated conditions."""
    from planefit.geometry import LTau
    from planefit.solvers import phi_at

    norm = req.request.norm
    phi = result.phi_star
    problems = []
    rescored = phi_at(req.data, req.request.criterion, norm, result.hyperplane)
    if abs(rescored - phi) > 1e-9 * max(abs(rescored), abs(phi)):
        problems.append(f"phi_star {phi!r} != phi_at {rescored!r}")
    if not -1e-9 <= result.gcod <= 1 + 1e-9:
        problems.append(f"gcod {result.gcod!r} outside [0, 1]")
    if isinstance(norm, LTau) and 1 < norm.tau < math.inf:
        if result.bounds is None:
            problems.append("l-tau fit without bounds")
        else:
            lo, hi = result.bounds
            slack = 1e-9 * max(abs(lo), abs(hi), abs(phi))
            if not lo - slack <= phi <= hi + slack:
                problems.append(f"phi_star {phi!r} outside bounds {result.bounds!r}")
    for name, bound in refs.items():
        if phi > bound + DOMINANCE_RTOL * abs(bound) + 1e-9:
            problems.append(f"phi_star {phi!r} worse than {name} {bound!r}")
    return problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run: the timed closed loop, then the output check.  Prints the fit rows.

    A request that raises a planefit error counts as failed; one that returns
    a result failing the output check also makes the run incorrect.
    """
    from planefit import fit, strip_metrics
    from planefit.geometry import GeometryError
    from planefit.solvers import SolverError

    setup_s = None if traced else measure_setup(workload, seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        fit = tracer.wrap("solvers.fit", fit)
        strip_metrics = tracer.wrap("evaluation.strip_metrics", strip_metrics)

    records = []  # (unit, Request, FitResult or None, seconds, error)
    unit_walls = []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        while not unit_walls or (time.perf_counter() - start
                                 + statistics.fmean(unit_walls) <= seconds):
            unit = len(unit_walls)
            requests = workloads.build_unit(workload, seed, unit)
            unit_start = time.perf_counter()
            for req in requests:
                fit_id = len(records)
                t0 = time.perf_counter()
                try:
                    with tracer.request(fit_id) if tracer else contextlib.nullcontext():
                        result = fit(req.request)
                        strip_metrics(req.data, result.hyperplane, req.request.norm)
                    error = None
                except (SolverError, GeometryError, ValueError) as exc:
                    result, error = None, f"{type(exc).__name__}: {exc}"
                records.append((unit, req, result, time.perf_counter() - t0, error))
            unit_walls.append(time.perf_counter() - unit_start)
    wall = sum(unit_walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output check, outside the timed loop
    failed = 0  # requests that raised an error or returned a wrong result
    wrong = 0  # requests that returned a wrong result
    ratios = []
    exact = 0
    counts = tracer.per_fit_counts() if tracer else {}
    for fit_id, (unit, req, result, secs, error) in enumerate(records):
        problems = [error] if error else []
        if result is not None:
            refs = references(req)
            problems += check_fit(req, result, refs)
            wrong += bool(problems)
            ratios.append(max(result.phi_star / min(refs.values()), RATIO_FLOOR))
            exact += route_of(result.solver_tag) in EXACT_ROUTES
        failed += bool(problems)
        c = req.cell
        row = {
            "workload": workload, "unit": unit, "seed": req.seed, "criterion": c.criterion,
            "param": c.param, "residual": c.residual, "n": c.n, "d": c.d,
            "route": result.solver_tag if result else None,
            "subproblems": result.subproblem_count if result else None,
            "phi_star": result.phi_star if result else None,
            "seconds": secs, "problems": problems,
        }
        if tracer is not None:
            row.update(counts.get(fit_id, {}))
        print(json.dumps(row))

    n = len(records)
    fit_times = sorted(r[3] for r in records)
    summary = {
        "workload": workload, "seed": seed, "traced": traced, "units": len(unit_walls),
        "fits": n, "failed_share": failed / n,
    }
    if traced:
        routes = {i: (route_of(r.solver_tag), r.subproblem_count)
                  for i, (_, _, r, _, _) in enumerate(records) if r is not None}
        metrics, split = tracer.layer_metrics(routes, len(unit_walls))
        metrics["trace.fits_per_s"] = n / wall
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path, start)
        summary["spans"] = str(spans_path.relative_to(ROOT))
        summary["fit_busy_split"] = split
        residual = metrics["solvers.fit.busy_s"] - sum(split.values())
        summary["fit_busy_residual_s"] = residual
        consistent = abs(residual) <= 1e-9 * max(1.0, metrics["solvers.fit.busy_s"])
    else:
        metrics = {
            "fits_per_s": n / wall,
            "exact_share": exact / n,
            "objective_ratio": math.exp(statistics.fmean(math.log(r) for r in ratios)),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        # Fit latency percentiles, with the highest one that has at least ten
        # samples beyond it.  They are reported, not bounded: in these mixed
        # workloads the median falls between clusters of cheap and costly cells
        # and moved by up to half between runs of the same inputs.
        summary["fit_p50_s"] = statistics.median(fit_times)
        if n >= 20:
            k = n - 10
            summary["fit_tail"] = {"quantile": round(k / n, 3), "seconds": fit_times[k - 1]}
        consistent = True
    print(json.dumps({"summary": summary}))
    return {"correct": wrong == 0 and consistent, "attempted": n, "failed": failed,
            "metrics": metrics}


def metadata(args) -> dict:
    import numpy

    import planefit

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": source_commit(), "source_sha256": source_digest(),
        "planefit": planefit.__version__,
    }


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process; one table."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[name, trace] = (json.loads(lines[-1]) if proc.stdout.strip() else None,
                                    json.loads(lines[-2])["summary"] if len(lines) > 1 else {})
    print()
    print(f"seed {args.seed}, {args.seconds} s per run")
    for name in workloads.WORKLOADS:
        plain, plain_summary = results[name, 0]
        traced, traced_summary = results[name, 1]
        if plain is None or traced is None:
            print(f"{name}: no result")
            continue
        print(f"\n{name}  ({plain_summary['fits']} fits in {plain_summary['units']} units, "
              f"failed_share {plain_summary['failed_share']})")
        for key, value in plain["metrics"].items():
            print(f"  {key:<16} {value['value']:.6g} {value['unit']}")
        tail = plain_summary.get("fit_tail")
        print(f"  fit latency: p50 {plain_summary['fit_p50_s']:.4g} s"
              + (f", p{100 * tail['quantile']:.0f} {tail['seconds']:.4g} s" if tail else "")
              + f" over {plain_summary['fits']} samples")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = plain["metrics"]["fits_per_s"]["value"]
        print(f"  traced fits_per_s {m['trace.fits_per_s']:.6g} vs untraced {untraced:.6g}"
              f" (overhead {1 - m['trace.fits_per_s'] / untraced:+.1%})")
        split = traced_summary["fit_busy_split"]
        print(f"  solvers.fit.busy_s {m['solvers.fit.busy_s']:.6g} = "
              + " + ".join(f"{k} {v:.4g}" for k, v in split.items())
              + f"  (residual {traced_summary['fit_busy_residual_s']:.2g} s)")
        print(f"  lp.share {m['lp.share']:.3f}, omp1d.gcod.share {m['omp1d.gcod.share']:.3f}, "
              f"omp1d.gcod.per_fit {m['omp1d.gcod.per_fit']:.3f}, "
              f"solvers.lp_per_subproblem {m['solvers.lp_per_subproblem']:.3f}")
        for key, value in traced["metrics"].items():
            print(f"    {key:<40} {value['value']:.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planefit" / "__init__.py").is_file():
        print(f"error: no planefit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(nproc()) for var in BLAS_THREAD_VARS})
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import planefit

    if Path(planefit.__file__).resolve().parent != SRC / "planefit":
        print(f"error: imported planefit from {planefit.__file__}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": metadata(args)}))
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    unit = END_TO_END_UNITS.get if not args.trace else layer_unit
    out["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in out["metrics"].items()}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def layer_unit(name: str) -> str:
    if name == "trace.fits_per_s":
        return "fits/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith(".share"):
        return "fraction"
    if name.endswith(".per_fit") or name.endswith(".lp_per_subproblem"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
