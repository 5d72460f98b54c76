"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports planefit from ``src`` and builds unit 0 of the workload (datasets,
criteria, residual specs and fit requests), then prints the seconds taken,
counted from the first statement of this file.  ``run.py`` runs it several
times and reports the median as ``setup_s``.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.build_unit(sys.argv[1], int(sys.argv[2]), 0)
    print(time.perf_counter() - _START)
