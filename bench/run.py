"""Benchmark entry point: run one workload of the flowshop toolkit and print its metrics.

    python3 bench/run.py --workload solve-50x10 --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it imports the library from the
checkout's ``src/`` and nothing else. BLAS is given one thread before
numpy loads. See NOTES.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def single_blas_thread() -> None:
    """Give BLAS one thread (never more than the CPUs the process may use).

    Every workload is one client in one process. With a second BLAS thread
    the training step's time depended on the load of both CPUs of the
    shared machine, and its median spread over seeds grew from about 12%
    to about 27%.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main() -> int:
    single_blas_thread()
    sys.path.insert(0, str(SOURCES))
    try:
        import flowshop
    except ImportError as exc:
        print(f"cannot import flowshop from {SOURCES}: {exc}", file=sys.stderr)
        return 2
    if Path(flowshop.__file__).resolve().parent != SOURCES.resolve() / "flowshop":
        print(f"flowshop was imported from {flowshop.__file__}, not from {SOURCES}", file=sys.stderr)
        return 2
    import runner

    return runner.main()


if __name__ == "__main__":
    sys.exit(main())
