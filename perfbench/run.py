"""pdopt benchmark: wall time to a stated accuracy per method, per workload.

    python3 perfbench/run.py --workload tvl1-64 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and measures the ``pdopt`` found in
its ``src/``.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` a separate traced run reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads and metrics are described in
``perfbench/README.md``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Pin BLAS/OpenMP threads and put the checkout's ``src`` first on the
    path.  Must run before numpy is imported.  Returns an error message when
    the checkout holds no pdopt source, else None."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "pdopt" / "__init__.py").is_file():
        return f"no pdopt source under {src}; run from the root of a pdopt checkout"
    sys.path.insert(0, str(src))
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    error = prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
