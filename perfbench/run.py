"""Round-throughput benchmark of the fedtruth simulator.

    python3 perfbench/run.py                  # every workload, with checks
    python3 perfbench/run.py --trace 1        # per-layer metrics instead
    python3 perfbench/run.py --workload boost --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else: the package is imported
from the `src/` directory next to this one. See README.md in this
directory for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    # BLAS threads are fixed before numpy loads: one thread, because every
    # matrix here is small and a second thread only adds run-to-run spread
    # on a shared machine. The count used is reported with each result.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "fedtruth" / "__init__.py").is_file():
        print(f"error: no fedtruth package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness
    sys.exit(harness.main())
