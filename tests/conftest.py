"""Pin the BLAS thread pools to one thread before numpy loads.

With OpenBLAS's default thread pool on a small shared host, single calls
such as Krum's pairwise distances at n = 100 sometimes stall for tens of
milliseconds, which makes timing checks (criterion 13) flaky. One thread
makes the timings repeatable; results do not depend on the thread count.
An explicit setting in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
