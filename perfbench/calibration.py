"""A fixed reference kernel, timed between rounds, that gives the speed the
core ran at while a pass ran.

The virtual machines this benchmark runs on share their cores with other
tenants. While those are busy the same instructions take up to 1.8x as
long, in phases that last from under a second to minutes; CPU time grows
with wall time, so the process is not waiting, the core is slower. Ten
runs of the same code then spread by 20-60% of their median, far more
than any change worth measuring.

The kernel below is the benchmark's own numpy code; it calls nothing in
`fedtruth`. It is built like a simulator round at small scale: many
different numpy entry points on 42-wide vectors (median, norm, log,
argsort, clip, where, exp, a permutation), then MLP-shaped matrix
products. A kernel made of few entry points, or timed with cold caches,
tracked the host's phases far less well. At every round boundary, outside
the round's own interval, the kernel runs twice and the second run is
timed, so the time does not depend on what the round before left in the
caches. The harness multiplies each round's time by `REFERENCE_S` over
the mean of the kernel times at its two ends, so every time it reports is
the time the round would take on a core where the kernel takes
`REFERENCE_S`. A change to the program moves its rounds and not the
kernel, so it moves the reported times in full.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# About the kernel's time on the 2-vCPU Xeon virtual machine the benchmark
# was built on, in the fastest phases seen there.
REFERENCE_S = 0.4e-3

_rng = np.random.default_rng(0)
_U = _rng.standard_normal((10, 42))            # one round's updates
_X = _rng.standard_normal((60, 42))            # one client's shard
_Y = (_rng.random(60) < 0.5).astype(float)
_ROWS = np.arange(60)
_H = _rng.standard_normal((32, 200))           # an MLP batch
_W1 = 0.1 * _rng.standard_normal((200, 32))
_W2 = 0.1 * _rng.standard_normal((32, 10))


def _kernel() -> float:
    acc = 0.0
    for _ in range(3):
        centre = np.median(_U, axis=0)
        dist = np.linalg.norm(_U - centre, axis=1)
        weights = -np.log(dist / dist.sum())
        weights /= weights.sum()
        order = np.argsort(dist)
        clipped = np.clip(_U, -1.0, 1.0)
        mean = np.where(clipped > 0, clipped, 0.0).mean(axis=0)
        prob = 1.0 / (1.0 + np.exp(-(_X @ mean)))
        grad = _X.T @ (prob - _Y)
        batch = _X[_rng.permutation(_ROWS)[:32]]
        acc += float(grad @ grad) + float(order[0]) \
            + float(np.sqrt(weights).sum()) + float(batch.sum())
    for _ in range(12):
        hidden = np.maximum(_H @ _W1, 0.0)
        acc += float((hidden.T @ (hidden @ _W2)).sum())
    return acc


def burst() -> float:
    """Wall time of the second of two back-to-back kernel runs."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def run_factor(bursts: List[float]) -> float:
    """Factor from a run's times to reference-core times."""
    return REFERENCE_S / statistics.median(bursts)


def round_factors(bursts: List[float]) -> np.ndarray:
    """Per round, the factor from the kernel times at its two ends:
    bursts[k] ran just before round k and bursts[k + 1] just after it."""
    b = np.asarray(bursts)
    return REFERENCE_S / (0.5 * (b[:-1] + b[1:]))
