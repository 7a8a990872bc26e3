"""Deterministic random-stream derivation.

Every stochastic site in the simulator draws from its own generator, derived
from (master_seed, purpose, *indices). Streams are independent of execution
order and worker count, so results only depend on the master seed.

The SeedSequence key is a uint32 array of words: the master seed mod 2**32,
the crc32 of the purpose tag (computed once per tag), then each index mod
2**32. SeedSequence reads a list of Python ints below 2**32 as those same
words, so its pool, and the PCG64 state built from it, equal those of
`np.random.default_rng(SeedSequence([...]))` on the list; only the cost of
building the key and the generator is less.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

_WORD = 0xFFFFFFFF


@functools.lru_cache(maxsize=256)
def _purpose_crc(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8"))


def stream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Return a generator unique to (master_seed, purpose, indices).

    The purpose tag is hashed with crc32, which is stable across processes
    and platforms (unlike the builtin hash).
    """
    key = [int(master_seed) & _WORD, _purpose_crc(purpose)]
    key.extend(int(i) & _WORD for i in indices)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(np.array(key, dtype=np.uint32))))
