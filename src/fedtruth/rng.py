"""Deterministic random-stream derivation.

Every stochastic site in the simulator draws from its own generator, derived
from (master_seed, purpose, *indices). Streams are independent of execution
order and worker count, so results only depend on the master seed.

The SeedSequence key is a uint32 array of words: the master seed mod 2**32,
the crc32 of the purpose tag (computed once per tag), then each index mod
2**32. SeedSequence reads a list of Python ints below 2**32 as those same
words, so its pool, and the PCG64 state built from it, equal those of
`np.random.default_rng(SeedSequence([...]))` on the list.

Two derivations build that generator, and they give the same one:

- `stream` hashes one key through numpy's SeedSequence. It serves the
  setup streams and the once-per-round ones (roster, flame, fltrust).
- `ClientStreams` serves the per-client streams of a round (`train`,
  `train-benign`, `poison`, `noise`). On first use it hashes the keys of
  every client for a chunk of whole rounds at once: `state_words` is a
  vectorised copy of SeedSequence's `mix_entropy` on the 4-word (seed,
  purpose, round, client) keys, followed by `generate_state(4,
  np.uint64)`, on uint32 arrays. Each generator is then
  `PCG64(StateWords(words))`, so PCG64 takes its four words without
  hashing again.

tests/test_rng.py pins both derivations to numpy's SeedSequence.

Cost model, measured on a 2-vCPU Xeon virtual machine (Python 3.11,
numpy 2.4, best of 7 timing loops): a `stream` call takes about 9.7 us,
4.5 us of it in `generate_state`. A chunk costs about 60 us fixed plus
about 0.05 us per key, so 2**11 keys take about 160 us; larger chunks
cost more per key. Each generator built from a chunk then costs about
1.4 us. A chunk derives the words of every client, rostered or not, so it
pays only when more than about 1% of its keys are drawn. Every shipped
config and every benchmark workload rosters 50% of its clients each
round.
"""

from __future__ import annotations

import functools
import zlib
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_WORD = 0xFFFFFFFF

# SeedSequence's constants: its pool size, which is also the length of a
# (seed, purpose, round, client) key, the mix multipliers and the xor shift
_POOL = 4
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)

# keys per chunk of ClientStreams, which holds at least one round; past
# about 2**11 keys a chunk costs more per key (see the cost model above)
CHUNK_KEYS = 2 ** 11


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


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(2, calls, 1) uint32: the constant each of `calls` successive
    hashmix calls xors its value with, and the one it multiplies by. They
    do not depend on the key."""
    consts, h = [], init
    for _ in range(calls):
        consts.append((h, h * mult & _WORD))
        h = h * mult & _WORD
    out = np.array(consts, dtype=np.uint32).T[:, :, None].copy()
    out.setflags(write=False)
    return out


# the hashmix constants of `mix_entropy` on a 4-word key (A) and of
# `generate_state(4, np.uint64)` (B)
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    out = values ^ consts[0]
    out *= consts[1]
    out ^= out >> _SHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _SHIFT
    return out


def _mix_entropy(keys: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy of each column of the (4, n) uint32 keys:
    the (4, n) pools."""
    pool = _hashmix(keys, _HASH_A[:, :_POOL])
    at = _POOL
    for src in range(_POOL):
        # mixer[src] is not written while it is mixed into the others
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(pool[src], _HASH_A[:, at:at + _POOL - 1])
        pool[dst] = _mix(pool[dst], hashed)
        at += _POOL - 1
    return pool


def _generate_state(pools: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of each column of the
    (4, n) pools, as an (n, 4) uint64 array."""
    state = _hashmix(pools[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    # numpy views the eight uint32 words as four little-endian uint64s
    words = state[1::2].T.astype(np.uint64, order="C")
    words <<= np.uint64(32)
    words |= state[0::2].T
    return words


def state_words(master_seed: int, purpose: str, rounds: Sequence[int],
                clients: Sequence[int]) -> np.ndarray:
    """The four uint64 words that PCG64 takes from the SeedSequence of
    `stream(master_seed, purpose, t, c)`, for every round t of `rounds`
    and client c of `clients`: an array of shape (len(rounds),
    len(clients), 4) whose rows are C-contiguous."""
    # np.asarray of an int past int64 is an object array; masking makes
    # every index a value below 2**32
    rounds = np.asarray(rounds) & _WORD
    clients = np.asarray(clients) & _WORD
    keys = np.empty((_POOL, len(rounds), len(clients)), dtype=np.uint32)
    keys[0] = int(master_seed) & _WORD
    keys[1] = _purpose_crc(purpose)
    keys[2] = rounds[:, None]
    keys[3] = clients
    pools = _mix_entropy(keys.reshape(_POOL, -1))
    return _generate_state(pools).reshape(len(rounds), len(clients), 4)


class StateWords(ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed state words.

    PCG64 asks a seed sequence for `generate_state(4, np.uint64)` once and
    reads the returned array's raw memory, so `words` must be a
    C-contiguous uint64 array of length 4 (a row of `state_words`); any
    other request is refused.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"StateWords holds PCG64's 4 uint64 words; asked for "
                f"{n_words} of {np.dtype(dtype)}")
        return self.words


class ClientStreams:
    """`stream(master_seed, purpose, round, client)` for every round and
    every client id below `n_clients`, derived a chunk of whole rounds at
    a time: the chunk that holds a round is derived when one of its
    generators is first asked for, so rounds may be asked in any order."""

    def __init__(self, master_seed: int, purpose: str, n_clients: int):
        self.master_seed = master_seed
        self.purpose = purpose
        self.n_clients = n_clients
        self.chunk_rounds = max(1, CHUNK_KEYS // n_clients)
        self._first: Optional[int] = None  # first round of the held chunk
        self._words: Optional[np.ndarray] = None  # (rounds, clients, 4)

    def __call__(self, round_index: int, client: int) -> np.random.Generator:
        offset = round_index % self.chunk_rounds
        first = round_index - offset
        if first != self._first:
            self._words = state_words(
                self.master_seed, self.purpose,
                np.arange(first, first + self.chunk_rounds),
                np.arange(self.n_clients))
            self._words.setflags(write=False)
            self._first = first
        return np.random.Generator(np.random.PCG64(
            StateWords(self._words[offset, client])))
