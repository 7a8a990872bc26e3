"""Weighted sums and distances of flat parameter vectors and update sets.

A parameter vector is a 1-D float64 numpy array: a whole model or update,
laid out as `ModelSpec.layer_shapes()` lists its layers. An update set is
one (n, d) float64 array with one update per row; `update_matrix` turns a
list of equal-length vectors into one and checks it, once. Per-layer code
takes column blocks of it.

Distances and weighted sums work on all rows at once, in row blocks of at
most BLOCK_ELEMENTS elements, and are bit-identical to computing them one
row at a time: each row's dot product is the BLAS dot that `x.dot(x)` calls,
and a weighted sum adds the rows in ascending order from 0.0. `UpdateRows`
keeps what only the rows determine (norms, unit rows, a work buffer and
its views), so a caller that measures against many references, as the
estimator does in every iteration, computes it once and can pass `out=`.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

Updates = Union[np.ndarray, Sequence[np.ndarray]]

# Stacked row work (local training, distances, weighted sums) handles at
# most this many elements per block of rows (9 rows at d = 6762). The bound
# keeps the temporaries cache-sized: a whole 100-client roster at d = 6762
# in one training block raised peak memory by about 30% for no speed gain,
# and one unblocked weighted sum at 1000 x 10^4 was 2.5x slower.
BLOCK_ELEMENTS = 2 ** 16


class DistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    COSINE = "cosine"
    ANGULAR = "angular"
    CUSTOM_HALF_HALF = "custom"


# The members as module names: under Python 3.11 each `DistanceKind.X`
# lookup costs about 0.1 µs in `EnumType.__getattr__`, and the estimator
# dispatches on its kind once a pass
_EUCLIDEAN, _MANHATTAN, _COSINE, _ANGULAR, _CUSTOM_HALF_HALF = (
    DistanceKind.EUCLIDEAN, DistanceKind.MANHATTAN, DistanceKind.COSINE,
    DistanceKind.ANGULAR, DistanceKind.CUSTOM_HALF_HALF)


def update_matrix(updates: Updates) -> np.ndarray:
    """The update set as a non-empty (n, d) float64 array; one that already
    is (a column block too) comes back as is, without a copy."""
    X = np.asarray(updates, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError(f"need updates of one length, got shape {X.shape}")
    return X


def norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector: np.linalg.norm's value, sans dispatch."""
    return math.sqrt(x.dot(x))


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[k] . B[k] for every row k (B may be one vector for all rows).

    numpy's matmul computes each 1 x d by d x 1 product with the BLAS dot
    that `x.dot(y)` uses, so every entry is bit-identical to the row's own
    dot; einsum('ij,ij->i') is not.
    """
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


class UpdateRows:
    """An update matrix X prepared for repeated stacked work on its rows.

    Row norms and unit rows are computed on first use and kept. One buffer,
    its views made once here, serves every distance and weighted sum: a
    zero row, where the first block's sum starts, then that block's rows;
    later blocks sit a row lower, below the running total. It has `width`
    = max(d, 2) columns: numpy folds an (m, 1) sum over rows into a pairwise
    sum, which would change the order of the additions at d = 1.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        n, d = X.shape
        block = max(1, BLOCK_ELEMENTS // d)
        self.width = max(d, 2)
        self._buf = np.zeros((min(block, n) + 1 + (n > block), self.width))
        self._dots = np.empty(n)
        # per row block: its rows of X, the buffer rows its sum adds and
        # their d product columns, and `_row_dots(part, part)` as (m, 1, d)
        # and (m, d, 1) operands and the (m, 1, 1) dots it fills
        self._blocks = []
        for lo in range(0, n, block):
            rows = slice(lo, lo + block)
            top = min(lo, 1)
            summed = self._buf[top:top + min(block, n - lo) + 1]
            part = summed[1:, :d]
            self._blocks.append((rows, X[rows], summed, part,
                                 part[:, None, :], part[..., None],
                                 self._dots[rows, None, None]))

    def __len__(self) -> int:
        return len(self.X)

    @cached_property
    def norms(self) -> np.ndarray:
        return np.sqrt(_row_dots(self.X, self.X))

    @cached_property
    def units(self) -> np.ndarray:
        """Rows scaled to unit length; zero rows stay zero."""
        nv = self.norms[:, None]
        return np.divide(self.X, nv, out=np.zeros_like(self.X),
                         where=nv != 0.0)

    def weighted_sum(self, w: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_k w[k] * X[k], adding the rows in ascending order from 0.0,
        as a loop of `acc += w[k] * X[k]` would, in `out` (`width` entries)
        if given; its first d entries are returned. Weights are unchecked."""
        acc = np.empty(self.width) if out is None else out
        for rows, X, summed, part, *_ in self._blocks:
            if rows.start:
                self._buf[1] = acc  # the blocks above
            np.multiply(w[rows, None], X, out=part)
            np.add.reduce(summed, axis=0, out=acc)
        return acc[:self.X.shape[1]]

    def distances(self, kind: DistanceKind, u: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """Distance of `kind` from u to every row, in `out` when it is
        given; see `distances_to`."""
        out = np.empty(len(self.X)) if out is None else out
        if kind is _EUCLIDEAN:
            return np.sqrt(self._block_dots(np.subtract, u), out=out)
        if kind is _COSINE:
            return self._cosine(u, out)
        if kind is _MANHATTAN:
            for rows, X, _, part, *_ in self._blocks:
                np.subtract(u, X, out=part)
                np.add.reduce(np.abs(part, out=part), axis=1, out=out[rows])
            return out
        if kind is _ANGULAR:
            return self._angular(u, out)
        if kind is _CUSTOM_HALF_HALF:
            return np.add(0.5 * self._angular(u, out), 0.5 * np.sqrt(
                self._block_dots(np.subtract, u)), out=out)
        raise ValueError(f"unknown distance kind: {kind!r}")

    def _block_dots(self, op, u: np.ndarray, units=False) -> np.ndarray:
        """|op(u, v)|^2 for every row v of X, or with `units` of the unit
        rows: the dots buffer, which the next call overwrites."""
        for rows, X, _, part, lhs, rhs, dots in self._blocks:
            op(u, self.units[rows] if units else X, out=part)
            np.matmul(lhs, rhs, out=dots)
        return self._dots

    def _cosine(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        nu = norm(u)
        if nu == 0.0:
            out.fill(1.0)
            return out
        nv = self.norms
        out.fill(0.0)  # the similarity of a zero row
        np.divide(_row_dots(self.X, u), nu * nv, out=out, where=nv != 0.0)
        return np.subtract(1.0, out, out=out)

    def _angular(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        nu = norm(u)
        if nu == 0.0:
            out.fill(0.5)
            return out
        uu = u / nu
        apart = np.sqrt(self._block_dots(np.subtract, uu, units=True))
        along = np.sqrt(self._block_dots(np.add, uu, units=True))
        # math.atan2 per row: numpy's arctan2 may take a SIMD path whose
        # results are not known to match it bit for bit
        out[:] = [2.0 * math.atan2(a, b) / math.pi
                  for a, b in zip(apart.tolist(), along.tolist())]
        out[self.norms == 0.0] = 0.5
        return out


def weighted_sum(updates: Updates, weights: Sequence[float]) -> np.ndarray:
    """Element-wise sum of w_k * u_k in ascending index order.

    The fixed summation order makes results bit-identical regardless of
    BLAS threading.
    """
    X = update_matrix(updates)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(X),):
        raise ValueError(f"{len(X)} updates but {w.size} weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return UpdateRows(X).weighted_sum(w)


def distances_to(kind: DistanceKind, reference: np.ndarray,
                 updates: Union[Updates, UpdateRows],
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Distance from a reference vector u to each update (row) v.

    Cosine similarity is 0 when either vector is zero: a zero update
    carries no direction, so treating it as maximally dissimilar distrusts
    it without crashing. Angular distance is arccos(cosine similarity) / pi,
    in [0, 1], computed as 2*atan2(|u^ - v^|, |u^ + v^|)/pi on unit
    vectors: the same angle without the precision loss of arccos near +-1
    (so exactly 0 for parallel vectors) and without clamping the arccos
    argument against float drift. Zero vectors keep the similarity-0
    convention: distance 0.5. The custom kind is half angular plus half
    Euclidean.

    The distances are written into `out`, a float64 vector of one entry
    per update, when it is given, and into a fresh array otherwise. With
    `updates` given as UpdateRows, `reference` must already be a float64
    vector of the row length; it is not checked again.
    """
    if isinstance(updates, UpdateRows):
        return updates.distances(kind, reference, out)
    rows = UpdateRows(update_matrix(updates))
    u = np.asarray(reference, dtype=np.float64)
    if u.shape != rows.X.shape[1:]:
        raise ValueError(f"dimension mismatch: {u.shape} vs "
                         f"updates of shape {rows.X.shape}")
    return rows.distances(kind, u, out)
