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
keeps what only the rows determine (norms, unit rows, a work buffer), so a
caller that measures against many references, as the estimator does in
every iteration, computes it once.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Sequence, Union

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

    Row norms and unit rows are computed on first use and kept; one buffer,
    a row block plus one row, serves every distance and weighted sum. Its
    first row holds a weighted sum's running total, and it has at least
    2 columns: numpy folds an (m, 1) sum over rows into a pairwise sum,
    which would change the order of the additions at d = 1.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        n, d = X.shape
        block = max(1, BLOCK_ELEMENTS // d)
        self._buf = np.zeros((min(block, n) + 1, max(d, 2)))
        # per row block: its row slice, and d columns of as many buffer rows
        # below the running total
        self._blocks = [(slice(lo, lo + block),
                         self._buf[1:min(block, n - lo) + 1, :d])
                        for lo in range(0, n, block)]

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

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        """sum_k w[k] * X[k], adding the rows in ascending order from 0.0,
        as a loop of `acc += w[k] * X[k]` would; weights are not checked."""
        acc = 0.0
        for rows, part in self._blocks:
            self._buf[0] = acc
            np.multiply(w[rows, None], self.X[rows], out=part)
            acc = np.add.reduce(self._buf[:len(part) + 1], axis=0)
        return acc[:self.X.shape[1]]

    def distances(self, kind: DistanceKind, u: np.ndarray) -> np.ndarray:
        """Distance of `kind` from u to every row; see `distances_to`."""
        if kind is DistanceKind.EUCLIDEAN:
            return np.sqrt(self._block_dots(np.subtract, u, self.X))
        if kind is DistanceKind.MANHATTAN:
            out = np.empty(len(self.X))
            for rows, part in self._blocks:
                np.subtract(u, self.X[rows], out=part)
                out[rows] = np.abs(part, out=part).sum(axis=1)
            return out
        if kind is DistanceKind.COSINE:
            return self._cosine(u)
        if kind is DistanceKind.ANGULAR:
            return self._angular(u)
        if kind is DistanceKind.CUSTOM_HALF_HALF:
            return 0.5 * self._angular(u) \
                + 0.5 * np.sqrt(self._block_dots(np.subtract, u, self.X))
        raise ValueError(f"unknown distance kind: {kind!r}")

    def _block_dots(self, op, u: np.ndarray, V: np.ndarray) -> np.ndarray:
        """|op(u, V[k])|^2 for every row k of V (X or the unit rows)."""
        out = np.empty(len(V))
        for rows, part in self._blocks:
            op(u, V[rows], out=part)
            out[rows] = _row_dots(part, part)
        return out

    def _cosine(self, u: np.ndarray) -> np.ndarray:
        n, nu = len(self.X), norm(u)
        if nu == 0.0:
            return np.ones(n)
        nv = self.norms
        similarity = np.divide(_row_dots(self.X, u), nu * nv,
                               out=np.zeros(n), where=nv != 0.0)
        return 1.0 - similarity

    def _angular(self, u: np.ndarray) -> np.ndarray:
        nu = norm(u)
        if nu == 0.0:
            return np.full(len(self.X), 0.5)
        uu = u / nu
        apart = np.sqrt(self._block_dots(np.subtract, uu, self.units))
        along = np.sqrt(self._block_dots(np.add, uu, self.units))
        # math.atan2 per row: numpy's arctan2 may take a SIMD path whose
        # results are not known to match it bit for bit
        out = np.array([2.0 * math.atan2(a, b) / math.pi
                        for a, b in zip(apart.tolist(), along.tolist())])
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
                 updates: Union[Updates, UpdateRows]) -> np.ndarray:
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

    With `updates` given as UpdateRows, `reference` must already be a
    float64 vector of the row length; it is not checked again.
    """
    if isinstance(updates, UpdateRows):
        return updates.distances(kind, reference)
    rows = UpdateRows(update_matrix(updates))
    u = np.asarray(reference, dtype=np.float64)
    if u.shape != rows.X.shape[1:]:
        raise ValueError(f"dimension mismatch: {u.shape} vs "
                         f"updates of shape {rows.X.shape}")
    return rows.distances(kind, u)
