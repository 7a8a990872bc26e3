"""Weighted sums and distances of flat parameter vectors and update sets.

A parameter vector is a 1-D float64 numpy array: a whole model or update,
laid out as `ModelSpec.layer_shapes()` lists its layers. An update set is
one (n, d) float64 array with one update per row; `update_matrix` turns a
list of equal-length vectors into one and checks it, once. The estimator
and the aggregators loop over its rows; per-layer code takes column blocks.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

Updates = Union[np.ndarray, Sequence[np.ndarray]]


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


def weighted_sum(updates: Updates, weights: Sequence[float]) -> np.ndarray:
    """Element-wise sum of w_k * u_k in ascending index order.

    The explicit loop fixes the summation order so results are bit-identical
    regardless of BLAS threading.
    """
    X = update_matrix(updates)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(X),):
        raise ValueError(f"{len(X)} updates but {w.size} weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    acc = np.zeros(X.shape[1], dtype=np.float64)
    for k in range(len(X)):
        acc += w[k] * X[k]
    return acc


def _norm(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x))  # np.linalg.norm of a vector, sans dispatch


def _distance_from(kind: DistanceKind,
                   u: np.ndarray) -> Callable[[np.ndarray], float]:
    """The distance of `kind` from u, as a function of the other vector:
    the one formula per kind, with what depends on u alone computed once.

    Cosine similarity is 0 when either vector is zero: a zero update
    carries no direction, so treating it as maximally dissimilar distrusts
    it without crashing. Angular distance is arccos(cosine similarity) / pi,
    in [0, 1], computed as 2*atan2(|u^ - v^|, |u^ + v^|)/pi on unit
    vectors: the same angle without the precision loss of arccos near +-1
    (so exactly 0 for parallel vectors) and without clamping the arccos
    argument against float drift. Zero vectors keep the similarity-0
    convention: distance 0.5.
    """
    if kind is DistanceKind.EUCLIDEAN:
        return lambda v: _norm(u - v)
    if kind is DistanceKind.MANHATTAN:
        return lambda v: float(np.abs(u - v).sum())
    nu = _norm(u)
    uu = u / nu if nu != 0.0 else u

    def cosine(v: np.ndarray) -> float:
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 1.0
        return 1.0 - float(np.dot(u, v) / (nu * nv))

    def angular(v: np.ndarray) -> float:
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.5
        vv = v / nv
        return 2.0 * math.atan2(_norm(uu - vv), _norm(uu + vv)) / math.pi

    if kind is DistanceKind.COSINE:
        return cosine
    if kind is DistanceKind.ANGULAR:
        return angular
    if kind is DistanceKind.CUSTOM_HALF_HALF:
        return lambda v: 0.5 * angular(v) + 0.5 * _norm(u - v)
    raise ValueError(f"unknown distance kind: {kind!r}")


def distances_to(kind: DistanceKind, reference: np.ndarray,
                 updates: Updates) -> np.ndarray:
    """Distance from a reference vector to each update (row)."""
    X = update_matrix(updates)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != X.shape[1:]:
        raise ValueError(f"dimension mismatch: {reference.shape} vs "
                         f"updates of shape {X.shape}")
    formula = _distance_from(kind, reference)
    return np.array([formula(x) for x in X])
