"""Weighted sums and distances of flat parameter vectors.

A parameter vector is a 1-D float64 numpy array: a whole model or update,
laid out as `ModelSpec.layer_shapes()` lists its layers. Every trainer,
attack and aggregator in this package trades in them; per-layer code
slices them by layer size.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class DistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    COSINE = "cosine"
    ANGULAR = "angular"
    CUSTOM_HALF_HALF = "custom"


def weighted_sum(updates: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Element-wise sum of w_k * u_k in ascending index order.

    The explicit loop fixes the summation order so results are bit-identical
    regardless of BLAS threading.
    """
    if len(updates) == 0:
        raise ValueError("weighted_sum needs at least one update")
    if len(updates) != len(weights):
        raise ValueError(
            f"{len(updates)} updates but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    dim = len(updates[0])
    acc = np.zeros(dim, dtype=np.float64)
    for k in range(len(updates)):
        u = np.asarray(updates[k], dtype=np.float64)
        if u.shape != (dim,):
            raise ValueError(
                f"update {k} has shape {u.shape}, expected ({dim},)")
        acc += w[k] * u
    return acc


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; defined as 0 when either vector is zero.

    A zero update carries no direction, so treating it as maximally
    dissimilar (similarity 0) distrusts it without crashing.
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _angular(u: np.ndarray, v: np.ndarray) -> float:
    """arccos(cosine similarity) / pi, in [0, 1].

    Computed as 2*atan2(|u^ - v^|, |u^ + v^|)/pi on unit vectors, which is
    the same angle without the precision loss of arccos near +-1 (and so is
    exactly 0 for parallel vectors); the arccos argument would otherwise
    need clamping to [-1, 1] against float drift. Zero vectors keep the
    similarity-0 convention: angle pi/2, distance 0.5.
    """
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.5
    uu = u / nu
    vv = v / nv
    angle = 2.0 * math.atan2(float(np.linalg.norm(uu - vv)),
                             float(np.linalg.norm(uu + vv)))
    return angle / math.pi


def distance(kind: DistanceKind, u, v) -> float:
    """Distance between two equal-length parameter vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if kind is DistanceKind.EUCLIDEAN:
        return float(np.linalg.norm(u - v))
    if kind is DistanceKind.MANHATTAN:
        return float(np.abs(u - v).sum())
    if kind is DistanceKind.COSINE:
        return 1.0 - cosine_similarity(u, v)
    if kind is DistanceKind.ANGULAR:
        return _angular(u, v)
    if kind is DistanceKind.CUSTOM_HALF_HALF:
        return 0.5 * _angular(u, v) + 0.5 * float(np.linalg.norm(u - v))
    raise ValueError(f"unknown distance kind: {kind!r}")


def distances_to(kind: DistanceKind, reference: np.ndarray,
                 updates: Iterable[np.ndarray]) -> np.ndarray:
    """Distance from a reference vector to each update."""
    return np.array([distance(kind, reference, u) for u in updates])
