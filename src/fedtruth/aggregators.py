"""Baseline robust aggregators: FedAvg, Krum, median, trimmed mean,
FLTrust, and a cluster/clip/noise pipeline in the style of FLAME.

All functions take the round's updates as one (n, d) update matrix or a
list of equal-length flat vectors, and are pure except `flame`, which
consumes an explicit random stream for its noise stage.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .vectors import Updates, update_matrix, weighted_sum


def fedavg(updates: Updates, sample_counts: Sequence[int]) -> np.ndarray:
    """Sample-count weighted average, a_k = n_k / sum(n)."""
    counts = np.asarray(sample_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("total sample count must be positive")
    return weighted_sum(updates, counts / total)


def krum_select(updates: Updates, f: int) -> int:
    """Index of the update with the smallest sum of squared distances to
    its n - f - 2 nearest neighbours. Ties resolve to the lowest index.
    """
    X = update_matrix(updates)
    n = len(X)
    if f < 0:
        raise ValueError("f must be >= 0")
    if n < f + 3:
        raise ValueError(f"krum needs n >= f + 3, got n={n}, f={f}")
    sq_norms = np.einsum("ij,ij->i", X, X)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    np.maximum(sq, 0.0, out=sq)
    k = n - f - 2
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        others.sort()
        scores[i] = others[:k].sum()
    return int(np.argmin(scores))


def coordinate_median(updates: Updates) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle values."""
    X = update_matrix(updates)
    return np.median(X, axis=0)


def trimmed_mean(updates: Updates, trim_k: int) -> np.ndarray:
    """Per-coordinate mean after dropping the trim_k largest and smallest
    values. Requires 2 * trim_k < n.
    """
    X = update_matrix(updates)
    n = len(X)
    if trim_k < 0:
        raise ValueError("trim_k must be >= 0")
    if 2 * trim_k >= n:
        raise ValueError(f"over-trimming: 2*{trim_k} >= {n}")
    Xs = np.sort(X, axis=0)
    # sequential accumulation in sorted order keeps the reduction
    # order-deterministic (numpy's pairwise mean associates differently)
    acc = np.zeros(X.shape[1])
    for i in range(trim_k, n - trim_k):
        acc += Xs[i]
    return acc / (n - 2 * trim_k)


def default_trim_k(n: int) -> int:
    """Default trim of 20% per side, enough margin for 3-of-10 adversaries."""
    return int(0.2 * n)


def fltrust(updates: Updates,
            server_update: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Trust-score aggregation against a server-trained reference update.

    A client's trust score is the ReLU-clipped cosine similarity of its
    update to the server update; zero-norm updates carry no direction and
    score 0. Each client update is rescaled to the server update's norm,
    then averaged with trust-score weights; returns the aggregate and the
    scores. If every score is zero the aggregate is the server update itself;
    so it is for a zero server update, which no client can align with.
    """
    X = update_matrix(updates)
    server = np.asarray(server_update, dtype=np.float64)
    server_norm = float(np.linalg.norm(server))
    if server_norm == 0.0:
        return server.copy(), np.zeros(len(X))
    norms = np.linalg.norm(X, axis=1)
    scores = np.zeros(len(X))
    normalized = np.zeros_like(X)
    for i in np.flatnonzero(norms > 0.0):
        cos = float(np.dot(X[i], server)) / (norms[i] * server_norm)
        scores[i] = max(0.0, cos)
        normalized[i] = X[i] * (server_norm / norms[i])
    total = scores.sum()
    if total == 0.0:
        return server.copy(), scores
    return weighted_sum(normalized, scores / total), scores


def _cosine_distance_matrix(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = X / safe[:, None]
    sim = unit @ unit.T
    # zero vectors have no direction: similarity 0 against everything
    zero = norms == 0.0
    sim[zero, :] = 0.0
    sim[:, zero] = 0.0
    np.fill_diagonal(sim, np.where(zero, 0.0, 1.0))
    return 1.0 - np.clip(sim, -1.0, 1.0)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return self.size[ra]
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return self.size[ra]


def _majority_cluster(dist: np.ndarray, n: int) -> np.ndarray:
    """Single-linkage clustering cut at the smallest height whose largest
    cluster holds a majority (>= floor(n/2) + 1); returns member indices.

    All edges of equal height merge before the size check, so ties (e.g.
    identical updates at distance 0) form one cluster, not a partial one.
    Only one cluster can hold a majority, so tracking the largest size that
    any merge produced finds it without rescanning the components.
    """
    need = n // 2 + 1
    iu, ju = np.triu_indices(n, k=1)
    heights = dist[iu, ju]
    order = np.argsort(heights, kind="stable")
    uf = _UnionFind(n)
    largest, member = 1, 0  # size of the largest cluster, one of its members
    for pos, e in enumerate(order):
        size = uf.union(int(iu[e]), int(ju[e]))
        if size > largest:
            largest, member = size, int(iu[e])
        next_pos = pos + 1
        if next_pos < len(order) \
                and heights[order[next_pos]] == heights[e]:
            continue
        if largest >= need:
            break
    winner = uf.find(member)
    return np.array([i for i in range(n) if uf.find(i) == winner])


def flame_survivors(updates: Updates) -> np.ndarray:
    """Indices kept by the clustering stage of `flame`."""
    X = update_matrix(updates)
    n = len(X)
    if n < 3:
        raise ValueError(f"flame needs n >= 3, got {n}")
    return _majority_cluster(_cosine_distance_matrix(X), n)


def flame(updates: Updates, noise_factor: float,
          rng: Optional[np.random.Generator] = None
          ) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster, clip, average, noise.

    1. Single-linkage clustering on pairwise cosine distance, keeping the
       first cluster to reach majority size.
    2. Clip each survivor down to the survivors' median L2 norm.
    3. Uniform average of the clipped survivors.
    4. Per-coordinate Gaussian noise, sigma = noise_factor * median norm.

    Returns the aggregate and the survivor indices of step 1.
    """
    X = update_matrix(updates)
    if noise_factor < 0:
        raise ValueError("noise_factor must be >= 0")
    keep = flame_survivors(X)
    survivors = X[keep]
    norms = np.linalg.norm(survivors, axis=1)
    median_norm = float(np.median(norms))
    clipped = survivors.copy()
    for i in range(len(clipped)):
        if norms[i] > median_norm and norms[i] > 0:
            clipped[i] *= median_norm / norms[i]  # scale down only
    result = clipped.mean(axis=0)
    sigma = noise_factor * median_norm
    if sigma > 0:
        if rng is None:
            raise ValueError("flame with noise_factor > 0 needs an rng")
        result = result + rng.normal(0.0, sigma, size=result.shape)
    return result, keep
