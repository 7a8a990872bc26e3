"""Baseline robust aggregators: FedAvg, Krum, median, trimmed mean,
FLTrust, and a cluster/clip/noise pipeline in the style of FLAME.

All functions take the round's updates as one (n, d) update matrix or a
list of equal-length flat vectors, and are pure except `flame`, which
consumes an explicit random stream for its noise stage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .vectors import Updates, _row_dots, update_matrix, weighted_sum


def fedavg(updates: Updates) -> np.ndarray:
    """Uniform average, a_k = 1/n: FedAvg's sample-count weights for
    shards of equal size, which is what every run trains on."""
    X = update_matrix(updates)
    n = len(X)
    return weighted_sum(X, np.full(n, 1.0 / n))


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
    # NaN sorts last, so a row's own entry is never among its n - f - 2
    # nearest: not even when overflow has left NaN or inf in the others
    np.fill_diagonal(sq, np.nan)
    sq.sort(axis=1)
    return int(np.argmin(sq[:, :n - f - 2].sum(axis=1)))


def coordinate_median(updates: Updates) -> np.ndarray:
    """Per-coordinate median; even counts average the two middle values.

    One sort serves both cases: np.median's value, whose partition with
    three kth values costs more than the sort at the simulator's sizes.
    Only the sign of a zero middle value may differ from np.median.
    """
    s = np.sort(update_matrix(updates), axis=0)
    m = len(s) // 2
    return s[m].copy() if len(s) % 2 else (s[m - 1] + s[m]) / 2


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
    m = n - 2 * trim_k
    # the kept rows summed in ascending sorted order from 0.0 (numpy's
    # pairwise mean would associate differently)
    kept = np.sort(X, axis=0)[trim_k:n - trim_k]
    return weighted_sum(kept, np.ones(m)) / m


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
    # one (n, d) buffer: the squares of np.linalg.norm(X, axis=1), then
    # the rows rescaled to the server's norm, dead rows +0.0
    normalized = np.multiply(X, X)
    norms = np.sqrt(np.add.reduce(normalized, axis=1))
    live = norms > 0.0
    row_norms = norms[live]
    scores = np.zeros(len(X))
    cos = _row_dots(X, server)[live] / (row_norms * server_norm)
    scores[live] = np.where(cos > 0.0, cos, 0.0)
    scale = np.zeros(len(X))
    scale[live] = server_norm / row_norms
    np.multiply(X, scale[:, None], out=normalized)
    normalized[~live] = 0.0
    total = scores.sum()
    if total == 0.0:
        return server.copy(), scores
    return weighted_sum(normalized, scores / total), scores


def _cosine_distance_matrix(X: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances of the rows of X, whose L2 norms are
    `norms`."""
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = X / safe[:, None]
    sim = unit @ unit.T
    # zero vectors have no direction: similarity 0 against everything
    zero = norms == 0.0
    sim[zero, :] = 0.0
    sim[:, zero] = 0.0
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


def flame_survivors(updates: Updates,
                    norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices kept by the clustering stage of `flame`. `norms`, the
    rows' L2 norms, is taken here when not given."""
    X = update_matrix(updates)
    n = len(X)
    if n < 3:
        raise ValueError(f"flame needs n >= 3, got {n}")
    if norms is None:
        norms = np.linalg.norm(X, axis=1)
    return _majority_cluster(_cosine_distance_matrix(X, norms), n)


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
    # one set of row norms serves the clustering and the clipping: each
    # row's norm is its own reduction, so indexing them gives the
    # survivors' norms bit for bit
    all_norms = np.linalg.norm(X, axis=1)
    keep = flame_survivors(X, all_norms)
    norms = all_norms[keep]
    survivors = X[keep]
    median_norm = float(np.median(norms))
    over = norms > median_norm  # scale down only
    survivors[over] *= (median_norm / norms[over])[:, None]
    result = survivors.mean(axis=0)
    sigma = noise_factor * median_norm
    if sigma > 0:
        if rng is None:
            raise ValueError("flame with noise_factor > 0 needs an rng")
        result = result + rng.normal(0.0, sigma, size=result.shape)
    return result, keep
