"""Reference implementations that the tests hold the package to, each
written once: the plain loop or formula that the stacked, blocked or
batched code must reproduce. Of the package an oracle reads only the
builders of its inputs (`rng.stream`, `data.synth_blobs`,
`data.load_idx`) and the value types it is handed: an oracle that called
the code it checks would agree with any mistake in it.
`tests/test_surface.py` enforces this.
"""

import math
import zlib
from collections import namedtuple
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from fedtruth.data import DataSource, Dataset, load_idx, synth_blobs
from fedtruth.rng import stream
from fedtruth.training import ModelKind
from fedtruth.truth import CoefficientFunction
from fedtruth.vectors import DistanceKind


# -- distances, weighted sums and the estimator as row loops -----------------

def _norm(x):
    return math.sqrt(x.dot(x))


def row_distance_from(kind, u):
    """The distance of `kind` from u, as a function of one other vector."""
    if kind is DistanceKind.EUCLIDEAN:
        return lambda v: _norm(u - v)
    if kind is DistanceKind.MANHATTAN:
        return lambda v: float(np.abs(u - v).sum())
    nu = _norm(u)
    uu = u / nu if nu != 0.0 else u

    def cosine(v):
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 1.0
        return 1.0 - float(np.dot(u, v) / (nu * nv))

    def angular(v):
        nv = _norm(v)
        if nu == 0.0 or nv == 0.0:
            return 0.5
        vv = v / nv
        return 2.0 * math.atan2(_norm(uu - vv), _norm(uu + vv)) / math.pi

    if kind is DistanceKind.COSINE:
        return cosine
    if kind is DistanceKind.ANGULAR:
        return angular
    return lambda v: 0.5 * angular(v) + 0.5 * _norm(u - v)


def row_distances(kind, u, X):
    formula = row_distance_from(kind, u)
    return np.array([formula(x) for x in X])


def row_weighted_sum(X, w):
    acc = np.zeros(X.shape[1])
    for k in range(len(X)):
        acc += w[k] * X[k]
    return acc


def row_shares(dist, g):
    """p_k: d_k (sqrt(d_k) under 1/p, a negative rounding of 1 - cos read
    as 0) over their sum, or 1/n when that sum is not positive; then
    floored at 1e-12 and renormalised."""
    if g is CoefficientFunction.INVERSE:
        dist = np.array([math.sqrt(max(x, 0.0)) for x in dist])
    total = dist.sum()
    if total <= 0.0:
        p = [1.0 / len(dist)] * len(dist)
    else:
        p = [x / total for x in dist]
    p = np.array([max(x, 1e-12) for x in p])
    return p / p.sum()


def row_weights(p, g):
    """a_k = g(p_k) / sum_j g(p_j), uniform when every g(p_k) is 0."""
    raw = 1.0 / p if g is CoefficientFunction.INVERSE else -np.log(p)
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(p), 1.0 / len(p))
    return raw / total


class OracleNonFinite(Exception):
    def __init__(self, iteration):
        self.iteration = iteration


RowEstimate = namedtuple(
    "RowEstimate", "truth weights performances iterations converged")


def row_estimate_truth(X, cfg):
    """The estimator as row loops; raises OracleNonFinite with the first
    iteration whose weights are not all finite."""
    n = len(X)
    truth = row_weighted_sum(X, np.full(n, 1.0 / n))
    g = cfg.coefficient
    converged, iterations = False, 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        w = row_weights(row_shares(row_distances(cfg.distance, truth, X), g),
                        g)
        if not all(math.isfinite(x) for x in w):
            raise OracleNonFinite(iterations)
        new_truth = row_weighted_sum(X, w)
        delta = float(np.linalg.norm(new_truth - truth))
        truth = new_truth
        if delta <= cfg.epsilon:
            converged = True
            break
    p = row_shares(row_distances(cfg.distance, truth, X), g)
    w = row_weights(p, g)
    if not all(math.isfinite(x) for x in w):  # the report's weights
        raise OracleNonFinite(iterations + 1)
    return RowEstimate(truth, w, p, iterations, converged)


# -- one client's model -------------------------------------------------------

def reference_layers(spec, params):
    """A flat parameter vector's layers in their shapes: W (classes,
    features) and b, or W1 (hidden, features), b1, W2 (classes, hidden)
    and b2."""
    f, c, h = spec.n_features, spec.n_classes, spec.hidden_units
    shapes = ([(c, f), (c,)] if spec.kind is ModelKind.LOGREG
              else [(h, f), (h,), (c, h), (c,)])
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(params[offset:offset + size].reshape(shape))
        offset += size
    return out


def reference_softmax(logits):
    """Softmax with both class-axis reductions as numpy reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def reference_forward(spec, params, X):
    """One model's 2-D forward on X (B, features): its probabilities
    (B, classes), from plain 2-D products and `reference_softmax`."""
    if spec.kind is ModelKind.LOGREG:
        W, b = reference_layers(spec, params)
        return reference_softmax(X @ W.T + b)
    W1, b1, W2, b2 = reference_layers(spec, params)
    h = np.maximum(X @ W1.T + b1, 0.0)
    return reference_softmax(h @ W2.T + b2)


def reference_cross_entropy(spec, params, ds):
    """Mean softmax cross-entropy of a model on a dataset, with its true
    class probabilities floored at 1e-15."""
    probs = reference_forward(spec, params, ds.features)
    true = probs[np.arange(len(ds)), ds.labels]
    return float(-np.log(np.maximum(true, 1e-15)).mean())


def reference_train(params, ds, spec, cfg, rng):
    """One client's SGD with 2-D products and its own forward pass: a
    permutation per epoch, reduction-form softmax, fancy-index labels."""
    current = params
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            X, y = ds.features[batch], ds.labels[batch]
            if spec.kind is ModelKind.LOGREG:
                W, b = reference_layers(spec, current)
                g = reference_softmax(X @ W.T + b)
            else:
                W1, b1, W2, b2 = reference_layers(spec, current)
                z1 = X @ W1.T + b1
                h = np.maximum(z1, 0.0)
                g = reference_softmax(h @ W2.T + b2)
            g[np.arange(len(y)), y] -= 1.0
            g /= len(y)
            if spec.kind is ModelKind.LOGREG:
                grad = np.concatenate([(g.T @ X).reshape(-1), g.sum(axis=0)])
            else:
                dz1 = (g @ W2) * (z1 > 0.0)
                grad = np.concatenate([(dz1.T @ X).reshape(-1),
                                       dz1.sum(axis=0),
                                       (g.T @ h).reshape(-1), g.sum(axis=0)])
            current = current - cfg.learning_rate * grad
    return current


# -- baseline aggregators -----------------------------------------------------

def median_reference(updates):
    cols = [sorted(col) for col in np.array(updates).T]
    m = len(cols[0]) // 2
    return np.array([c[m] if len(c) % 2 else (c[m - 1] + c[m]) / 2
                     for c in cols])


def trimmed_mean_reference(updates, trim_k):
    kept = [sorted(col)[trim_k:len(col) - trim_k]
            for col in np.array(updates).T]
    return np.array([sum(k) / len(k) for k in kept])


def krum_bruteforce(updates, f):
    """Krum by its definition: each update's n - f - 2 smallest squared
    distances to the others, summed; the lowest index of the least sum."""
    n = len(updates)
    scores = []
    for i in range(n):
        dists = sorted(np.sum((updates[i] - updates[j]) ** 2)
                       for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return int(np.argmin(scores))


def krum_rows(X, f):
    """Krum's scores from the Gram form of the squared distances, a row
    at a time: each row's distances without its own, sorted, the n - f - 2
    smallest summed. Unlike `krum_bruteforce` it meets overflow as the
    whole-matrix form does."""
    n = len(X)
    sq_norms = np.einsum("ij,ij->i", X, X)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (X @ X.T)
    np.maximum(sq, 0.0, out=sq)
    scores = np.empty(n)
    for i in range(n):
        others = np.delete(sq[i], i)
        others.sort()
        scores[i] = others[:n - f - 2].sum()
    return int(np.argmin(scores))


def fltrust_reference(X, server):
    """FLTrust as a loop over the rows of nonzero norm."""
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
    return row_weighted_sum(normalized, scores / total), scores


def cosine_distances(X):
    """1 - cos of every pair of rows, each pair's cosine the dot of its
    rows scaled to unit length and clipped to [-1, 1]; a zero row has no
    direction, so it lies at 1 from every row."""
    norms = np.linalg.norm(X, axis=1)
    n = len(X)
    dist = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            if norms[i] != 0.0 and norms[j] != 0.0:
                cos = float(np.dot(X[i] / norms[i], X[j] / norms[j]))
                dist[i, j] = 1.0 - min(max(cos, -1.0), 1.0)
    return dist


def majority_cut(dist):
    """Brute-force cut: raise the height through the distinct pairwise
    distances until a component of the graph of edges <= height holds a
    majority; return its members."""
    n = len(dist)
    for height in np.unique(dist[np.triu_indices(n, k=1)]):
        upper = np.triu(dist <= height, k=1)
        adjacent = upper | upper.T
        seen = set()
        for start in range(n):
            if start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                for j in np.flatnonzero(adjacent[frontier.pop()]):
                    if int(j) not in component:
                        component.add(int(j))
                        frontier.append(int(j))
            seen |= component
            if len(component) >= n // 2 + 1:
                return sorted(component)
    raise AssertionError("no majority at the largest height")


def flame_reference(X, noise_factor, rng):
    """FLAME: the majority cut of the cosine distances, then a loop that
    clips the survivors to their median norm, their mean, and the noise."""
    keep = np.array(majority_cut(cosine_distances(X)))
    clipped = X[keep]
    norms = np.linalg.norm(clipped, axis=1)
    median_norm = float(np.median(norms))
    for i in range(len(clipped)):
        if norms[i] > median_norm and norms[i] > 0:
            clipped[i] *= median_norm / norms[i]
    result = clipped.mean(axis=0)
    sigma = noise_factor * median_norm
    if sigma > 0:
        result = result + rng.normal(0.0, sigma, size=result.shape)
    return result, keep


# -- criterion 01: the resilient-averaging gap ------------------------------

def _checked(updates, f: int, aggregate):
    X = np.asarray(updates, dtype=np.float64)
    n = len(X)
    if not 0 <= f < n / 2:
        raise ValueError(f"need 0 <= f < n/2, got f={f}, n={n}")
    pair_dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    return X, pair_dist, np.asarray(aggregate, dtype=np.float64)


def _subsets(n: int, f: int, rng: Optional[np.random.Generator],
             n_samples: int):
    """Every subset of size n - f for n <= 12, else n_samples drawn
    uniformly (from a fixed stream unless rng is supplied)."""
    if n <= 12:
        return combinations(range(n), n - f)
    if rng is None:
        rng = np.random.default_rng(0)
    return (rng.choice(n, size=n - f, replace=False)
            for _ in range(n_samples))


def resilience_gap(updates, f: int, aggregate: np.ndarray,
                   rng: Optional[np.random.Generator] = None,
                   n_samples: int = 1000) -> float:
    """Empirical check of (f, 1)-resilient averaging.

    Over subsets S of size n - f, returns the maximum of
        ||aggregate - mean(S)|| - max_{i,j in S} ||x_i - x_j||.
    All subsets are enumerated for n <= 12; otherwise n_samples subsets are
    drawn uniformly. A non-positive result witnesses the resilience
    inequality on the tested subsets. One (subsets, n - f) index array
    gathers every subset's rows and pairwise distances at once; each
    row's norm is its own BLAS dot, as np.linalg.norm takes it.
    """
    X, pair_dist, aggregate = _checked(updates, f, aggregate)
    S = np.array(list(_subsets(len(X), f, rng, n_samples)), dtype=np.intp)
    means = X[S].mean(axis=1)
    diameters = pair_dist[S[:, :, None], S[:, None, :]].max(axis=(1, 2))
    diff = aggregate - means
    norms = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    return float((norms - diameters).max())


def resilience_gap_loop(updates, f: int, aggregate: np.ndarray,
                        rng: Optional[np.random.Generator] = None,
                        n_samples: int = 1000) -> float:
    """`resilience_gap` one subset at a time."""
    X, pair_dist, aggregate = _checked(updates, f, aggregate)
    worst = -np.inf
    for chosen in _subsets(len(X), f, rng, n_samples):
        idx = np.fromiter(chosen, dtype=np.intp)
        mean_s = X[idx].mean(axis=0)
        diameter = pair_dist[np.ix_(idx, idx)].max()
        gap = float(np.linalg.norm(aggregate - mean_s)) - float(diameter)
        if gap > worst:
            worst = gap
    return worst


# -- random streams and data ------------------------------------------------

def seed_sequence_state(seed, purpose, indices):
    """The PCG64 state that numpy's SeedSequence makes of a stream's key
    words: the seed, the CRC-32 of the purpose and each index, mod 2**32."""
    mask = 2 ** 32 - 1
    key = [seed & mask, zlib.crc32(purpose.encode("utf-8"))]
    key += [int(i) & mask for i in indices]
    return np.random.default_rng(
        np.random.SeedSequence(key)).bit_generator.state


def reference_blobs(n_samples, n_features, n_classes, spread, rng):
    """synth_blobs as one normal() draw per class added to its mean."""
    per_class = np.full(n_classes, n_samples // n_classes)
    per_class[: n_samples % n_classes] += 1
    feats, labels = [], []
    for c in range(n_classes):
        mean = np.zeros(n_features)
        mean[c] = 1.0
        count = int(per_class[c])
        feats.append(mean + rng.normal(0.0, spread, size=(count, n_features)))
        labels.append(np.full(count, c))
    return np.clip(np.concatenate(feats), 0.0, 1.0), np.concatenate(labels)


def subset(ds: Dataset, rows) -> Dataset:
    """The rows `rows` of `ds`, in order, as a new Dataset."""
    idx = np.asarray(rows, dtype=np.intp)
    return Dataset(ds.features[idx], ds.labels[idx], ds.n_classes)


def partition_reference(ds: Dataset, n_clients: int, bias: float,
                        samples_per_client: int, rng: np.random.Generator,
                        rows: np.ndarray) -> List[Dataset]:
    """The label-skew partition of the pool rows `rows`: client c's
    primary label is c mod n_classes, each of its rows has that label with
    probability `bias` and another label uniformly otherwise, and each
    label's rows are drawn from the pool, with replacement only when the
    pool has too few. Each shard is copied out of the whole pool `ds`."""
    kept = ds.labels[rows]
    pools = [rows[kept == c] for c in range(ds.n_classes)]
    shards = []
    for client in range(n_clients):
        primary = client % ds.n_classes
        others = [c for c in range(ds.n_classes) if c != primary]
        n_primary = int((rng.random(samples_per_client) < bias).sum())
        counts = {primary: n_primary}
        if samples_per_client - n_primary > 0:
            for j in rng.choice(len(others),
                                size=samples_per_client - n_primary):
                c = others[int(j)]
                counts[c] = counts.get(c, 0) + 1
        drawn = [rng.choice(pools[c], size=k, replace=pools[c].size < k)
                 for c, k in counts.items() if k]
        shards.append(subset(ds, np.concatenate(drawn)))
    return shards


def run_data_reference(cfg) -> Tuple[List[Dataset], Optional[Dataset]]:
    """A run's client shards and FLTrust root set (None under any other
    aggregator), from the whole training pool: the root drawn first and
    copied out, the shards drawn from the rows left."""
    seed, ds_cfg = cfg.master_seed, cfg.dataset
    if ds_cfg.source is DataSource.SYNTH:
        s = ds_cfg.synth
        pool = synth_blobs(s.n_train, s.n_features, s.n_classes, s.spread,
                           stream(seed, "data-train"))
    else:
        pool = load_idx(ds_cfg.idx.train_images, ds_cfg.idx.train_labels)
    root, rows = None, np.arange(len(pool))
    if cfg.aggregator.kind == "fltrust":
        n_root = max(1, int(cfg.fltrust_root_fraction * len(pool)))
        root_idx = stream(seed, "root").choice(len(pool), size=n_root,
                                               replace=False)
        mask = np.ones(len(pool), dtype=bool)
        mask[root_idx] = False
        root, rows = subset(pool, root_idx), np.flatnonzero(mask)
    return partition_reference(pool, cfg.fl.total_clients,
                               ds_cfg.noniid_bias, ds_cfg.samples_per_client,
                               stream(seed, "partition"), rows), root
