"""Test-side code that the package itself never runs.

- `resilience_gap`: criterion 01's oracle for the resilient-averaging
  bound, batched over every client subset of an instance at once;
- `resilience_gap_loop`: the same gap one subset at a time, the
  reference that the batched form must equal bit for bit;
- `save_idx`: an IDX file writer, the inverse of `data.load_idx`, for
  fixtures;
- `subset`: some rows of a Dataset, copied out;
- `partition_reference` and `run_data_reference`: a run's shards and
  FLTrust root set gathered as they were before the training pool was
  streamed, out of the whole pool with `subset`.
"""

import struct
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from fedtruth.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, DataSource,
                           Dataset, PartitionPlan, load_idx, synth_blobs)
from fedtruth.rng import stream
from fedtruth.vectors import Updates, _row_dots, update_matrix


def _checked(updates: Updates, f: int, aggregate):
    X = update_matrix(updates)
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


def resilience_gap(updates: Updates, f: int, aggregate: np.ndarray,
                   rng: Optional[np.random.Generator] = None,
                   n_samples: int = 1000) -> float:
    """Empirical check of (f, 1)-resilient averaging.

    Over subsets S of size n - f, returns the maximum of
        ||aggregate - mean(S)|| - max_{i,j in S} ||x_i - x_j||.
    All subsets are enumerated for n <= 12; otherwise n_samples subsets are
    drawn uniformly. A non-positive result witnesses the resilience
    inequality on the tested subsets. One (subsets, n - f) index array
    gathers every subset's rows and pairwise distances at once.
    """
    X, pair_dist, aggregate = _checked(updates, f, aggregate)
    S = np.array(list(_subsets(len(X), f, rng, n_samples)), dtype=np.intp)
    means = X[S].mean(axis=1)
    diameters = pair_dist[S[:, :, None], S[:, None, :]].max(axis=(1, 2))
    diff = aggregate - means
    return float((np.sqrt(_row_dots(diff, diff)) - diameters).max())


def resilience_gap_loop(updates: Updates, f: int, aggregate: np.ndarray,
                        rng: Optional[np.random.Generator] = None,
                        n_samples: int = 1000) -> float:
    """`resilience_gap` one subset at a time."""
    X, pair_dist, aggregate = _checked(updates, f, aggregate)
    worst = -np.inf
    for subset in _subsets(len(X), f, rng, n_samples):
        idx = np.fromiter(subset, dtype=np.intp)
        mean_s = X[idx].mean(axis=0)
        diameter = pair_dist[np.ix_(idx, idx)].max()
        gap = float(np.linalg.norm(aggregate - mean_s)) - float(diameter)
        if gap > worst:
            worst = gap
    return worst


def save_idx(ds: Dataset, images_path, labels_path,
             rows: Optional[int] = None, cols: Optional[int] = None) -> None:
    """Write a dataset as an IDX pair (inverse of load_idx).

    Features must be byte-representable, i.e. multiples of 1/255 in [0, 1].
    Default shape is 1 x n_features per image.
    """
    if rows is None or cols is None:
        rows, cols = 1, ds.n_features
    if rows * cols != ds.n_features:
        raise ValueError("rows * cols must equal n_features")
    pixels = np.rint(ds.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, len(ds), rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, len(ds)))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def subset(ds: Dataset, rows) -> Dataset:
    """The rows `rows` of `ds`, in order, as a new Dataset."""
    idx = np.asarray(rows, dtype=np.intp)
    return Dataset(ds.features[idx], ds.labels[idx], ds.n_classes)


def partition_reference(ds: Dataset, plan: PartitionPlan,
                        rng: np.random.Generator,
                        rows: Optional[np.ndarray] = None) -> List[Dataset]:
    """`data.partition_label_skew`'s draws, each shard copied out of the
    whole pool `ds` with `subset`."""
    if rows is None:
        rows = np.arange(len(ds))
    kept = ds.labels[rows]
    pools = [rows[kept == c] for c in range(ds.n_classes)]
    shards = []
    for client in range(plan.n_clients):
        primary = plan.primary_label(client, ds.n_classes)
        others = [c for c in range(ds.n_classes) if c != primary]
        n_primary = int((rng.random(plan.samples_per_client)
                         < plan.bias).sum())
        counts = {primary: n_primary}
        if plan.samples_per_client - n_primary > 0:
            for j in rng.choice(len(others),
                                size=plan.samples_per_client - n_primary):
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
    root, rows = None, None
    if cfg.aggregator.kind == "fltrust":
        n_root = max(1, int(cfg.fltrust_root_fraction * len(pool)))
        root_idx = stream(seed, "root").choice(len(pool), size=n_root,
                                               replace=False)
        mask = np.ones(len(pool), dtype=bool)
        mask[root_idx] = False
        root, rows = subset(pool, root_idx), np.flatnonzero(mask)
    plan = PartitionPlan(cfg.fl.total_clients, ds_cfg.noniid_bias,
                         ds_cfg.samples_per_client)
    return partition_reference(pool, plan, stream(seed, "partition"),
                               rows), root
