"""Datasets: synthetic blobs, IDX files, label-skew partitioning, and
backdoor construction (trigger injection, trigger sharding, edge-case
augmentation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DataSource(Enum):
    SYNTH = "synth"  # synth_blobs
    IDX = "idx"  # load_idx


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples x n_features, float64) with int labels."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must align with feature rows")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], self.n_classes)

    def concat(self, other: "Dataset") -> "Dataset":
        if other.n_features != self.n_features:
            raise ValueError("feature width mismatch")
        return Dataset(np.vstack([self.features, other.features]),
                       np.concatenate([self.labels, other.labels]),
                       max(self.n_classes, other.n_classes))


@dataclass(frozen=True)
class TriggerSpec:
    """Backdoor trigger: pin some feature coordinates, relabel to target."""

    feature_indices: tuple
    trigger_value: float
    target_label: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.feature_indices)
        if len(idx) == 0:
            raise ValueError("trigger needs at least one feature index")
        if len(set(idx)) != len(idx):
            raise ValueError("trigger feature indices must be distinct")
        if min(idx) < 0:
            raise ValueError("trigger feature indices must be >= 0")
        object.__setattr__(self, "feature_indices", idx)


@dataclass(frozen=True)
class PartitionPlan:
    """Label-skew plan: equal-size clients, primary labels round-robin."""

    n_clients: int
    bias: float
    samples_per_client: int

    def __post_init__(self):
        if self.n_clients < 1 or self.samples_per_client < 1:
            raise ValueError("n_clients and samples_per_client must be >= 1")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")

    def primary_label(self, client: int, n_classes: int) -> int:
        return client % n_classes


def synth_blobs(n_samples: int, n_features: int, n_classes: int,
                spread: float, rng: np.random.Generator) -> Dataset:
    """Balanced Gaussian blobs with class means on simplex vertices.

    Class c is centred on the one-hot vector e_c with isotropic standard
    deviation `spread`; samples are clamped to [0, 1]. Requires
    n_features >= n_classes so every class gets its own vertex.
    """
    if n_samples < 1 or n_features < 1 or n_classes < 2:
        raise ValueError("sizes must be positive (n_classes >= 2)")
    if not spread > 0:
        raise ValueError("spread must be > 0")
    if n_features < n_classes:
        raise ValueError("need n_features >= n_classes for simplex means")
    per_class = np.full(n_classes, n_samples // n_classes)
    per_class[: n_samples % n_classes] += 1
    feats = np.empty((n_samples, n_features))
    labels = np.empty(n_samples, dtype=np.int64)
    row = 0
    for c in range(n_classes):
        count = int(per_class[c])
        # the bits of mean + rng.normal(0.0, spread, ...), drawn in place:
        # normal() computes 0.0 + spread * z, and the + 0.0 keeps its
        # sign of zero
        block = feats[row:row + count]
        rng.standard_normal(out=block)
        block *= spread
        block += 0.0
        block[:, c] += 1.0
        labels[row:row + count] = c
        row += count
    np.clip(feats, 0.0, 1.0, out=feats)
    return Dataset(feats, labels, n_classes)


def _read_be32(fh) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ValueError("truncated IDX header")
    return struct.unpack(">I", raw)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (big-endian, magic-tagged).

    Pixel bytes are scaled to [0, 1] by dividing by 255.
    """
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(
                f"bad image magic 0x{magic:08x} in {images_path}")
        count = _read_be32(fh)
        rows = _read_be32(fh)
        cols = _read_be32(fh)
        raw = fh.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise ValueError(f"truncated image data in {images_path}")
        pixels = np.frombuffer(raw, dtype=np.uint8)
    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(
                f"bad label magic 0x{magic:08x} in {labels_path}")
        label_count = _read_be32(fh)
        raw = fh.read(label_count)
        if len(raw) != label_count:
            raise ValueError(f"truncated label data in {labels_path}")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise ValueError(
            f"image count {count} != label count {label_count}")
    feats = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    n_classes = max(2, int(labels.max()) + 1 if labels.size else 2)
    return Dataset(feats, labels, n_classes)


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


def partition_label_skew(ds: Dataset, plan: PartitionPlan,
                         rng: np.random.Generator,
                         rows: Optional[np.ndarray] = None) -> List[Dataset]:
    """Equal-size non-iid client shards via a label-skew bias.

    Each client's samples are drawn per-point: with probability `bias` from
    its primary label, otherwise uniformly from the other labels. Draws are
    without replacement within a client where the class pool allows it.
    `rows`, ascending row indices of `ds`, limits the draw to those rows:
    the shards of `ds.subset(rows)`, gathered without that copy.
    """
    if rows is None:
        rows = np.arange(len(ds))
    kept = ds.labels[rows]
    pools = [rows[kept == c] for c in range(ds.n_classes)]
    for c, pool in enumerate(pools):
        if pool.size == 0:
            raise ValueError(f"class {c} has no samples to draw from")
    shards = []
    for client in range(plan.n_clients):
        primary = plan.primary_label(client, ds.n_classes)
        others = [c for c in range(ds.n_classes) if c != primary]
        take_primary = rng.random(plan.samples_per_client) < plan.bias
        n_primary = int(take_primary.sum())
        counts = {primary: n_primary}
        if plan.samples_per_client - n_primary > 0:
            drawn = rng.choice(len(others),
                               size=plan.samples_per_client - n_primary)
            for j in drawn:
                c = others[int(j)]
                counts[c] = counts.get(c, 0) + 1
        drawn_rows = []
        for c, k in counts.items():
            if k == 0:
                continue
            pool = pools[c]
            drawn_rows.append(rng.choice(pool, size=k, replace=pool.size < k))
        shards.append(ds.subset(np.concatenate(drawn_rows)))
    return shards


def apply_trigger(ds: Dataset, trig: TriggerSpec, fraction: float,
                  rng: np.random.Generator) -> Tuple[Dataset, np.ndarray]:
    """Poison a fraction of rows: pin trigger features, relabel to target.

    Returns the poisoned copy and the indices of the poisoned rows.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if max(trig.feature_indices) >= ds.n_features:
        raise ValueError("trigger index outside feature range")
    if not 0 <= trig.target_label < ds.n_classes:
        raise ValueError("target label outside class range")
    n_poison = int(round(fraction * len(ds)))
    if n_poison == 0:
        return Dataset(ds.features.copy(), ds.labels.copy(),
                       ds.n_classes), np.empty(0, dtype=np.intp)
    chosen = np.sort(rng.choice(len(ds), size=n_poison, replace=False))
    feats = ds.features.copy()
    labels = ds.labels.copy()
    feats[np.ix_(chosen, list(trig.feature_indices))] = trig.trigger_value
    labels[chosen] = trig.target_label
    return Dataset(feats, labels, ds.n_classes), chosen


def backdoor_eval_set(ds: Dataset, trig: TriggerSpec) -> Dataset:
    """Triggered evaluation split: rows whose true label is not the target,
    with the full trigger applied and the original labels kept.

    Backdoor accuracy is then the fraction of these rows classified as the
    target label; rows already labelled target are excluded so they cannot
    inflate the figure.
    """
    keep = np.flatnonzero(ds.labels != trig.target_label)
    if keep.size == 0:
        raise ValueError("no rows with label != target_label")
    feats = ds.features[keep].copy()
    feats[:, list(trig.feature_indices)] = trig.trigger_value
    return Dataset(feats, ds.labels[keep].copy(), ds.n_classes)


class BackdoorFlavor(Enum):  # how an adversary poisons its shard
    TRIGGER = "trigger"  # apply_trigger
    DBA = "dba"  # dba_shards, then apply_trigger
    EDGE = "edge"  # edge_case_augment


def dba_shards(trig: TriggerSpec, n_adversaries: int) -> List[TriggerSpec]:
    """Split a trigger into contiguous per-adversary shards.

    The shards are disjoint, cover the full index set, and differ in size by
    at most one; each keeps the trigger value and target label. The backdoor
    test set still applies the full trigger.
    """
    if n_adversaries < 1:
        raise ValueError("n_adversaries must be >= 1")
    idx = list(trig.feature_indices)
    if len(idx) < n_adversaries:
        raise ValueError(
            f"{len(idx)} trigger indices cannot cover {n_adversaries} shards")
    parts = np.array_split(np.asarray(idx), n_adversaries)
    return [TriggerSpec(tuple(int(i) for i in part),
                        trig.trigger_value, trig.target_label)
            for part in parts]


def edge_label_mask(edge_ds: Dataset, n_classes: int) -> np.ndarray:
    """Boolean mask over the class ids below max(n_classes, the pool's):
    True for each label the edge pool holds."""
    mask = np.zeros(max(n_classes, edge_ds.n_classes), dtype=bool)
    mask[edge_ds.labels] = True
    return mask


def edge_case_augment(client_ds: Dataset, edge_ds: Dataset, ratio: float,
                      rng: np.random.Generator,
                      pool_labels: np.ndarray) -> Dataset:
    """Append edge-case rows sized relative to the matching benign rows.

    Counts the client's rows whose label appears in the edge pool and
    appends floor(ratio * count) edge rows, drawn without replacement when
    the pool is large enough. `pool_labels` is the pool's
    `edge_label_mask` over at least the client's classes, built once per
    pool by the caller.
    """
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    if ratio == 0:
        return client_ds
    if len(edge_ds) == 0:
        raise ValueError("edge pool is empty")
    matches = int(np.count_nonzero(pool_labels[client_ds.labels]))
    n_extra = int(ratio * matches)
    if n_extra == 0:
        return client_ds
    chosen = rng.choice(len(edge_ds), size=n_extra,
                        replace=len(edge_ds) < n_extra)
    return client_ds.concat(edge_ds.subset(chosen))
