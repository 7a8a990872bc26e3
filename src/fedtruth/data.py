"""Datasets: synthetic blobs, IDX files, label-skew partitioning, the
run's shard table, and backdoor construction (trigger injection, trigger
sharding, edge-case augmentation).

A training pool is a `PoolStream`: its labels up front and its features
one block at a time (a class block of the blobs, or a run of IDX rows).
The partition draws on the labels alone, so a run reads the stream once,
straight into a table of the distinct rows its clients hold, and never
holds the whole pool. `shard_table` builds that read-only table and
hands each client's shard back as `TableRows`: row ids into it. This
module is the only one that knows that format: `stack_rows` makes every
copy of a shard's rows, for training and for poisoning alike.
`synth_blobs` and `load_idx` read every row of the same streams.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .vectors import BLOCK_ELEMENTS

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DataSource(Enum):
    SYNTH = "synth"  # blob_stream
    IDX = "idx"  # idx_stream


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


@dataclass(frozen=True)
class TableRows:
    """Some rows of a shared table, by row id: a client's shard, or
    FLTrust's root set, held without a copy of its rows. Rows may repeat,
    and shards that drew the same pool row share it. It reads as a
    Dataset does, but `features` and `labels` are fresh copies of its
    rows, made on each read."""

    table: Dataset
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def features(self) -> np.ndarray:
        return self.table.features[self.rows]

    @property
    def labels(self) -> np.ndarray:
        return self.table.labels[self.rows]

    @property
    def n_features(self) -> int:
        return self.table.n_features

    @property
    def n_classes(self) -> int:
        return self.table.n_classes


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


@dataclass(frozen=True)
class PoolStream:
    """A dataset read once, block by block: its labels up front, its
    features as (first row, block) pairs in row order. A block is a view
    of one reused buffer that the next block overwrites, so the whole
    feature matrix is never held."""

    labels: np.ndarray
    n_features: int
    n_classes: int
    blocks: Iterator[Tuple[int, np.ndarray]]

    def __len__(self) -> int:
        return len(self.labels)

    def read(self) -> Dataset:
        """Every row in order, as one Dataset. The stream is spent after."""
        feats = np.empty((len(self), self.n_features))
        for lo, block in self._spend():
            feats[lo:lo + len(block)] = block
        return Dataset(feats, self.labels, self.n_classes)

    def gather(self, rows: np.ndarray) -> Dataset:
        """The rows `rows`, in ascending order, as one table: the bits of
        `read()`'s rows `rows`, without holding every row. Each block's
        rows are taken straight into their place in the table. The stream
        is spent after."""
        rows = np.asarray(rows, dtype=np.intp)
        if np.any(rows[1:] < rows[:-1]):
            raise ValueError("gather needs ascending row ids")
        feats = np.empty((rows.size, self.n_features))
        for lo, block in self._spend():
            a, b = np.searchsorted(rows, (lo, lo + len(block)))
            # the search keeps every index inside the block; mode="raise"
            # would copy the rows through a temporary before writing out
            np.take(block, rows[a:b] - lo, axis=0, out=feats[a:b],
                    mode="clip")
        return Dataset(feats, self.labels[rows], self.n_classes)

    def _spend(self) -> Iterator[Tuple[int, np.ndarray]]:
        end = 0
        for lo, block in self.blocks:
            end = lo + len(block)
            yield lo, block
        if end != len(self):
            raise ValueError(f"pool stream ended at row {end} of "
                             f"{len(self)}: it was read before")


def blob_stream(n_samples: int, n_features: int, n_classes: int,
                spread: float, rng: np.random.Generator) -> PoolStream:
    """Balanced Gaussian blobs with class means on simplex vertices, one
    class block at a time.

    Class c is centred on the one-hot vector e_c with isotropic standard
    deviation `spread`; samples are clamped to [0, 1]. The first
    n_samples % n_classes classes take one extra row. Requires
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
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return PoolStream(labels, n_features, n_classes,
                      _blob_blocks(per_class, n_features, spread, rng))


def _blob_blocks(per_class: np.ndarray, n_features: int, spread: float,
                 rng: np.random.Generator) -> Iterator[Tuple[int, np.ndarray]]:
    buf = np.empty((int(per_class.max()), n_features))
    row = 0
    for c, count in enumerate(per_class):
        # the bits of mean + rng.normal(0.0, spread, ...), drawn in place:
        # normal() computes 0.0 + spread * z, and the + 0.0 keeps its
        # sign of zero
        block = buf[:count]
        rng.standard_normal(out=block)
        block *= spread
        block += 0.0
        block[:, c] += 1.0
        np.clip(block, 0.0, 1.0, out=block)
        yield row, block
        row += count


def synth_blobs(n_samples: int, n_features: int, n_classes: int,
                spread: float, rng: np.random.Generator) -> Dataset:
    """`blob_stream`'s blobs as one Dataset."""
    return blob_stream(n_samples, n_features, n_classes, spread,
                       rng).read()


def _read_be32(fh) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ValueError("truncated IDX header")
    return struct.unpack(">I", raw)[0]


def idx_stream(images_path, labels_path) -> PoolStream:
    """An IDX image/label file pair (big-endian, magic-tagged), read in
    blocks of at most BLOCK_ELEMENTS pixels.

    Both files are checked and read up front; pixel bytes are scaled to
    [0, 1] by dividing by 255 one block at a time.
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
    n_classes = max(2, int(labels.max()) + 1 if labels.size else 2)
    return PoolStream(labels, rows * cols, n_classes,
                      _idx_blocks(pixels.reshape(count, rows * cols)))


def _idx_blocks(pixels: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    n, width = pixels.shape
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    buf = np.empty((min(step, n), width))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # the bits of pixels.astype(np.float64) / 255.0
        block = buf[:hi - lo]
        block[...] = pixels[lo:hi]
        block /= 255.0
        yield lo, block


def load_idx(images_path, labels_path) -> Dataset:
    """`idx_stream`'s file pair as one Dataset."""
    return idx_stream(images_path, labels_path).read()


def partition_label_skew(labels: np.ndarray, n_classes: int,
                         plan: PartitionPlan, rng: np.random.Generator,
                         rows: Optional[np.ndarray] = None
                         ) -> List[np.ndarray]:
    """Equal-size non-iid client shards via a label-skew bias, drawn on
    the labels alone: each client's row ids into `labels`, in draw order.

    Each client's samples are drawn per-point: with probability `bias` from
    its primary label, otherwise uniformly from the other labels. Draws are
    without replacement within a client where the class pool allows it.
    `rows`, ascending row ids, limits the draw to those rows.
    """
    if rows is None:
        rows = np.arange(len(labels))
    kept = labels[rows]
    pools = [rows[kept == c] for c in range(n_classes)]
    for c, pool in enumerate(pools):
        if pool.size == 0:
            raise ValueError(f"class {c} has no samples to draw from")
    shards = []
    for client in range(plan.n_clients):
        primary = plan.primary_label(client, n_classes)
        others = [c for c in range(n_classes) if c != primary]
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
        shards.append(np.concatenate(drawn_rows))
    return shards


def shard_table(pool: PoolStream, ids: Sequence[np.ndarray]
                ) -> List[TableRows]:
    """The rows that each list of pool row ids in `ids` draws, as one
    `TableRows` per list, all on one read-only table of the distinct rows
    drawn. The table is gathered from `pool` in its one pass, and every
    shard's row ids are a view of one read-only array. The stream is spent
    after."""
    drawn, where = np.unique(np.concatenate(ids), return_inverse=True)
    table = pool.gather(drawn)
    # shards share rows, so a write into one shard's rows raises instead
    # of reaching the others
    for array in (table.features, table.labels, where):
        array.setflags(write=False)
    ends = list(itertools.accumulate(len(rows) for rows in ids))
    return [TableRows(table, rows) for rows in np.split(where, ends[:-1])]


def stack_rows(datasets: Sequence[Union[Dataset, TableRows]],
               extra: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """New float64 features and int64 labels holding the rows of the
    (non-empty) `datasets` in order, then `extra` unfilled rows. The rows
    of every `TableRows` on the first one's table come from one take on
    it; any other dataset (a poisoned shard among clean ones, say) is
    then copied into its place."""
    table = next((ds.table for ds in datasets
                  if isinstance(ds, TableRows)), None)
    ids, own, n = [], [], 0  # own: (first row, dataset) off the table
    for ds in datasets:
        if isinstance(ds, TableRows) and ds.table is table:
            ids.append(ds.rows)
        else:
            ids.append(np.zeros(len(ds), dtype=np.intp))
            own.append((n, ds))
        n += len(ds)
    feats = np.empty((n + extra, datasets[0].n_features))
    labels = np.empty(n + extra, dtype=np.int64)
    if table is not None:
        ids = np.concatenate(ids)
        # mode="raise" would buffer `out` through a temporary of the rows
        table.features.take(ids, axis=0, out=feats[:n], mode="clip")
        table.labels.take(ids, out=labels[:n], mode="clip")
    for lo, ds in own:
        feats[lo:lo + len(ds)] = ds.features
        labels[lo:lo + len(ds)] = ds.labels
    return feats, labels


def apply_trigger(ds: Union[Dataset, TableRows], trig: TriggerSpec,
                  fraction: float,
                  rng: np.random.Generator) -> Tuple[Dataset, np.ndarray]:
    """Poison a fraction of rows: pin trigger features, relabel to target.

    Returns the poisoned copy and the indices of the poisoned rows; `ds`
    is untouched. When no row or every row is poisoned, `rng` is not
    drawn from: the sorted choice of all n rows is 0..n-1.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if max(trig.feature_indices) >= ds.n_features:
        raise ValueError("trigger index outside feature range")
    if not 0 <= trig.target_label < ds.n_classes:
        raise ValueError("target label outside class range")
    n_poison = int(round(fraction * len(ds)))
    feats, labels = stack_rows([ds])
    if n_poison == 0:
        return Dataset(feats, labels, ds.n_classes), np.empty(0, dtype=np.intp)
    if n_poison == len(ds):
        feats[:, list(trig.feature_indices)] = trig.trigger_value
        labels[:] = trig.target_label
        return Dataset(feats, labels, ds.n_classes), np.arange(len(ds))
    chosen = np.sort(rng.choice(len(ds), size=n_poison, replace=False))
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
    feats = ds.features[keep]
    feats[:, list(trig.feature_indices)] = trig.trigger_value
    return Dataset(feats, ds.labels[keep], ds.n_classes)


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


def edge_case_augment(client_ds: Union[Dataset, TableRows], edge_ds: Dataset,
                      ratio: float, rng: np.random.Generator,
                      target_label: int) -> Union[Dataset, TableRows]:
    """Append edge-case rows sized relative to the matching benign rows.

    Every row of `edge_ds` is labelled `target_label`. Counts the client's
    rows of that label and appends floor(ratio * count) edge rows, drawn
    without replacement when the pool is large enough.
    """
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    if ratio == 0:
        return client_ds
    if len(edge_ds) == 0:
        raise ValueError("edge pool is empty")
    matches = int(np.count_nonzero(client_ds.labels == target_label))
    n_extra = int(ratio * matches)
    if n_extra == 0:
        return client_ds
    chosen = rng.choice(len(edge_ds), size=n_extra,
                        replace=len(edge_ds) < n_extra)
    feats, labels = stack_rows([client_ds], n_extra)
    n = len(client_ds)
    edge_ds.features.take(chosen, axis=0, out=feats[n:], mode="clip")
    edge_ds.labels.take(chosen, out=labels[n:], mode="clip")
    return Dataset(feats, labels, max(client_ds.n_classes, edge_ds.n_classes))
