"""Inputs, fixtures and assertions that several test modules share; the
references they are checked against live in `oracles.py`."""

import struct
from typing import Optional

import numpy as np
import yaml
from hypothesis import strategies as st

from fedtruth.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset,
                           synth_blobs)
from fedtruth.rng import stream
from fedtruth.training import (_Workspace, _roster_gradients, _unpack,
                               init_model)
from fedtruth.vectors import BLOCK_ELEMENTS

from oracles import reference_cross_entropy


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


MINIMAL = {
    "dataset": {"samples_per_client": 30,
                "synth": {"n_train": 400, "n_test": 120, "n_features": 6,
                          "n_classes": 2, "spread": 0.2}},
    "fl": {"total_clients": 6, "clients_per_round": 4, "rounds": 3,
           "learning_rate": 0.3, "batch_size": 16},
    "aggregator": {"kind": "fedtruth"},
}


def write_config(tmp_path, name="exp", extra=None):
    data = dict(MINIMAL)
    if extra:
        data = {**data, **extra}
    data.setdefault("output", {})["directory"] = str(tmp_path / "out")
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def without_timing_bytes(path):
    lines = path.read_bytes().splitlines(keepends=True)
    drop = lines[0].split(b",").index(b"agg_time_s")
    return [b",".join(f for i, f in enumerate(line.split(b",")) if i != drop)
            for line in lines]


def random_instances(count, n, dim, seed_tag):
    rng = stream(20240, seed_tag)
    return [[rng.normal(size=dim) for _ in range(n)] for _ in range(count)]


# (n, d) pairs whose n * d exceeds BLOCK_ELEMENTS: several row blocks, and
# one row per block once d alone exceeds it
WIDE_SHAPES = [(40, 2000), (9, 8000), (3, BLOCK_ELEMENTS + 5)]


@st.composite
def update_sets(draw):
    """An (n, d) update set, possibly a column block of a wider array, with
    zero rows, repeated rows and rows parallel to another row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 4)) == 0:
        n, d = draw(st.sampled_from(WIDE_SHAPES))
    else:
        n = draw(st.integers(1, 40))
        d = draw(st.sampled_from([1, 2, 3, 5, 42, 300]))
    offset = draw(st.sampled_from([0, 0, 3]))
    full = rng.normal(size=(n, d + offset))
    full *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    X = full[:, offset:]
    for k in range(n):
        shape = draw(st.integers(0, 9))
        if shape == 0:
            X[k] = 0.0
        elif shape == 1 and k > 0:
            scale = draw(st.sampled_from([1.0, -1.0, 2.5]))
            X[k] = X[rng.integers(k)] * scale
    return X


@st.composite
def reference_and_rows(draw):
    """A reference vector and rows to measure from it: an `update_sets`
    set with a zero reference, a scaled row of it, its mean or a random
    vector; or up to 6 rows of up to 9 values drawn in [-100, 100], each
    row zero or a multiple of the reference, which may be zero."""
    if draw(st.booleans()):
        X = draw(update_sets())
        choice = draw(st.sampled_from(["zero", "row", "mean", "random"]))
        if choice == "zero":
            return np.zeros(X.shape[1]), X
        if choice == "row":
            return X[draw(st.integers(0, len(X) - 1))] * draw(
                st.sampled_from([1.0, -2.0, 1e-3])), X
        if choice == "mean":
            return X.mean(axis=0), X
        return np.random.default_rng(len(X)).normal(size=X.shape[1]), X
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    value = st.floats(min_value=-100.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False)
    ref = np.array(draw(st.lists(value, min_size=d, max_size=d)))
    X = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):
        ref[:] = 0.0
    for k in range(n):
        if draw(st.integers(0, 3)) == 0:
            X[k] = 0.0
        elif draw(st.integers(0, 3)) == 0:
            X[k] = ref * draw(st.sampled_from([1.0, -1.0, 2.5]))
    return ref, X


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same_datasets(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert a.n_classes == b.n_classes


def assert_same_estimate(est, want):
    """Two estimates (a `TruthEstimate` or the oracle's `RowEstimate`)
    agree bit for bit."""
    assert bits(est.truth) == bits(want.truth)
    assert bits(est.weights) == bits(want.weights)
    assert bits(est.performances) == bits(want.performances)
    assert (est.iterations, est.converged) == \
        (want.iterations, want.converged)


def finite_difference_check(spec, n_coords=100, h=1e-6, seed=5):
    """The worst relative error, over up to n_coords parameters, of the
    package's analytic gradient of the mean loss on 40 blob rows against
    central differences of the reference loss."""
    ds = synth_blobs(40, spec.n_features, spec.n_classes, 0.15,
                     stream(seed, "train-data"))
    params = init_model(spec, seed)
    grad = np.empty((1, params.size))
    _roster_gradients(_Workspace(_unpack(spec, params[None]),
                                 ds.features[None],
                                 np.eye(spec.n_classes)[ds.labels][:, None],
                                 _unpack(spec, grad)))
    grad = grad[0]
    rng = np.random.default_rng(seed)
    coords = rng.choice(params.size, size=min(n_coords, params.size),
                        replace=False)
    worst = 0.0
    for j in coords:
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        numeric = (reference_cross_entropy(spec, up, ds)
                   - reference_cross_entropy(spec, down, ds)) / (2 * h)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / denom)
    return worst
