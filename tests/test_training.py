import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedtruth.data import Dataset, synth_blobs
from fedtruth.rng import stream
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig,
                               extract_update, init_model, predict,
                               train_roster, _roster_gradients, _softmax,
                               _stacked_forward, _unpack)

LOGREG = ModelSpec(ModelKind.LOGREG, n_features=6, n_classes=3)
MLP = ModelSpec(ModelKind.MLP, n_features=6, n_classes=3, hidden_units=5)


def blobs(n=120, seed=0):
    return synth_blobs(n, 6, 3, 0.15, stream(seed, "train-data"))


def forward(spec, params, X):
    """One model's probabilities on X (B, features), through the stacked
    forward as a stack of one: (B, classes)."""
    probs, _ = _stacked_forward(spec, _unpack(spec, params[None]), X[None])
    return probs[:, 0]


def cross_entropy(spec, params, ds):
    """Mean softmax cross-entropy of a model on a dataset, with its true
    class probabilities floored at 1e-15."""
    probs = forward(spec, params, ds.features)
    true = probs[np.arange(len(ds)), ds.labels]
    return float(-np.log(np.maximum(true, 1e-15)).mean())


def accuracy(spec, params, ds):
    return float((predict(params, ds, spec) == ds.labels).mean())


# -- init ---------------------------------------------------------------------

def test_init_deterministic_in_seed():
    a = init_model(LOGREG, 7)
    b = init_model(LOGREG, 7)
    c = init_model(LOGREG, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_biases_zero_and_param_count():
    m = init_model(LOGREG, 0)
    _, b = _unpack(LOGREG, m)
    assert np.all(b == 0.0)
    assert m.size == 3 * (6 + 1)
    mlp = init_model(MLP, 0)
    _, b1, _, b2 = _unpack(MLP, mlp)
    assert np.all(b1 == 0.0)
    assert np.all(b2 == 0.0)
    assert mlp.size == 5 * 6 + 5 + 3 * 5 + 3


def test_init_weights_within_glorot_limit():
    m = init_model(LOGREG, 3)
    limit = np.sqrt(6.0 / (6 + 3))
    W, _ = _unpack(LOGREG, m)
    assert np.all(np.abs(W) <= limit)


# -- forward ------------------------------------------------------------------

def test_softmax_rows_sum_to_one():
    ds = blobs()
    for spec in (LOGREG, MLP):
        params = init_model(spec, 1)
        probs = forward(spec, params, ds.features)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0


def test_softmax_stable_at_large_logits():
    params = init_model(LOGREG, 1) * 1e4
    ds = blobs(10)
    probs = forward(LOGREG, params, ds.features)
    assert np.all(np.isfinite(probs))


def reference_softmax(logits):
    """Softmax with both class-axis reductions as numpy reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


# moderate logits, and logits that overflow exp or are infinite
LOGITS = st.one_of(st.floats(-30.0, 30.0),
                   st.sampled_from([1e308, -1e308, 710.0, -746.0, 0.0, -0.0,
                                    np.inf, -np.inf]),
                   st.floats(allow_nan=False))


# () is one sample, (B,) one model's batch, (B, K) a batch-major roster
# stack, and (B, 1) what predict passes
SOFTMAX_INPUTS = st.tuples(
    st.sampled_from([(), (1,), (7,), (3, 5), (10, 1)]),
    st.integers(2, 12)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape[0] + (shape[1],),
                                 elements=LOGITS))


def boundary_logits(classes):
    # spread-out logits, so a chain of adds and a pairwise sum of their
    # exponentials differ in the last bit on several rows
    return np.random.default_rng(classes).normal(size=(3, 5, classes)) * 3.0


# 7 classes is the longest chain of adds, 8 the first pairwise reduction
@settings(max_examples=300, deadline=None)
@given(logits=SOFTMAX_INPUTS)
@example(logits=boundary_logits(7))
@example(logits=boundary_logits(8))
def test_softmax_matches_reduction_form_bitwise(logits):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _softmax(logits)
        want = reference_softmax(logits)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- gradients ------------------------------------------------------------------

def finite_difference_check(spec, n_coords=100, h=1e-6, seed=5):
    ds = blobs(40, seed=seed)
    params = init_model(spec, seed)
    grad = np.empty((1, params.size))
    _roster_gradients(spec, _unpack(spec, params[None]), ds.features[None],
                      np.eye(spec.n_classes)[ds.labels][:, None],
                      _unpack(spec, grad))
    grad = grad[0]
    rng = np.random.default_rng(seed)
    coords = rng.choice(params.size, size=min(n_coords, params.size),
                        replace=False)
    worst = 0.0
    for j in coords:
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        numeric = (cross_entropy(spec, up, ds)
                   - cross_entropy(spec, down, ds)) / (2 * h)
        denom = max(abs(numeric), abs(grad[j]), 1e-8)
        worst = max(worst, abs(numeric - grad[j]) / denom)
    return worst


def test_gradients_match_finite_differences_logreg():
    assert finite_difference_check(LOGREG) < 1e-5


def test_gradients_match_finite_differences_mlp():
    assert finite_difference_check(MLP) < 1e-5


# -- training -------------------------------------------------------------------

def test_zero_learning_rate_keeps_params():
    ds = blobs()
    params = init_model(LOGREG, 2)
    cfg = TrainConfig(local_epochs=2, batch_size=16, learning_rate=0.0)
    out = train_roster(params, [ds], LOGREG, cfg, [stream(0, "t")])[0]
    assert np.array_equal(out, params)


def test_one_epoch_lowers_training_loss():
    ds = blobs(300)
    for spec in (LOGREG, MLP):
        params = init_model(spec, 3)
        cfg = TrainConfig(local_epochs=1, batch_size=32, learning_rate=0.1)
        trained = train_roster(params, [ds], spec, cfg, [stream(1, "t")])[0]
        assert cross_entropy(spec, trained, ds) \
            < cross_entropy(spec, params, ds)


def test_training_does_not_mutate_input():
    ds = blobs()
    params = init_model(LOGREG, 4)
    before = params.copy()
    train_roster(params, [ds], LOGREG, TrainConfig(learning_rate=0.5),
                 [stream(2, "t")])
    assert np.array_equal(params, before)


def test_training_deterministic():
    ds = blobs()
    params = init_model(MLP, 5)
    cfg = TrainConfig(local_epochs=3, batch_size=8, learning_rate=0.2)
    a = train_roster(params, [ds], MLP, cfg, [stream(3, "t", 0)])[0]
    b = train_roster(params, [ds], MLP, cfg, [stream(3, "t", 0)])[0]
    assert np.array_equal(a, b)


# the config layer names the dotted key first; these library checks stay
# for callers that build the types directly
@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(local_epochs=0), "local_epochs and batch_size"),
    (lambda: TrainConfig(batch_size=0), "local_epochs and batch_size"),
    (lambda: TrainConfig(learning_rate=-1.0), "learning_rate must be >= 0"),
    (lambda: ModelSpec(ModelKind.MLP, 6, 3, hidden_units=0),
     "hidden_units must be >= 1"),
], ids=["local_epochs", "batch_size", "learning_rate", "hidden_units"])
def test_library_range_checks_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()
    # logreg has no hidden layer, so its hidden_units is never read
    ModelSpec(ModelKind.LOGREG, 6, 3, hidden_units=0)


def test_train_empty_dataset_rejected():
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError):
        train_roster(init_model(LOGREG, 0), [empty], LOGREG, TrainConfig(),
                     [stream(0, "t")])


def test_train_roster_rejects_unequal_or_missing_inputs():
    params = init_model(LOGREG, 0)
    with pytest.raises(ValueError):
        train_roster(params, [blobs(40), blobs(41)], LOGREG, TrainConfig(),
                     [stream(0, "t", 0), stream(0, "t", 1)])
    with pytest.raises(ValueError):
        train_roster(params, [blobs(40)], LOGREG, TrainConfig(), [])
    with pytest.raises(ValueError):
        train_roster(params, [], LOGREG, TrainConfig(), [])


# -- batched training against the per-client reference ---------------------------

def reference_layers(spec, params):
    out, offset = [], 0
    for _, shape in spec.layer_shapes():
        size = math.prod(shape)
        out.append(params[offset:offset + size].reshape(shape))
        offset += size
    return out


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


def assert_roster_matches_per_client(spec, params, datasets, cfg, seed):
    def rngs():
        return [stream(seed, "train", 0, k) for k in range(len(datasets))]
    block = train_roster(params, datasets, spec, cfg, rngs())
    alone = np.stack([train_roster(params, [ds], spec, cfg, [rng])[0]
                      for ds, rng in zip(datasets, rngs())])
    reference = np.stack([reference_train(params, ds, spec, cfg, rng)
                          for ds, rng in zip(datasets, rngs())])
    assert block.shape == (len(datasets), params.size)
    assert np.array_equal(block, alone)
    assert np.array_equal(block, reference)


# n_classes crosses 8, where numpy's class-axis sum turns pairwise; a batch
# at least as long as the shard makes one batch per epoch. A size-1 input
# width, hidden layer or batch routes numpy's matmul to gemv, dot or its
# own loop in place of gemm, so the last four examples pin those shapes
@settings(max_examples=150, deadline=None)
@given(mlp=st.booleans(), n_features=st.integers(1, 12),
       n_classes=st.integers(2, 12), hidden=st.integers(1, 9),
       clients=st.integers(1, 10), shard=st.integers(1, 45),
       batch=st.integers(1, 50), epochs=st.sampled_from([1, 1, 2, 3]),
       lr=st.sampled_from([0.0, 0.05, 0.7]), seed=st.integers(0, 2 ** 16))
@example(mlp=False, n_features=3, n_classes=12, hidden=1, clients=4,
         shard=9, batch=9, epochs=3, lr=0.7, seed=1)
@example(mlp=True, n_features=5, n_classes=9, hidden=4, clients=3,
         shard=20, batch=50, epochs=2, lr=0.7, seed=2)
@example(mlp=False, n_features=1, n_classes=3, hidden=1, clients=5,
         shard=11, batch=5, epochs=2, lr=0.7, seed=3)
@example(mlp=True, n_features=1, n_classes=3, hidden=4, clients=4,
         shard=12, batch=5, epochs=2, lr=0.7, seed=4)
@example(mlp=True, n_features=3, n_classes=2, hidden=1, clients=4,
         shard=12, batch=5, epochs=2, lr=0.7, seed=4)
@example(mlp=True, n_features=8, n_classes=10, hidden=6, clients=6,
         shard=33, batch=8, epochs=2, lr=0.7, seed=6)
def test_train_roster_matches_per_client_training_bitwise(
        mlp, n_features, n_classes, hidden, clients, shard, batch, epochs,
        lr, seed):
    spec = ModelSpec(ModelKind.MLP if mlp else ModelKind.LOGREG,
                     n_features, n_classes, hidden)
    rng = np.random.default_rng(seed)
    datasets = [Dataset(rng.random((shard, n_features)),
                        rng.integers(0, n_classes, shard), n_classes)
                for _ in range(clients)]
    cfg = TrainConfig(local_epochs=epochs, batch_size=batch,
                      learning_rate=lr)
    assert_roster_matches_per_client(spec, init_model(spec, seed), datasets,
                                     cfg, seed)


@pytest.mark.parametrize("kind", [ModelKind.LOGREG, ModelKind.MLP])
def test_train_roster_bitwise_at_model_sizes(kind):
    # 200 features and 32 hidden units take larger BLAS kernels than the
    # small shapes above; a 60-row shard leaves a short last batch of 28
    spec = ModelSpec(kind, 200, 10, 32)
    datasets = [synth_blobs(60, 200, 10, 0.15, stream(k, "shard"))
                for k in range(9)]
    cfg = TrainConfig(local_epochs=2, batch_size=32, learning_rate=0.5)
    assert_roster_matches_per_client(spec, init_model(spec, 4), datasets,
                                     cfg, 4)


# -- prediction -------------------------------------------------------------------

def reference_forward(spec, params, X):
    """One model's 2-D forward on X (B, features): its probabilities
    (B, classes), from plain 2-D products and the training softmax."""
    if spec.kind is ModelKind.LOGREG:
        W, b = reference_layers(spec, params)
        return _softmax(X @ W.T + b)
    W1, b1, W2, b2 = reference_layers(spec, params)
    h = np.maximum(X @ W1.T + b1, 0.0)
    return _softmax(h @ W2.T + b2)


# a single input feature, hidden unit or test row sends numpy's matmul to
# gemv, dot or its own loop in place of gemm; the examples pin those shapes
@settings(max_examples=200, deadline=None)
@given(mlp=st.booleans(), n_features=st.sampled_from([1, 2, 5, 20]),
       n_classes=st.integers(2, 12), hidden=st.sampled_from([1, 2, 16]),
       rows=st.sampled_from([1, 2, 7, 40]), models=st.integers(1, 4),
       scale=st.sampled_from([1.0, 30.0]), seed=st.integers(0, 2 ** 16))
@example(mlp=False, n_features=1, n_classes=2, hidden=1, rows=1, models=1,
         scale=1.0, seed=0)
@example(mlp=True, n_features=1, n_classes=12, hidden=1, rows=1, models=3,
         scale=1.0, seed=1)
@example(mlp=True, n_features=5, n_classes=8, hidden=1, rows=7, models=2,
         scale=30.0, seed=2)
@example(mlp=False, n_features=20, n_classes=7, hidden=1, rows=40, models=4,
         scale=1.0, seed=3)
def test_predict_and_stacked_forward_match_2d_forward_bitwise(
        mlp, n_features, n_classes, hidden, rows, models, scale, seed):
    spec = ModelSpec(ModelKind.MLP if mlp else ModelKind.LOGREG,
                     n_features, n_classes, hidden)
    rng = np.random.default_rng(seed)
    params = np.stack([init_model(spec, rng) * scale for _ in range(models)])
    X = rng.normal(size=(models, rows, n_features))
    probs, _ = _stacked_forward(spec, _unpack(spec, params), X)
    assert probs.shape == (rows, models, n_classes)
    for k in range(models):
        want = reference_forward(spec, params[k], X[k])
        assert probs[:, k].tobytes() == want.tobytes()
        ds = Dataset(X[k], np.zeros(rows, dtype=int), n_classes)
        assert predict(params[k], ds, spec).tobytes() \
            == want.argmax(axis=1).tobytes()


def test_constant_predictor_on_balanced_two_class():
    feats = np.random.default_rng(9).random((100, 4))
    labels = np.array([0, 1] * 50)
    ds = Dataset(feats, labels, 2)
    spec = ModelSpec(ModelKind.LOGREG, 4, 2)
    params = np.zeros_like(init_model(spec, 0))
    assert accuracy(spec, params, ds) == 0.5
    assert cross_entropy(spec, params, ds) >= 0.0


def test_trainable_to_perfect_separation():
    ds = synth_blobs(400, 6, 2, 0.05, stream(10, "sep"))
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    params = init_model(spec, 1)
    cfg = TrainConfig(local_epochs=30, batch_size=32, learning_rate=1.0)
    trained = train_roster(params, [ds], spec, cfg, [stream(11, "t")])[0]
    assert accuracy(spec, trained, ds) == 1.0


# -- update extraction ----------------------------------------------------------

def test_extract_update_sign_convention():
    g = np.full_like(init_model(LOGREG, 0), 5.0)
    l = np.full_like(init_model(LOGREG, 0), 3.0)
    delta = extract_update(g, l)
    assert np.all(delta == 2.0)
    # w - 1.0 * delta recovers the local model
    recovered = g - delta
    assert np.array_equal(recovered, l)


def test_extract_update_zero_for_identical():
    g = init_model(MLP, 6)
    delta = extract_update(g, g)
    assert np.all(delta == 0.0)
    assert delta.shape == g.shape


def test_extract_update_shape_mismatch():
    g = init_model(LOGREG, 0)
    other = init_model(ModelSpec(ModelKind.LOGREG, 7, 3), 0)
    with pytest.raises(ValueError):
        extract_update(g, other)
    with pytest.raises(ValueError):  # another model's parameter vector
        predict(other, blobs(), LOGREG)
