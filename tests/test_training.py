import numpy as np
import pytest

from fedtruth.data import Dataset, synth_blobs
from fedtruth.rng import stream
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig, evaluate,
                               extract_update, init_model, local_train,
                               _forward, _gradients, _unpack)

LOGREG = ModelSpec(ModelKind.LOGREG, n_features=6, n_classes=3)
MLP = ModelSpec(ModelKind.MLP, n_features=6, n_classes=3, hidden_units=5)


def blobs(n=120, seed=0):
    return synth_blobs(n, 6, 3, 0.15, stream(seed, "train-data"))


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
        probs, _ = _forward(spec, params, ds.features)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0


def test_softmax_stable_at_large_logits():
    params = init_model(LOGREG, 1) * 1e4
    ds = blobs(10)
    probs, _ = _forward(LOGREG, params, ds.features)
    assert np.all(np.isfinite(probs))


# -- gradients ------------------------------------------------------------------

def finite_difference_check(spec, n_coords=100, h=1e-6, seed=5):
    ds = blobs(40, seed=seed)
    params = init_model(spec, seed)
    X, y = ds.features, ds.labels

    def loss_at(p):
        probs, _ = _forward(spec, p, X)
        true = probs[np.arange(len(y)), y]
        return float(-np.log(np.maximum(true, 1e-15)).mean())

    grad = _gradients(spec, params, X, y)
    rng = np.random.default_rng(seed)
    coords = rng.choice(params.size, size=min(n_coords, params.size),
                        replace=False)
    worst = 0.0
    for j in coords:
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        numeric = (loss_at(up) - loss_at(down)) / (2 * h)
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
    out = local_train(params, ds, LOGREG, cfg, stream(0, "t"))
    assert np.array_equal(out, params)


def test_one_epoch_lowers_training_loss():
    ds = blobs(300)
    for spec in (LOGREG, MLP):
        params = init_model(spec, 3)
        _, loss_before = evaluate(params, ds, spec)
        cfg = TrainConfig(local_epochs=1, batch_size=32, learning_rate=0.1)
        trained = local_train(params, ds, spec, cfg, stream(1, "t"))
        _, loss_after = evaluate(trained, ds, spec)
        assert loss_after < loss_before


def test_local_train_does_not_mutate_input():
    ds = blobs()
    params = init_model(LOGREG, 4)
    before = params.copy()
    local_train(params, ds, LOGREG,
                TrainConfig(learning_rate=0.5), stream(2, "t"))
    assert np.array_equal(params, before)


def test_training_deterministic():
    ds = blobs()
    params = init_model(MLP, 5)
    cfg = TrainConfig(local_epochs=3, batch_size=8, learning_rate=0.2)
    a = local_train(params, ds, MLP, cfg, stream(3, "t", 0))
    b = local_train(params, ds, MLP, cfg, stream(3, "t", 0))
    assert np.array_equal(a, b)


def test_train_empty_dataset_rejected():
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError):
        local_train(init_model(LOGREG, 0), empty, LOGREG,
                    TrainConfig(), stream(0, "t"))
    with pytest.raises(ValueError):
        evaluate(init_model(LOGREG, 0), empty, LOGREG)


# -- evaluate ---------------------------------------------------------------------

def test_constant_predictor_on_balanced_two_class():
    feats = np.random.default_rng(9).random((100, 4))
    labels = np.array([0, 1] * 50)
    ds = Dataset(feats, labels, 2)
    spec = ModelSpec(ModelKind.LOGREG, 4, 2)
    params = np.zeros_like(init_model(spec, 0))
    acc, loss = evaluate(params, ds, spec)
    assert acc == 0.5
    assert loss >= 0.0


def test_trainable_to_perfect_separation():
    ds = synth_blobs(400, 6, 2, 0.05, stream(10, "sep"))
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    params = init_model(spec, 1)
    cfg = TrainConfig(local_epochs=30, batch_size=32, learning_rate=1.0)
    trained = local_train(params, ds, spec, cfg, stream(11, "t"))
    acc, _ = evaluate(trained, ds, spec)
    assert acc == 1.0


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
        evaluate(other, blobs(), LOGREG)
