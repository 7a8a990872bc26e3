from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedtruth import training
from fedtruth.data import Dataset, TableRows, stack_rows, synth_blobs
from fedtruth.rng import stream
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig,
                               extract_update, init_model, predict,
                               train_roster, _softmax, _softmax_args,
                               _stacked_forward, _unpack, _Workspace)

from oracles import (reference_cross_entropy, reference_forward,
                     reference_softmax, reference_train, subset)

LOGREG = ModelSpec(ModelKind.LOGREG, n_features=6, n_classes=3)
MLP = ModelSpec(ModelKind.MLP, n_features=6, n_classes=3, hidden_units=5)


def blobs(n=120, seed=0):
    return synth_blobs(n, 6, 3, 0.15, stream(seed, "train-data"))


def forward(spec, params, X):
    """One model's probabilities on X (B, features), through the stacked
    forward as a stack of one: (B, classes)."""
    probs, _ = _stacked_forward(_Workspace(_unpack(spec, params[None]),
                                           X[None]))
    return probs[:, 0]


def accuracy(spec, params, ds):
    return float((predict(params, ds, spec) == ds.labels).mean())


# -- init ---------------------------------------------------------------------

def test_init_deterministic_in_seed():
    a = init_model(LOGREG, 7)
    b = init_model(LOGREG, 7)
    c = init_model(LOGREG, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a Generator is drawn from as given
    assert np.array_equal(init_model(LOGREG, np.random.default_rng(7)), a)


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


# 7 classes is the longest chain of adds and 8 the first pairwise sum; 16
# and 17 add a lane pass, 129 halves once and 300 on two levels
@settings(max_examples=300, deadline=None)
@given(logits=SOFTMAX_INPUTS)
@example(logits=boundary_logits(7))
@example(logits=boundary_logits(8))
@example(logits=boundary_logits(16))
@example(logits=boundary_logits(17))
@example(logits=boundary_logits(129))
@example(logits=boundary_logits(300))
def test_softmax_matches_reduction_form_bitwise(logits):
    # the class-major call, as a step makes it: logits (classes, 1, ...)
    # and the probabilities written through a class-major view of a
    # batch-major buffer
    z = np.moveaxis(logits[None], -1, 0).copy()
    got = np.empty(logits.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        _softmax(*_softmax_args(z, np.moveaxis(got[None], -1, 0)))
        want = reference_softmax(logits)
    assert got.tobytes() == want.tobytes()


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
        assert reference_cross_entropy(spec, trained, ds) \
            < reference_cross_entropy(spec, params, ds)


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


def test_rows_of_a_table_train_as_their_own_datasets():
    # a block's rows come from one take on the shared table, with any
    # dataset of its own (a poisoned shard, say) written over its place
    table = blobs(90, seed=4)
    rows = [stream(5, "rows", k).integers(0, 90, size=40) for k in range(3)]
    own = blobs(40, seed=6)
    cases = [[TableRows(table, r) for r in rows],
             [own, TableRows(table, rows[0]), TableRows(table, rows[1])],
             [TableRows(table, rows[0]), own, TableRows(table, rows[2])]]
    cfg = TrainConfig(local_epochs=2, batch_size=16, learning_rate=0.3)
    params = init_model(MLP, 0)
    for datasets in cases:
        copies = [ds if isinstance(ds, Dataset) else subset(table, ds.rows)
                  for ds in datasets]
        rngs = [stream(7, "t", k) for k in range(len(datasets))]
        want = train_roster(params, copies, MLP, cfg, rngs)
        rngs = [stream(7, "t", k) for k in range(len(datasets))]
        assert np.array_equal(
            train_roster(params, datasets, MLP, cfg, rngs), want)


def test_train_roster_rejects_missing_inputs():
    # tasks of unequal lengths train in groups; the roster property below
    # checks them
    params = init_model(LOGREG, 0)
    with pytest.raises(ValueError):
        train_roster(params, [blobs(40)], LOGREG, TrainConfig(), [])
    with pytest.raises(ValueError):
        train_roster(params, [], LOGREG, TrainConfig(), [])


@pytest.mark.parametrize("size", [20, 22, 0])
def test_train_roster_refuses_a_parameter_vector_of_the_wrong_length(size):
    # LOGREG has 21 parameters; the layer-major stack is built from the
    # vector's layers, so a short one must not be tiled into a model
    rngs = [stream(0, "t", k) for k in range(3)]
    with pytest.raises(ValueError):
        train_roster(np.zeros(size), [blobs(40)] * 3, LOGREG, TrainConfig(),
                     rngs)


# -- batched training against the per-client reference ---------------------------

def assert_roster_matches_per_client(spec, params, datasets, cfg, seed,
                                     width=None):
    """train_roster's rows, in blocks of at most `width` tasks (or the
    default), equal each task trained alone and the reference bit for
    bit."""
    def rngs():
        return [stream(seed, "train", 0, k) for k in range(len(datasets))]
    elements = training.BLOCK_ELEMENTS if width is None \
        else width * params.size
    with mock.patch.object(training, "BLOCK_ELEMENTS", elements):
        block = train_roster(params, datasets, spec, cfg, rngs())
    alone = np.stack([train_roster(params, [ds], spec, cfg, [rng])[0]
                      for ds, rng in zip(datasets, rngs())])
    copies = [subset(ds.table, ds.rows) if isinstance(ds, TableRows) else ds
              for ds in datasets]
    reference = np.stack([reference_train(params, ds, spec, cfg, rng)
                          for ds, rng in zip(copies, rngs())])
    assert block.shape == (len(datasets), params.size)
    assert np.array_equal(block, alone)
    assert np.array_equal(block, reference)


def roster_tasks(rng, shards, n_features, n_classes, table_share):
    """`count` tasks of each (length, count) in `shards`, in a shuffled
    order; each is rows of one shared table with probability
    `table_share`, else a Dataset of its own."""
    table = Dataset(rng.random((50, n_features)),
                    rng.integers(0, n_classes, 50), n_classes)
    lengths = [n for n, count in shards for _ in range(count)]
    tasks = []
    for n in rng.permutation(lengths):
        if rng.random() < table_share:
            tasks.append(TableRows(table, rng.integers(0, 50, n)))
        else:
            tasks.append(Dataset(rng.random((n, n_features)),
                                 rng.integers(0, n_classes, n), n_classes))
    return tasks


# Tasks of one to three lengths, on the table, of their own or mixed, in
# blocks of one to ten tasks: a group narrower than `width` trains whole,
# a wider one in two or more blocks. n_classes
# crosses 8, where numpy's class-axis sum turns pairwise; a batch at least
# as long as a shard makes one batch per epoch. A size-1 input width,
# hidden layer or batch routes numpy's matmul to gemv, dot or its own loop
# in place of gemm, so the third to sixth examples pin those shapes
@settings(max_examples=150, deadline=None)
@given(mlp=st.booleans(), n_features=st.integers(1, 12),
       n_classes=st.integers(2, 12), hidden=st.integers(1, 9),
       shards=st.lists(st.tuples(st.integers(1, 45), st.integers(1, 10)),
                       min_size=1, max_size=3, unique_by=lambda s: s[0]),
       width=st.integers(1, 10), table_share=st.sampled_from([0.0, 0.5, 1.0]),
       batch=st.integers(1, 50), epochs=st.sampled_from([1, 1, 2, 3]),
       lr=st.sampled_from([0.0, 0.05, 0.7]), seed=st.integers(0, 2 ** 16))
@example(mlp=False, n_features=3, n_classes=12, hidden=1, shards=[(9, 4)],
         width=2, table_share=0.0, batch=9, epochs=3, lr=0.7, seed=1)
@example(mlp=True, n_features=5, n_classes=9, hidden=4, shards=[(20, 3)],
         width=2, table_share=1.0, batch=50, epochs=2, lr=0.7, seed=2)
@example(mlp=False, n_features=1, n_classes=3, hidden=1, shards=[(11, 5)],
         width=2, table_share=0.5, batch=5, epochs=2, lr=0.7, seed=3)
@example(mlp=True, n_features=1, n_classes=3, hidden=4, shards=[(12, 4)],
         width=3, table_share=1.0, batch=5, epochs=2, lr=0.7, seed=4)
@example(mlp=True, n_features=3, n_classes=2, hidden=1, shards=[(12, 4)],
         width=3, table_share=0.0, batch=5, epochs=2, lr=0.7, seed=4)
@example(mlp=True, n_features=8, n_classes=10, hidden=6,
         shards=[(33, 6), (20, 1), (7, 2)], width=4, table_share=0.5,
         batch=8, epochs=2, lr=0.7, seed=6)
# a step copies its softmax gradient K-major only where the products'
# other operand has width 1 (n_features 1 for logreg, hidden 1 for the
# MLP); a short last batch of one row, one model and a batch at least as
# long as the shard each give the step's buffers another shape
@example(mlp=False, n_features=1, n_classes=2, hidden=1, shards=[(13, 6)],
         width=4, table_share=1.0, batch=4, epochs=3, lr=0.7, seed=7)
@example(mlp=True, n_features=4, n_classes=9, hidden=1,
         shards=[(10, 5), (3, 2)], width=2, table_share=0.5, batch=3,
         epochs=2, lr=0.7, seed=8)
@example(mlp=False, n_features=5, n_classes=8, hidden=1, shards=[(14, 1)],
         width=1, table_share=0.0, batch=14, epochs=3, lr=0.7, seed=9)
@example(mlp=True, n_features=1, n_classes=2, hidden=3, shards=[(6, 1)],
         width=1, table_share=1.0, batch=40, epochs=2, lr=0.7, seed=10)
# whole blocks of nine and ten models at the unit widths
@example(mlp=False, n_features=1, n_classes=2, hidden=1,
         shards=[(13, 10), (8, 9)], width=10, table_share=0.5, batch=4,
         epochs=2, lr=0.7, seed=11)
@example(mlp=True, n_features=3, n_classes=9, hidden=1, shards=[(11, 10)],
         width=10, table_share=1.0, batch=1, epochs=1, lr=0.7, seed=12)
def test_train_roster_matches_per_client_training_bitwise(
        mlp, n_features, n_classes, hidden, shards, width, table_share,
        batch, epochs, lr, seed):
    spec = ModelSpec(ModelKind.MLP if mlp else ModelKind.LOGREG,
                     n_features, n_classes, hidden)
    rng = np.random.default_rng(seed)
    datasets = roster_tasks(rng, shards, n_features, n_classes, table_share)
    cfg = TrainConfig(local_epochs=epochs, batch_size=batch,
                      learning_rate=lr)
    assert_roster_matches_per_client(spec, init_model(spec, seed), datasets,
                                     cfg, seed, width)


@pytest.mark.parametrize("spec, clients, shard, cfg", [
    # 200 features and 32 hidden units take larger BLAS kernels than the
    # small shapes above; a 60-row shard leaves a short last batch of 28
    pytest.param(ModelSpec(ModelKind.LOGREG, 200, 10, 32), 9, 60,
                 TrainConfig(2, 32, 0.5), id="ModelKind.LOGREG"),
    pytest.param(ModelSpec(ModelKind.MLP, 200, 10, 32), 9, 60,
                 TrainConfig(2, 32, 0.5), id="ModelKind.MLP"),
    # the boost benchmark's block: one whole-shard batch a step, 30 epochs
    pytest.param(ModelSpec(ModelKind.LOGREG, 20, 2), 10, 60,
                 TrainConfig(30, 60, 1.0), id="boost"),
])
def test_train_roster_bitwise_at_model_sizes(spec, clients, shard, cfg):
    datasets = [synth_blobs(shard, spec.n_features, spec.n_classes, 0.15,
                            stream(k, "shard"))
                for k in range(clients)]
    assert_roster_matches_per_client(spec, init_model(spec, 4), datasets,
                                     cfg, 4)


def test_a_call_shares_its_buffers_and_copies_each_blocks_rows_once(
        monkeypatch):
    # three blocks of three equal tasks and a group of one: a workspace
    # per (block size, batch length), whatever the number of blocks, and
    # one copy of the rows per block, never one per step
    built, copied = [], []

    class Counting(training._Workspace):
        def __init__(self, layers, X, *args):
            built.append(X.shape[:2])
            super().__init__(layers, X, *args)

    def counting_stack_rows(datasets, *args):
        copied.append(len(datasets))
        return stack_rows(datasets, *args)

    params = init_model(MLP, 0)
    table = blobs(90, seed=4)
    datasets = [TableRows(table, stream(5, "rows", k).integers(0, 90, 10))
                for k in range(9)]
    copies = [subset(table, ds.rows) for ds in datasets]
    cfg = TrainConfig(local_epochs=2, batch_size=4, learning_rate=0.3)

    def train(tasks):
        rngs = [stream(7, "t", k) for k in range(len(tasks))]
        return train_roster(params, tasks, MLP, cfg, rngs)

    monkeypatch.setattr(training, "BLOCK_ELEMENTS", 3 * params.size)
    monkeypatch.setattr(training, "_Workspace", Counting)
    monkeypatch.setattr(training, "stack_rows", counting_stack_rows)
    want = train(copies + [blobs(7)])
    assert sorted(built) == [(1, 3), (1, 4), (3, 2), (3, 4)]
    assert sorted(copied) == [1, 3, 3, 3]

    # every task on the table: the same rows, one copy per block
    copied.clear()
    assert np.array_equal(train(datasets), want[:9])
    assert copied == [3, 3, 3]


# the output product runs class-major, W @ aᵀ into a (K, classes, B)
# view; a is X for logreg and the K-major hidden layer for the MLP
@settings(max_examples=200, deadline=None)
@given(mlp=st.booleans(), models=st.integers(1, 10), rows=st.integers(1, 70),
       width=st.integers(1, 40), n_classes=st.integers(2, 12),
       seed=st.integers(0, 2 ** 16))
@example(mlp=False, models=1, rows=1, width=1, n_classes=2, seed=0)
@example(mlp=True, models=10, rows=70, width=1, n_classes=12, seed=1)
@example(mlp=False, models=10, rows=60, width=20, n_classes=2, seed=2)
def test_class_major_product_matches_per_model_product_bitwise(
        mlp, models, rows, width, n_classes, seed):
    spec = ModelSpec(ModelKind.MLP if mlp else ModelKind.LOGREG,
                     7 if mlp else width, n_classes, width)
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(models, init_model(spec, 0).size))
    layers = _unpack(spec, params)
    layers[-1][...] = 0.0  # a zero bias: the logits are the product's
    ws = _Workspace(layers, rng.normal(size=(models, rows,
                                             spec.n_features)))
    with mock.patch.object(training, "_softmax"):  # keep the logits
        _stacked_forward(ws)
    a = ws.X if ws.h is None else ws.h
    for k in range(models):
        want = a[k] @ ws.W[k].T + ws.b[k]
        assert ws.logits[:, k].T.tobytes() == want.tobytes()


# -- prediction -------------------------------------------------------------------

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
    probs, _ = _stacked_forward(_Workspace(_unpack(spec, params), X))
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
    assert reference_cross_entropy(spec, params, ds) >= 0.0


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
