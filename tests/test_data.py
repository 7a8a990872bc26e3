import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtruth.data import (Dataset, PartitionPlan, TriggerSpec, apply_trigger,
                           backdoor_eval_set, dba_shards, edge_case_augment,
                           edge_label_mask, load_idx, partition_label_skew,
                           save_idx, synth_blobs)
from fedtruth.rng import stream


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), 1)


# -- synthetic blobs ---------------------------------------------------------

def test_synth_blobs_balanced_and_bounded():
    ds = synth_blobs(101, 5, 3, 0.2, stream(0, "blobs"))
    assert len(ds) == 101
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_synth_blobs_tiny_spread_separable():
    ds = synth_blobs(200, 4, 2, 1e-6, stream(1, "blobs"))
    # each sample sits essentially on its class vertex
    for c in range(2):
        rows = ds.features[ds.labels == c]
        assert np.allclose(rows[:, c], 1.0, atol=1e-4)


def test_synth_blobs_deterministic_in_seed():
    a = synth_blobs(50, 4, 2, 0.1, stream(5, "blobs"))
    b = synth_blobs(50, 4, 2, 0.1, stream(5, "blobs"))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


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


# spreads so small that spread * z underflows to -0.0 check the sign of zero
@settings(max_examples=150, deadline=None)
@given(n_samples=st.integers(1, 60), n_features=st.integers(2, 12),
       classes=st.integers(2, 12), seed=st.integers(0, 2 ** 32),
       spread=st.one_of(st.sampled_from([5e-324, 1e-320, 1e-300, 0.15]),
                        st.floats(1e-12, 1e3)))
def test_synth_blobs_match_normal_draw_bitwise(n_samples, n_features,
                                               classes, seed, spread):
    n_classes = min(classes, n_features)
    got = synth_blobs(n_samples, n_features, n_classes, spread,
                      stream(seed, "blobs"))
    feats, labels = reference_blobs(n_samples, n_features, n_classes, spread,
                                    stream(seed, "blobs"))
    assert got.features.tobytes() == feats.tobytes()
    assert np.array_equal(got.labels, labels)


def test_synth_blobs_rejects_bad_args():
    with pytest.raises(ValueError):
        synth_blobs(10, 2, 3, 0.1, stream(0, "x"))  # classes > features
    with pytest.raises(ValueError):
        synth_blobs(10, 4, 2, 0.0, stream(0, "x"))


# -- idx ----------------------------------------------------------------------

def test_idx_round_trip(tmp_path):
    rng = stream(2, "idx")
    feats = rng.integers(0, 256, size=(20, 12)).astype(np.float64) / 255.0
    labels = rng.integers(0, 5, size=20)
    ds = Dataset(feats, labels, 5)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(ds, img, lab, rows=3, cols=4)
    loaded = load_idx(img, lab)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)


def test_idx_pixel_scaling(tmp_path):
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([1]), 2)
    save_idx(ds, tmp_path / "i", tmp_path / "l")
    loaded = load_idx(tmp_path / "i", tmp_path / "l")
    assert loaded.features[0, 0] == 1.0
    assert loaded.features[0, 1] == 0.0


def test_idx_wrong_magic_rejected(tmp_path):
    ds = Dataset(np.zeros((3, 4)), np.array([0, 1, 0]), 2)
    save_idx(ds, tmp_path / "i", tmp_path / "l")
    with pytest.raises(ValueError, match="magic"):
        load_idx(tmp_path / "l", tmp_path / "i")  # swapped on purpose


def test_idx_truncated_rejected(tmp_path):
    ds = Dataset(np.zeros((3, 4)), np.array([0, 1, 0]), 2)
    save_idx(ds, tmp_path / "i", tmp_path / "l")
    raw = (tmp_path / "i").read_bytes()
    (tmp_path / "i").write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(tmp_path / "i", tmp_path / "l")


def test_idx_count_mismatch_rejected(tmp_path):
    ds = Dataset(np.zeros((3, 4)), np.array([0, 1, 0]), 2)
    save_idx(ds, tmp_path / "i", tmp_path / "l")
    short = Dataset(np.zeros((2, 4)), np.array([0, 1]), 2)
    save_idx(short, tmp_path / "i2", tmp_path / "l2")
    with pytest.raises(ValueError, match="count"):
        load_idx(tmp_path / "i", tmp_path / "l2")


# -- partitioning ----------------------------------------------------------------

def make_pool(n=3000, classes=4):
    return synth_blobs(n, 6, classes, 0.2, stream(3, "pool"))


def test_partition_sizes_and_primary_round_robin():
    ds = make_pool()
    plan = PartitionPlan(n_clients=8, bias=0.8, samples_per_client=100)
    shards = partition_label_skew(ds, plan, stream(4, "part"))
    assert len(shards) == 8
    assert all(len(s) == 100 for s in shards)
    assert plan.primary_label(5, 4) == 1


def test_partition_bias_one_pure_primary():
    ds = make_pool()
    plan = PartitionPlan(n_clients=4, bias=1.0, samples_per_client=50)
    shards = partition_label_skew(ds, plan, stream(5, "part"))
    for client, shard in enumerate(shards):
        assert np.all(shard.labels == client % 4)


def test_partition_bias_zero_excludes_primary():
    ds = make_pool()
    plan = PartitionPlan(n_clients=4, bias=0.0, samples_per_client=200)
    shards = partition_label_skew(ds, plan, stream(6, "part"))
    for client, shard in enumerate(shards):
        primary = client % 4
        assert np.all(shard.labels != primary)
        # remainder spread over the other labels
        assert len(np.unique(shard.labels)) == 3


def test_partition_primary_share_within_three_sigma():
    ds = make_pool(6000)
    bias, m = 0.8, 400
    plan = PartitionPlan(n_clients=6, bias=bias, samples_per_client=m)
    shards = partition_label_skew(ds, plan, stream(7, "part"))
    sigma = np.sqrt(bias * (1 - bias) / m)
    for client, shard in enumerate(shards):
        share = float((shard.labels == client % 4).mean())
        assert abs(share - bias) <= 3 * sigma


def test_partition_plan_validation():
    # partition_label_skew relies on these: every client draws at least one row
    with pytest.raises(ValueError, match="samples_per_client must be >= 1"):
        PartitionPlan(n_clients=2, bias=0.5, samples_per_client=0)
    with pytest.raises(ValueError, match="n_clients"):
        PartitionPlan(n_clients=0, bias=0.5, samples_per_client=5)
    for bias in (-0.1, 1.1):
        with pytest.raises(ValueError, match="bias"):
            PartitionPlan(n_clients=2, bias=bias, samples_per_client=5)


def test_partition_empty_class_rejected():
    feats = np.random.default_rng(0).random((10, 3))
    ds = Dataset(feats, np.zeros(10, dtype=int), 2)  # class 1 empty
    with pytest.raises(ValueError):
        partition_label_skew(ds, PartitionPlan(2, 0.5, 5), stream(8, "part"))


def test_partition_small_pool_samples_with_replacement():
    ds = synth_blobs(10, 4, 2, 0.2, stream(9, "pool"))
    plan = PartitionPlan(n_clients=2, bias=0.5, samples_per_client=50)
    shards = partition_label_skew(ds, plan, stream(10, "part"))
    assert all(len(s) == 50 for s in shards)


def test_partition_of_kept_rows_matches_partition_of_their_copy():
    # fltrust's root split draws from the kept rows of the pool; the
    # shards must be those of the pool's copy without the root
    ds = make_pool()
    rows = np.flatnonzero(np.random.default_rng(11).random(len(ds)) < 0.7)
    plan = PartitionPlan(n_clients=6, bias=0.8, samples_per_client=120)
    got = partition_label_skew(ds, plan, stream(12, "part"), rows)
    want = partition_label_skew(ds.subset(rows), plan, stream(12, "part"))
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


# -- triggers ----------------------------------------------------------------------

def trigger():
    return TriggerSpec((0, 1, 2, 3), 1.0, 0)


def test_apply_trigger_fraction_zero_identity():
    ds = make_pool(100)
    out, rows = apply_trigger(ds, trigger(), 0.0, stream(11, "trig"))
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)
    assert rows.size == 0


def test_apply_trigger_full_relabels_everything():
    ds = make_pool(100)
    out, rows = apply_trigger(ds, trigger(), 1.0, stream(12, "trig"))
    assert rows.size == 100
    assert np.all(out.labels == 0)
    assert np.all(out.features[:, :4] == 1.0)


def test_apply_trigger_changes_only_selected_coordinates():
    ds = make_pool(200)
    trig = TriggerSpec((2,), 0.7, 1)
    out, rows = apply_trigger(ds, trig, 0.25, stream(13, "trig"))
    untouched = np.setdiff1d(np.arange(len(ds)), rows)
    assert np.array_equal(out.features[untouched], ds.features[untouched])
    assert np.array_equal(out.labels[untouched], ds.labels[untouched])
    changed_cols = np.flatnonzero(
        (out.features[rows] != ds.features[rows]).any(axis=0))
    assert set(changed_cols).issubset({2})
    assert np.all(out.labels[rows] == 1)


def test_trigger_validation():
    with pytest.raises(ValueError):
        TriggerSpec((), 1.0, 0)
    with pytest.raises(ValueError):
        TriggerSpec((1, 1), 1.0, 0)
    with pytest.raises(ValueError, match=">= 0"):  # -1 would pin the last
        TriggerSpec((-1, 2), 1.0, 0)
    ds = make_pool(10)
    with pytest.raises(ValueError):
        apply_trigger(ds, TriggerSpec((99,), 1.0, 0), 0.5, stream(0, "t"))


def test_backdoor_eval_set_excludes_target_label():
    ds = make_pool(200)
    eval_ds = backdoor_eval_set(ds, trigger())
    assert np.all(eval_ds.labels != 0)
    assert np.all(eval_ds.features[:, :4] == 1.0)


# -- DBA shards -----------------------------------------------------------------

def test_dba_even_split():
    shards = dba_shards(trigger(), 2)
    assert [len(s.feature_indices) for s in shards] == [2, 2]


def test_dba_single_adversary_full_trigger():
    shards = dba_shards(trigger(), 1)
    assert shards[0].feature_indices == trigger().feature_indices


def test_dba_partition_property():
    rng = np.random.default_rng(20)
    for _ in range(50):
        size = int(rng.integers(1, 12))
        idx = tuple(rng.choice(100, size=size, replace=False).tolist())
        trig = TriggerSpec(idx, 1.0, 0)
        n_adv = int(rng.integers(1, size + 1))
        shards = dba_shards(trig, n_adv)
        pieces = [s.feature_indices for s in shards]
        merged = [i for piece in pieces for i in piece]
        assert sorted(merged) == sorted(idx)
        assert len(set(merged)) == len(merged)
        sizes = [len(p) for p in pieces]
        assert max(sizes) - min(sizes) <= 1
        assert all(s.target_label == 0 and s.trigger_value == 1.0
                   for s in shards)


def test_dba_more_adversaries_than_indices():
    with pytest.raises(ValueError):
        dba_shards(TriggerSpec((0, 1), 1.0, 0), 3)


# -- edge-case augmentation -------------------------------------------------------

def edge_pool(n=40):
    feats = np.random.default_rng(21).random((n, 6))
    return Dataset(feats, np.full(n, 2), 4)


def augment(client, pool, ratio, rng):
    return edge_case_augment(client, pool, ratio, rng,
                             edge_label_mask(pool, client.n_classes))


def test_edge_augment_ratio_zero_identity():
    client = make_pool(100)
    out = augment(client, edge_pool(), 0.0, stream(22, "edge"))
    assert out is client


def test_edge_augment_count():
    client = make_pool(200)
    matching = int((client.labels == 2).sum())
    out = augment(client, edge_pool(), 0.2, stream(23, "edge"))
    assert len(out) == len(client) + int(0.2 * matching)
    assert np.all(out.labels[len(client):] == 2)


def test_edge_augment_small_pool_replacement():
    client = make_pool(400)
    out = augment(client, edge_pool(3), 0.2, stream(24, "edge"))
    assert len(out) > len(client)


def test_edge_augment_empty_pool_rejected():
    client = make_pool(50)
    empty = Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), 4)
    with pytest.raises(ValueError):
        augment(client, empty, 0.2, stream(25, "edge"))
