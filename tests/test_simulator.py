import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fedtruth.cli import write_round_csv
from fedtruth.config import config_from_dict
from fedtruth.rng import stream
import fedtruth.simulator
from fedtruth.data import (Dataset, PartitionPlan, blob_stream, load_idx,
                           partition_label_skew, synth_blobs)
from fedtruth.simulator import (NonFiniteUpdate, _aggregate,
                                _client_updates, apply_global_update,
                                build_run_data, client_streams,
                                run_experiment, run_round,
                                select_round_roster)
from fedtruth.truth import NonFiniteWeights
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig,
                               extract_update, init_model, train_roster)
from fedtruth.aggregators import fedavg, flame, fltrust

from helpers import assert_same_datasets, save_idx, without_timing_bytes
from oracles import run_data_reference


def config_dict(**over):
    d = {
        "master_seed": 1,
        "dataset": {"noniid_bias": 0.8, "samples_per_client": 40,
                    "synth": {"n_train": 600, "n_test": 200,
                              "n_features": 8, "n_classes": 2,
                              "spread": 0.2}},
        "fl": {"total_clients": 8, "clients_per_round": 5, "rounds": 3,
               "learning_rate": 0.3, "local_epochs": 1, "batch_size": 16},
        "attack": {"kind": "none", "n_adversaries": 0},
        "aggregator": {"kind": "fedavg"},
    }
    for key, value in over.items():
        section, _, leaf = key.partition(".")
        if leaf:
            d.setdefault(section, {})[leaf] = value
        else:
            d[section] = value
    return d


def base_config(**over):
    return config_from_dict(config_dict(**over))


# -- roster -------------------------------------------------------------------

def test_roster_full_pool_when_everyone_selected():
    roster, advs = select_round_roster(6, 6, 0, 0, 42)
    assert roster.tolist() == [0, 1, 2, 3, 4, 5]
    assert advs.size == 0


def test_roster_deterministic_per_round():
    a = select_round_roster(20, 10, 3, 4, 7)
    b = select_round_roster(20, 10, 3, 4, 7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    rosters = [select_round_roster(20, 10, 3, r, 7)[0] for r in range(6)]
    assert any(not np.array_equal(rosters[0], r) for r in rosters[1:])


def test_roster_adversaries_subset_of_roster():
    for r in range(10):
        roster, advs = select_round_roster(30, 10, 4, r, 3)
        assert set(advs).issubset(set(roster))
        assert len(set(advs)) == 4


def test_roster_rejects_oversized_requests():
    with pytest.raises(ValueError):
        select_round_roster(5, 10, 0, 0, 0)
    with pytest.raises(ValueError):
        select_round_roster(10, 5, 6, 0, 0)


# -- global update ------------------------------------------------------------

def test_apply_global_update_identities():
    spec = ModelSpec(ModelKind.LOGREG, 4, 2)
    w = init_model(spec, 0)
    delta = np.full_like(w, 2.0)
    assert np.array_equal(apply_global_update(w, delta, 0.0), w)
    out = apply_global_update(w, delta, 0.5)
    assert out == pytest.approx(w - 1.0)


def test_eta_one_recovers_single_client_model():
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    w = init_model(spec, 1)
    ds = synth_blobs(50, 6, 2, 0.2, stream(0, "d"))
    local = train_roster(w, [ds], spec, TrainConfig(learning_rate=0.2),
                         [stream(0, "t")])[0]
    delta = extract_update(w, local)
    recovered = apply_global_update(w, delta, 1.0)
    assert np.array_equal(recovered, local)


# -- fltrust server model -------------------------------------------------------

def test_fltrust_small_root_still_trains():
    cfg = base_config(**{"aggregator.kind": "fltrust"})
    cfg.fltrust_root_fraction = 0.02
    reports = run_experiment(cfg)
    assert len(reports) == 3


def setup_peak_bytes(cfg):
    tracemalloc.start()
    try:
        build_run_data(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fltrust_root_split_makes_no_pool_copy():
    # the split used to copy the pool minus its root while the pool was
    # still alive; shards far smaller than the pool would hide no such copy
    n_train, n_features = 4000, 100
    dims = {"dataset.synth": {"n_train": n_train, "n_test": 200,
                              "n_features": n_features, "n_classes": 2,
                              "spread": 0.2}}
    build_run_data(base_config(**dims))  # first-call costs out of the peaks
    fedavg_peak = setup_peak_bytes(base_config(**dims))
    fltrust_peak = setup_peak_bytes(
        base_config(**dims, **{"aggregator.kind": "fltrust"}))
    pool_bytes = n_train * (n_features + 1) * 8  # features and labels
    assert fltrust_peak - fedavg_peak < pool_bytes / 2


STREAMED_DIMS = {"dataset.synth": {"n_train": 997, "n_test": 50,
                                   "n_features": 12, "n_classes": 5,
                                   "spread": 0.3}}


@pytest.mark.parametrize("kind", ["fedavg", "fltrust"])
def test_shards_and_root_are_those_of_the_whole_pool(kind):
    cfg = base_config(**STREAMED_DIMS, **{"aggregator.kind": kind})
    data = build_run_data(cfg)
    shards, root = run_data_reference(cfg)
    assert_same_datasets(data.shards, shards)
    assert (data.root_set is None) == (root is None)
    if root is not None:
        assert_same_datasets([data.root_set], [root])


def test_idx_shards_and_root_are_those_of_the_whole_pool(tmp_path):
    # 300 pixels an image: the pool is read in 4 blocks
    rng = stream(6, "idx")
    train = Dataset(rng.integers(0, 256, size=(700, 300)) / 255.0,
                    rng.integers(0, 3, size=700), 3)
    save_idx(train, tmp_path / "img", tmp_path / "lab")
    paths = {"train_images": "img", "train_labels": "lab",
             "test_images": "img", "test_labels": "lab"}
    cfg = base_config(**{"dataset.source": "idx",
                         "dataset.idx": {k: str(tmp_path / v)
                                         for k, v in paths.items()},
                         "aggregator.kind": "fltrust"})
    data = build_run_data(cfg)
    shards, root = run_data_reference(cfg)
    assert_same_datasets([*data.shards, data.root_set], shards + [root])


def test_setup_never_holds_the_pool_and_the_shards_at_once():
    # the pool is read block by block into the shard table, so setup
    # peaks below the pool and the shards together
    n_train, n_features, clients, m = 3000, 100, 20, 60
    cfg = base_config(**{"dataset.synth": {"n_train": n_train,
                                           "n_test": 200,
                                           "n_features": n_features,
                                           "n_classes": 10, "spread": 0.2},
                         "dataset.samples_per_client": m,
                         "fl.total_clients": clients})
    build_run_data(cfg)  # first-call costs out of the peak
    row_bytes = (n_features + 1) * 8  # features and label
    assert setup_peak_bytes(cfg) < (n_train + clients * m) * row_bytes


def test_the_run_table_holds_each_drawn_pool_row_once():
    # 80 clients of 100 rows draw from a 600-row pool: most pool rows are
    # drawn by several clients, and the table holds each of them once
    n_train, n_features, clients, m = 600, 300, 80, 100
    cfg = base_config(**{"dataset.synth": {"n_train": n_train, "n_test": 2,
                                           "n_features": n_features,
                                           "n_classes": 2, "spread": 0.2},
                         "dataset.samples_per_client": m,
                         "dataset.noniid_bias": 0.9,
                         "fl.total_clients": clients})
    data = build_run_data(cfg)  # also takes first-call costs out of the peak
    labels = blob_stream(n_train, n_features, 2, 0.2,
                         stream(cfg.master_seed, "data-train")).labels
    ids = np.concatenate(partition_label_skew(
        labels, 2, PartitionPlan(clients, 0.9, m),
        stream(cfg.master_seed, "partition")))
    table = data.shards[0].table
    assert all(shard.table is table for shard in data.shards)
    assert len(table) == len(np.unique(ids)) < len(ids)
    row_bytes = (n_features + 1) * 8  # features and label
    block_rows = n_train // 2  # the blob stream's class block
    # besides the rows, room for four int64 row-id vectors of the draw
    bound = (len(table) + block_rows) * row_bytes + 4 * 8 * len(ids)
    assert setup_peak_bytes(cfg) < bound


def run_data_leaves(value, path="data"):
    """(path, value) of every leaf of a RunData: its fields, walked
    through dataclasses and tuples; an array is a leaf."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from run_data_leaves(getattr(value, field.name),
                                       f"{path}.{field.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from run_data_leaves(item, f"{path}[{i}]")
    else:
        yield path, value


# between them, every field of a RunData holds a value
SETUP_CASES = {
    "fltrust-dba": {"aggregator.kind": "fltrust",
                    "attack": {"kind": "backdoor", "n_adversaries": 2,
                               "backdoor": {"flavor": "dba",
                                            "n_trigger_features": 2}}},
    "edge": {"attack": {"kind": "backdoor", "n_adversaries": 2,
                        "backdoor": {"flavor": "edge", "target_label": 1,
                                     "edge_ratio": 0.3}}},
}


def test_shared_rows_are_read_only():
    # shards share the table's rows: a write into one client's rows must
    # raise instead of reaching every client that drew them
    data = build_run_data(base_config(**{"aggregator.kind": "fltrust"}))
    table = data.shards[0].table
    for array in (table.features, table.labels, data.shards[0].rows,
                  data.root_set.rows):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    data.shards[0].features[0] = -1.0  # a read is a copy of the rows
    assert (table.features >= 0.0).all()
    # every round reads the whole setup, so no array of it takes a write
    seen = set()
    for over in SETUP_CASES.values():
        arrays = {path: value for path, value
                  in run_data_leaves(build_run_data(base_config(**over)))
                  if isinstance(value, np.ndarray)}
        for array in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        seen |= arrays.keys()
    assert {f"data.{ds}.{field}" for ds in ("test_set", "backdoor_test",
                                            "edge_pool")
            for field in ("features", "labels")} <= seen
    assert {"data.shards[0].table.features", "data.shards[0].rows",
            "data.root_set.rows", "data.initial_model"} <= seen


@pytest.mark.parametrize("case", sorted(SETUP_CASES))
def test_setup_is_rebuilt_equal_array_for_array(case):
    cfg = base_config(**SETUP_CASES[case])
    first, second = (list(run_data_leaves(build_run_data(cfg)))
                     for _ in range(2))
    assert [path for path, _ in first] == [path for path, _ in second]
    for (path, a), (_, b) in zip(first, second):
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes()), path
        else:
            assert a == b, path


def test_a_root_set_that_takes_a_whole_class_is_refused():
    # two pool rows, one per class: the root takes one of them, and the
    # partition used to die with an untyped "class c has no samples"
    cfg = base_config(**{"dataset.synth": {"n_train": 2, "n_test": 50,
                                           "n_features": 8, "n_classes": 2,
                                           "spread": 0.2},
                         "aggregator.kind": "fltrust",
                         "fltrust_root_fraction": 0.5})
    taken = int(stream(cfg.master_seed, "root").choice(2, size=1)[0])
    with pytest.raises(ValueError, match=rf"^fltrust_root_fraction: .*"
                                         rf"\bclass {taken}\b"):
        run_experiment(cfg)


def test_idx_backdoor_without_a_row_off_the_target_is_refused(tmp_path):
    # validate() cannot see IDX labels; setup names the key and the file
    rng = stream(7, "idx")
    train = Dataset(rng.integers(0, 256, size=(200, 12)) / 255.0,
                    rng.integers(0, 2, size=200), 2)
    test = Dataset(rng.integers(0, 256, size=(10, 12)) / 255.0,
                   np.zeros(10, dtype=int), 2)
    save_idx(train, tmp_path / "train-img", tmp_path / "train-lab")
    save_idx(test, tmp_path / "test-img", tmp_path / "test-lab")
    cfg = base_config(**{"dataset.source": "idx",
                         "dataset.idx": {
                             "train_images": str(tmp_path / "train-img"),
                             "train_labels": str(tmp_path / "train-lab"),
                             "test_images": str(tmp_path / "test-img"),
                             "test_labels": str(tmp_path / "test-lab")}},
                      attack={"kind": "backdoor", "n_adversaries": 1,
                              "backdoor": {"flavor": "trigger",
                                           "target_label": 0}})
    with pytest.raises(ValueError) as info:
        run_experiment(cfg)
    message = str(info.value)
    assert message.startswith("attack.backdoor.target_label: ")
    assert str(tmp_path / "test-img") in message


def test_idx_backdoor_target_outside_the_pool_classes_is_refused(tmp_path):
    # the 2-class pool has no label 5; rounds used to die in apply_trigger
    # with an unkeyed "target label outside class range"
    cfg = idx_config(tmp_path, attack={
        "kind": "backdoor", "n_adversaries": 1,
        "backdoor": {"flavor": "trigger", "target_label": 5}})
    with pytest.raises(ValueError, match=r"^attack\.backdoor\.target_label: "
                                         r"5 outside \[0, 2\)"):
        build_run_data(cfg)
    cfg.attack.backdoor.target_label = 1
    assert len(run_experiment(cfg)) == cfg.fl.rounds


def test_idx_test_images_of_another_width_are_refused(tmp_path):
    # 6-feature test images against 4-feature training images used to
    # train a round and then fail in predict with numpy's matmul error
    rng = stream(8, "idx")
    test = Dataset(rng.integers(0, 256, size=(10, 6)) / 255.0,
                   rng.integers(0, 2, size=10), 2)
    cfg = idx_config(tmp_path, test)
    with pytest.raises(ValueError, match=r"^dataset\.idx\.test_images: "
                                         r".* 6 features, .* 4$"):
        build_run_data(cfg)


def test_idx_test_labels_the_pool_lacks_are_refused(tmp_path):
    # a 5-class test set against the 2-class pool used to run, scoring
    # its rows of labels 2-4 as misses that no 2-class model can avoid
    rng = stream(8, "idx")
    test = Dataset(rng.integers(0, 256, size=(10, 4)) / 255.0,
                   np.arange(10) % 5, 5)
    cfg = idx_config(tmp_path, test)
    with pytest.raises(ValueError, match=r"^dataset\.idx\.test_labels: "
                                         r".* 5 classes, .* 2$"):
        build_run_data(cfg)


def test_idx_training_labels_with_an_empty_class_are_refused(tmp_path):
    # labels {0, 2} make 3 classes, and partition_label_skew used to
    # refuse the run without a key: "class 1 has no samples to draw from"
    cfg = idx_config(tmp_path)
    idx = cfg.dataset.idx
    train = load_idx(idx.train_images, idx.train_labels)
    save_idx(Dataset(train.features, 2 * train.labels, 3),
             idx.train_images, idx.train_labels)
    with pytest.raises(ValueError, match=r"^dataset\.idx\.train_labels: "
                                         r".* no row of class 1$"):
        build_run_data(cfg)


# -- full runs -----------------------------------------------------------------

def test_fedavg_all_benign_conservation():
    # the round's 1/n weights are the sample-count weights of its shards,
    # bit for bit: every shard holds samples_per_client rows
    cfg = base_config()
    data = build_run_data(cfg)
    w = data.initial_model
    roster, advs = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = _client_updates(cfg, data, client_streams(cfg), w, 0, roster,
                              advs)
    counts = np.array([len(data.shards[int(c)]) for c in roster], float)
    delta, weights, _ = _aggregate(cfg, data, w, updates, 0)
    assert np.array_equal(delta, fedavg(updates))
    assert np.array_equal(weights, counts / counts.sum())
    assert np.asarray(weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert len(run_experiment(cfg)) == cfg.fl.rounds


def report_fields(reports):
    """Each report's fields, aggregation_wall_time left out; a report may
    also come as a dict of its fields, as a JSON round trip gives it."""
    rows = [r if isinstance(r, dict) else dataclasses.asdict(r)
            for r in reports]
    return [{key: value for key, value in row.items()
             if key != "aggregation_wall_time"} for row in rows]


SRC = Path(__file__).resolve().parents[1] / "src"

# between them, they reach every per-client stream, DBA triggers, the edge
# pool, PGD and constrain-and-scale
ONE_PROCESS_CASES = {
    "noise": {"attack": {"kind": "gaussian_noise", "strategy": "base",
                         "n_adversaries": 2, "sigma": 0.5}},
    "dba": {"attack": {"kind": "backdoor", "n_adversaries": 2,
                       "backdoor": {"flavor": "dba",
                                    "n_trigger_features": 2}}},
    "edge-pgd": {"attack": {"kind": "backdoor",
                            "strategy": "constrain_and_scale",
                            "n_adversaries": 2, "alpha": 0.5,
                            "boosting_factor": 2.0, "pgd_radius": 0.5,
                            "backdoor": {"flavor": "edge",
                                         "target_label": 1,
                                         "edge_ratio": 0.3}}},
}


def fresh_process_fields(config_json):
    """report_fields of a run of the JSON config in a new interpreter."""
    code = ("import dataclasses, json, sys\n"
            "from fedtruth.config import config_from_dict\n"
            "from fedtruth.simulator import run_experiment\n"
            "cfg = config_from_dict(json.loads(sys.argv[1]))\n"
            "print(json.dumps([dataclasses.asdict(r)\n"
            "                  for r in run_experiment(cfg)]))\n")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, config_json],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout
    return report_fields(json.loads(out))


@pytest.mark.parametrize("case", sorted(ONE_PROCESS_CASES))
def test_runs_in_one_process_share_no_state(case):
    # the benchmark runs several master seeds in one process: a run must
    # read nothing an earlier one left behind
    configs = {seed: json.dumps(config_dict(master_seed=seed,
                                            **ONE_PROCESS_CASES[case]))
               for seed in (1, 2)}
    fresh = {seed: fresh_process_fields(c) for seed, c in configs.items()}
    for seed in (1, 2, 1):
        cfg = config_from_dict(json.loads(configs[seed]))
        assert report_fields(run_experiment(cfg)) == fresh[seed]


def test_run_deterministic_in_master_seed():
    cfg_a = base_config(**{"aggregator.kind": "fedtruth"})
    cfg_b = base_config(**{"aggregator.kind": "fedtruth"})
    assert report_fields(run_experiment(cfg_a)) == \
        report_fields(run_experiment(cfg_b))


def test_different_seed_changes_course():
    cfg_a = base_config()
    cfg_b = base_config(master_seed=99)
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)
    assert report_fields(ra) != report_fields(rb)


def test_threat_model_guard():
    with pytest.raises(ValueError, match="threat model"):
        base_config(attack={"kind": "model_boost",
                            "strategy": "with_boosting",
                            "n_adversaries": 3})  # 3 >= 5/2
    cfg = base_config(attack={"kind": "model_boost",
                              "strategy": "with_boosting",
                              "n_adversaries": 3},
                      allow_majority_adversaries=True)
    assert cfg.attack.n_adversaries == 3


def test_noise_and_constrain_scale_rejected():
    with pytest.raises(ValueError):
        base_config(attack={"kind": "gaussian_noise",
                            "strategy": "constrain_and_scale",
                            "n_adversaries": 2})


@pytest.mark.parametrize("agg", ["fedtruth", "fedtruth_layer", "fedavg",
                                 "krum", "median", "trimmed_mean",
                                 "fltrust", "flame"])
def test_every_aggregator_completes(agg):
    cfg = base_config(**{"aggregator.kind": agg})
    cfg.fl.total_clients = 8
    reports = run_experiment(cfg)
    assert len(reports) == 3
    for r in reports:
        assert 0.0 <= r.main_accuracy <= 1.0
        if r.weights is not None:
            assert sum(r.weights) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind", ["flame", "fltrust"])
def test_report_weights_come_from_the_aggregate(kind):
    cfg = base_config(**{"aggregator.kind": kind})
    data = build_run_data(cfg)
    w = data.initial_model
    roster, advs = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = _client_updates(cfg, data, client_streams(cfg), w, 0, roster,
                              advs)
    delta, weights, _ = _aggregate(cfg, data, w, updates, 0)
    if kind == "flame":
        expected, kept = flame(updates, cfg.aggregator.flame_noise_factor,
                               stream(cfg.master_seed, "flame", 0))
        want = np.zeros(len(updates))
        want[kept] = 1.0 / len(kept)
    else:
        server = extract_update(w, train_roster(
            w, [data.root_set], data.model_spec,
            cfg.fl.train_config(),
            [stream(cfg.master_seed, "fltrust", 0)])[0])
        expected, scores = fltrust(updates, server)
        want = scores / scores.sum()
    assert np.array_equal(delta, expected)
    assert np.array_equal(weights, want)
    assert len(set(want.tolist())) > 1  # label skew: not uniform


def test_krum_report_weights_one_hot():
    cfg = base_config(**{"aggregator.kind": "krum"},
                      attack={"kind": "model_boost",
                              "strategy": "with_boosting",
                              "n_adversaries": 1})
    reports = run_experiment(cfg)
    for r in reports:
        w = np.asarray(r.weights)
        assert (w == 1.0).sum() == 1 and (w == 0.0).sum() == len(w) - 1


def test_backdoor_run_reports_backdoor_accuracy():
    cfg = base_config(
        attack={"kind": "backdoor", "strategy": "base", "n_adversaries": 2,
                "backdoor": {"flavor": "dba", "n_trigger_features": 2,
                             "trigger_value": 1.0, "target_label": 0,
                             "poison_fraction": 0.5}},
        **{"aggregator.kind": "fedtruth", "aggregator.distance": "cosine"})
    reports = run_experiment(cfg)
    for r in reports:
        assert r.backdoor_accuracy is not None
        assert 0.0 <= r.backdoor_accuracy <= 1.0
        assert len(r.adversary_ids) == 2
        assert r.fedtruth_iterations >= 1


def test_no_attack_trains_adversaries_benignly():
    # the roster is drawn before the adversaries, so with no attack the
    # designated adversaries change nothing but the reported ids
    def run(n_adversaries):
        cfg = base_config(**{"aggregator.kind": "fedtruth", "fl.rounds": 4},
                          attack={"kind": "none",
                                  "n_adversaries": n_adversaries})
        return run_experiment(cfg)

    attacked, clean = run(4), run(0)
    assert all(len(r.adversary_ids) == 4 for r in attacked)
    assert [(r.main_accuracy, r.weights) for r in attacked] == \
        [(r.main_accuracy, r.weights) for r in clean]


def test_no_attack_run_has_no_backdoor_column():
    reports = run_experiment(base_config())
    assert all(r.backdoor_accuracy is None for r in reports)
    assert all(r.fedtruth_iterations is None for r in reports)


def test_edge_case_flavor_runs():
    cfg = base_config(
        attack={"kind": "backdoor", "strategy": "base", "n_adversaries": 2,
                "backdoor": {"flavor": "edge", "target_label": 1,
                             "edge_ratio": 0.2}})
    reports = run_experiment(cfg)
    assert all(r.backdoor_accuracy is not None for r in reports)


def test_constrain_and_scale_and_pgd_run():
    cfg = base_config(
        attack={"kind": "backdoor", "strategy": "constrain_and_scale",
                "n_adversaries": 2, "alpha": 0.5, "boosting_factor": 2.0,
                "pgd_radius": 0.5,
                "backdoor": {"flavor": "trigger", "n_trigger_features": 2,
                             "poison_fraction": 0.5}})
    reports = run_experiment(cfg)
    assert len(reports) == 3


def test_auto_boosting_factor_resolves_per_round():
    cfg = base_config(
        attack={"kind": "model_boost", "strategy": "with_boosting",
                "n_adversaries": 2, "boosting_factor": "auto"})
    assert cfg.attack.boosting_factor == "auto"
    assert cfg.attack.resolve_factor(5, 2) == pytest.approx(2.5)
    reports = run_experiment(cfg)
    assert len(reports) == 3


def test_adversary_weight_audit_under_boosting():
    # boosted adversaries must carry less weight than every benign client
    # in nearly all rounds once training settles
    cfg = config_from_dict({
        "master_seed": 3,
        "dataset": {"noniid_bias": 0.8, "samples_per_client": 60,
                    "synth": {"n_train": 2500, "n_test": 300,
                              "n_features": 20, "n_classes": 2,
                              "spread": 0.45}},
        "fl": {"total_clients": 20, "clients_per_round": 10, "rounds": 40,
               "learning_rate": 1.0, "server_lr": 0.6, "local_epochs": 30,
               "batch_size": 60},
        "attack": {"kind": "model_boost", "strategy": "with_boosting",
                   "n_adversaries": 3, "boosting_factor": 10.0},
        "aggregator": {"kind": "fedtruth", "distance": "euclidean"},
    })
    reports = run_experiment(cfg)
    hits = total = 0
    for r in reports[5:]:
        adv = [w for c, w in zip(r.client_ids, r.weights)
               if c in r.adversary_ids]
        ben = [w for c, w in zip(r.client_ids, r.weights)
               if c not in r.adversary_ids]
        total += 1
        if max(adv) < min(ben):
            hits += 1
    assert hits / total >= 0.95


def test_nonfinite_model_reported_with_round():
    # gradients saturate, so overflow needs boost and server step together
    cfg = base_config(
        attack={"kind": "model_boost", "strategy": "with_boosting",
                "n_adversaries": 2, "boosting_factor": 1e300},
        **{"fl.rounds": 3, "fl.server_lr": 1e10})
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match="round"):
            run_experiment(cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_client_update_names_round_and_client(bad, monkeypatch):
    cfg = base_config()
    roster, _ = select_round_roster(8, 5, 0, 1, cfg.master_seed)
    victim = int(roster[2])

    def one_bad_entry(*args):
        updates = _client_updates(*args)
        round_index, roster = args[4:6]
        if round_index == 1:
            updates[list(roster).index(victim), 3] = bad
        return updates

    monkeypatch.setattr(fedtruth.simulator, "_client_updates", one_bad_entry)
    with pytest.raises(NonFiniteUpdate) as info:
        run_experiment(cfg)
    assert info.value.round_index == 1
    assert info.value.client == victim


def test_nonfinite_global_model_names_round_without_client():
    # finite client updates whose server step overflows
    cfg = base_config(
        attack={"kind": "model_boost", "strategy": "with_boosting",
                "n_adversaries": 2, "boosting_factor": 1e300},
        **{"fl.rounds": 3, "fl.server_lr": 1e10})
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteUpdate) as info:
            run_experiment(cfg)
    assert info.value.round_index == 0
    assert info.value.client is None


@pytest.mark.parametrize("kind", ["fedtruth", "fedtruth_layer"])
def test_nonfinite_estimator_weights_name_round_without_client(kind):
    # a boosted update of 1e305 * u is finite, but its distances overflow
    cfg = base_config(
        attack={"kind": "model_boost", "strategy": "with_boosting",
                "n_adversaries": 2, "boosting_factor": 1e305},
        **{"aggregator.kind": kind})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteUpdate) as info:
            run_experiment(cfg)
    assert info.value.round_index == 0
    assert info.value.client is None
    assert isinstance(info.value.__cause__, NonFiniteWeights)
    assert caught == []  # numpy's overflow warnings stay in the estimator


def test_every_model_trains_through_train_roster(tmp_path, monkeypatch):
    # fltrust's server model and the benign models of constrain-and-scale
    # adversaries go through the same module attribute as the roster's
    cfg = base_config(
        **{"aggregator.kind": "fltrust", "fl.rounds": 2},
        attack={"kind": "backdoor", "strategy": "constrain_and_scale",
                "n_adversaries": 2, "alpha": 0.5, "boosting_factor": 2.0,
                "backdoor": {"flavor": "edge", "target_label": 1,
                             "edge_ratio": 0.3}})
    plain = tmp_path / "plain.csv"
    write_round_csv(plain, cfg, run_experiment(cfg))

    data = build_run_data(cfg)
    calls = {"client": 0, "server": 0}
    trained = {"client": 0, "server": 0}
    train_roster = fedtruth.simulator.train_roster

    def counting(params, datasets, *args):
        kind = "server" if any(ds is data.root_set for ds in datasets) \
            else "client"
        calls[kind] += 1
        trained[kind] += len(datasets)
        return train_roster(params, datasets, *args)

    monkeypatch.setattr(fedtruth.simulator, "train_roster", counting)
    counted = tmp_path / "counted.csv"
    write_round_csv(counted, cfg,
                    run_rounds(cfg, data, client_streams(cfg))[1])
    rounds = cfg.fl.rounds
    # one call trains a round's clients, one its server model
    assert calls == {"client": rounds, "server": rounds}
    assert trained == {
        "client": rounds * (cfg.fl.clients_per_round
                            + cfg.attack.n_adversaries),
        "server": rounds}
    assert without_timing_bytes(counted) == without_timing_bytes(plain)


def traced_calls(tmp_path, monkeypatch, cfg, names):
    """The calls of `names` made through the simulator module in a run of
    cfg, by name in call order; the run must write the bytes of an
    unwrapped one."""
    plain = tmp_path / "plain.csv"
    write_round_csv(plain, cfg, run_experiment(cfg))

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(fedtruth.simulator, name,
                            counted(name, getattr(fedtruth.simulator, name)))
    wrapped = tmp_path / "wrapped.csv"
    write_round_csv(wrapped, cfg, run_experiment(cfg))
    assert without_timing_bytes(wrapped) == without_timing_bytes(plain)
    return calls


def test_traced_names_are_read_through_the_simulator(tmp_path, monkeypatch):
    # a tracer rebinds these attributes of the simulator module, so the
    # round loop must look each one up there, at call time
    cfg = base_config(**{"aggregator.kind": "fedtruth"})
    calls = traced_calls(tmp_path, monkeypatch, cfg,
                         ["select_round_roster", "estimate_truth"])
    assert Counter(calls) == {"select_round_roster": 3, "estimate_truth": 3}


def test_setup_names_are_read_through_the_simulator(tmp_path, monkeypatch):
    # a tracer times setup as everything before the first roster draw and
    # its data and rng layers by these names, so setup must call each one
    # through the simulator module, before the first roster draw
    cfg = base_config(attack={"kind": "backdoor", "n_adversaries": 2,
                              "backdoor": {"flavor": "dba",
                                           "n_trigger_features": 2}})
    calls = traced_calls(tmp_path, monkeypatch, cfg, [
        "synth_blobs", "partition_label_skew", "backdoor_eval_set",
        "dba_shards", "shard_table", "stream", "select_round_roster"])
    first_round = calls.index("select_round_roster")
    # the streams of the pool, the test set, the initial model and the
    # partition
    assert Counter(calls[:first_round]) == {
        "synth_blobs": 1, "partition_label_skew": 1, "backdoor_eval_set": 1,
        "dba_shards": 1, "shard_table": 1, "stream": 4}
    assert calls.count("select_round_roster") == cfg.fl.rounds


def test_fltrust_zero_server_update_falls_back():
    # zero local learning rate gives a zero server reference; the round
    # falls back to the (zero) server update and the model stays put
    cfg = base_config(**{"aggregator.kind": "fltrust",
                         "fl.learning_rate": 0.0})
    reports = run_experiment(cfg)
    accs = {r.main_accuracy for r in reports}
    assert len(accs) == 1  # model never moves


def idx_config(tmp_path, test_set=None, **over):
    """A run on a 4-feature IDX training file, tested on that file unless
    `test_set` is given."""
    train = synth_blobs(300, 4, 2, 0.2, stream(5, "d"))
    train = Dataset(np.rint(train.features * 255.0) / 255.0, train.labels,
                    train.n_classes)
    save_idx(train, tmp_path / "train-img", tmp_path / "train-lab")
    test = "train"
    if test_set is not None:
        save_idx(test_set, tmp_path / "test-img", tmp_path / "test-lab")
        test = "test"
    idx = {"train_images": str(tmp_path / "train-img"),
           "train_labels": str(tmp_path / "train-lab"),
           "test_images": str(tmp_path / f"{test}-img"),
           "test_labels": str(tmp_path / f"{test}-lab")}
    return base_config(**{"dataset.source": "idx", "dataset.idx": idx,
                          "dataset.samples_per_client": 20}, **over)


def test_empty_idx_test_set_refused_at_setup(tmp_path):
    # evaluating on no rows gives no accuracy, so setup refuses the file
    empty = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 2)
    cfg = idx_config(tmp_path, empty)
    with pytest.raises(ValueError):
        build_run_data(cfg)
    # the same files with the training images as test set do run
    cfg.dataset.idx.test_images = cfg.dataset.idx.train_images
    cfg.dataset.idx.test_labels = cfg.dataset.idx.train_labels
    assert len(run_experiment(cfg)) == cfg.fl.rounds


def test_idx_trigger_indices_refused_at_setup(tmp_path):
    # validate() cannot see how many features an idx file holds, so setup
    # makes the same keyed check
    cfg = idx_config(tmp_path, attack={
        "kind": "backdoor", "n_adversaries": 1,
        "backdoor": {"feature_indices": [2, 4]}})
    with pytest.raises(ValueError, match=r"^attack\.backdoor\."
                       r"feature_indices: \[4\] outside \[0, 4\)$"):
        build_run_data(cfg)
    cfg.attack.backdoor.feature_indices = [2, 3]
    assert len(run_experiment(cfg)) == cfg.fl.rounds


def test_fedtruth_layer_uses_model_layers():
    cfg = base_config(**{"aggregator.kind": "fedtruth_layer",
                         "model.kind": "mlp", "model.hidden_units": 4})
    reports = run_experiment(cfg)
    assert all(r.fedtruth_iterations >= 1 for r in reports)


# -- pinned outputs ------------------------------------------------------------

PINNED_RUNS = {
    "mlp-layer-noise": (
        {"model": {"kind": "mlp", "hidden_units": 4},
         "aggregator": {"kind": "fedtruth_layer"},
         "attack": {"kind": "gaussian_noise", "strategy": "base",
                    "n_adversaries": 2, "sigma": 0.5}},
        "e0a306501895524cb2a5d1e1d437cea0abca70157b9f588e244957f6e04a1ef8"),
    "dba-pgd": (
        {"aggregator": {"kind": "fedtruth", "distance": "cosine"},
         "attack": {"kind": "backdoor", "strategy": "with_boosting",
                    "n_adversaries": 2, "boosting_factor": 3.0,
                    "pgd_radius": 0.4,
                    "backdoor": {"flavor": "dba", "n_trigger_features": 2,
                                 "trigger_value": 1.0, "target_label": 0,
                                 "poison_fraction": 0.5}}},
        "dfd4242042561bb79ed94b35d8e272c643b3689a912cdf324ebb847ac485767b"),
    "edge-cs-fltrust": (
        {"aggregator": {"kind": "fltrust"},
         "attack": {"kind": "backdoor", "strategy": "constrain_and_scale",
                    "n_adversaries": 2, "alpha": 0.5,
                    "boosting_factor": 2.0,
                    "backdoor": {"flavor": "edge", "target_label": 1,
                                 "edge_ratio": 0.3}}},
        "0c02f8a0f4674aa7646d4ed55ef824b7653b213642e2ebebede23ac5f24561c7"),
    # the distance kinds and the coefficient that no golden output covers
    "manhattan-boost": (
        {"aggregator": {"kind": "fedtruth", "distance": "manhattan"},
         "attack": {"kind": "model_boost", "strategy": "with_boosting",
                    "n_adversaries": 2, "boosting_factor": 5.0}},
        "3412389c91d3351796ade88fbe9771aadbec55d2c83931309d019beb08ab4925"),
    "angular-layer-noise": (
        {"model": {"kind": "mlp", "hidden_units": 4},
         "aggregator": {"kind": "fedtruth_layer", "distance": "angular"},
         "attack": {"kind": "gaussian_noise", "strategy": "base",
                    "n_adversaries": 2, "sigma": 0.5}},
        "a42c98e5855ec164583a607b89d80e54281fbb1a0432489ea28358cb0aa62d73"),
    "custom-trigger": (
        {"aggregator": {"kind": "fedtruth", "distance": "custom"},
         "attack": {"kind": "backdoor", "strategy": "with_boosting",
                    "n_adversaries": 2, "boosting_factor": 2.0,
                    "backdoor": {"flavor": "trigger", "n_trigger_features": 2,
                                 "trigger_value": 1.0, "target_label": 0,
                                 "poison_fraction": 0.5}}},
        "ef5ebf627861645a8fd107e24052ce7055d2762cf698920f06392327bd97e72f"),
    "inverse-boost": (
        {"aggregator": {"kind": "fedtruth", "coefficient": "inverse"},
         "attack": {"kind": "model_boost", "strategy": "with_boosting",
                    "n_adversaries": 2, "boosting_factor": 5.0}},
        "fbb4d33d51744754184ba69e28b78294171f8ac94a0f2550bf1bf97a2d48c059"),
    # d = 6564, so local training splits each 20-client roster into blocks
    # of 9, 9 and 2 clients
    "mlp-multi-block": (
        {"dataset": {"noniid_bias": 0.8, "samples_per_client": 40,
                     "synth": {"n_train": 1200, "n_test": 200,
                               "n_features": 200, "n_classes": 4,
                               "spread": 0.2}},
         "model": {"kind": "mlp", "hidden_units": 32},
         "fl": {"total_clients": 24, "clients_per_round": 20, "rounds": 2,
                "learning_rate": 0.3, "local_epochs": 1, "batch_size": 16},
         "attack": {"kind": "gaussian_noise", "strategy": "base",
                    "n_adversaries": 4, "sigma": 0.5},
         "aggregator": {"kind": "fedtruth"}},
        "908036976ef304d814616d651194604a20e86892c236e8955eb6c2e89c2ff121"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_small_runs_match_pinned_digests(name, tmp_path):
    # per-round CSV bytes without agg_time_s, as the committed goldens are
    # compared: a refactor of training, attacks or aggregation that changes
    # any float in any round changes the digest
    over, digest = PINNED_RUNS[name]
    # 4 rounds, unless the case replaces the whole "fl" section
    cfg = base_config(**{"fl.rounds": 4}, **over)
    path = tmp_path / "run.csv"
    write_round_csv(path, cfg, run_experiment(cfg))
    kept = b"".join(without_timing_bytes(path))
    assert hashlib.sha256(kept).hexdigest() == digest


# -- round purity ----------------------------------------------------------------

PURITY_CASES = {
    "fedavg": {},
    "fltrust": {"aggregator.kind": "fltrust"},
    "edge": {"attack": {"kind": "backdoor",
                        "strategy": "constrain_and_scale",
                        "n_adversaries": 2, "alpha": 0.5,
                        "boosting_factor": 2.0,
                        "backdoor": {"flavor": "edge", "target_label": 1,
                                     "edge_ratio": 0.3}}},
}


def run_rounds(cfg, data, streams):
    """run_experiment's rounds on the given setup and streams: the global
    model entering each round and the one after the last, and the
    reports."""
    models, reports = [data.initial_model], []
    for t in range(cfg.fl.rounds):
        w, report = run_round(cfg, data, streams, models[-1], t)
        models.append(w)
        reports.append(report)
    return models, reports


def replayed_round(cfg, w, t):
    """Round t from `w`, made read-only so that no round may write its
    input model, on a fresh setup and fresh streams."""
    w.setflags(write=False)
    return run_round(cfg, build_run_data(cfg), client_streams(cfg), w, t)


@pytest.mark.parametrize("case", sorted(PURITY_CASES) + sorted(PINNED_RUNS))
def test_a_round_is_a_function_of_its_global_model(case):
    # a fresh run given only round t's global model replays round t; the
    # pinned configs are built as their digest test builds them
    over = PURITY_CASES[case] if case in PURITY_CASES else PINNED_RUNS[case][0]
    cfg = base_config(**{"fl.rounds": 4}, **over)
    models, reports = run_rounds(cfg, build_run_data(cfg),
                                 client_streams(cfg))
    for t in sorted({0, 1, cfg.fl.rounds - 1}):
        replayed = replayed_round(cfg, models[t], t)
        assert report_fields([replayed[1]]) == report_fields([reports[t]])
        assert np.array_equal(replayed[0], models[t + 1])


CHUNKED_CASES = {
    "edge": PURITY_CASES["edge"],
    "noise": {"attack": {"kind": "gaussian_noise", "strategy": "base",
                         "n_adversaries": 2, "sigma": 0.5}},
}


@pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
def test_a_run_is_the_same_over_chunks_of_client_streams(monkeypatch, case):
    cfg = base_config(**{"fl.rounds": 6}, **CHUNKED_CASES[case])
    whole = run_experiment(cfg)
    # 2 rounds a chunk: the run spans 3 chunks
    monkeypatch.setattr("fedtruth.rng.CHUNK_KEYS",
                        2 * cfg.fl.total_clients)
    streams = client_streams(cfg)
    models, reports = run_rounds(cfg, build_run_data(cfg), streams)
    assert report_fields(reports) == report_fields(whole)
    order = list(range(cfg.fl.rounds)) + list(range(cfg.fl.rounds))[::-1]
    for purpose, purpose_streams in streams.items():
        assert purpose_streams.chunk_rounds == 2
        for t in order:
            for c in range(cfg.fl.total_clients):
                assert purpose_streams(t, c).bit_generator.state \
                    == stream(cfg.master_seed, purpose, t,
                              c).bit_generator.state
    for t in reversed(range(cfg.fl.rounds)):
        assert report_fields([replayed_round(cfg, models[t], t)[1]]) \
            == report_fields([reports[t]])
