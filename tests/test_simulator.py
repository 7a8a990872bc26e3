import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from fedtruth.cli import write_round_csv
from fedtruth.config import config_from_dict
from fedtruth.rng import stream
import fedtruth.simulator
from fedtruth.data import Dataset, save_idx, synth_blobs
from fedtruth.simulator import (NonFiniteUpdate, _Experiment,
                                apply_global_update, run_experiment,
                                select_round_roster)
from fedtruth.truth import NonFiniteWeights
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig,
                               extract_update, init_model, train_roster)
from fedtruth.aggregators import fedavg, flame, fltrust

from test_cli import without_timing_bytes


def base_config(**over):
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
    return config_from_dict(d)


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
        _Experiment(cfg)
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
    _Experiment(base_config(**dims))  # first-call costs out of the peaks
    fedavg_peak = setup_peak_bytes(base_config(**dims))
    fltrust_peak = setup_peak_bytes(
        base_config(**dims, **{"aggregator.kind": "fltrust"}))
    pool_bytes = n_train * (n_features + 1) * 8  # features and labels
    assert fltrust_peak - fedavg_peak < pool_bytes / 2


# -- full runs -----------------------------------------------------------------

def test_fedavg_all_benign_conservation():
    # the round's 1/n weights are the sample-count weights of its shards,
    # bit for bit: every shard holds samples_per_client rows
    cfg = base_config()
    exp = _Experiment(cfg)
    roster, advs = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = exp._client_updates(0, roster, advs)
    counts = np.array([len(exp.shards[int(c)]) for c in roster], float)
    delta, weights, _ = exp._aggregate(updates, 0)
    assert np.array_equal(delta, fedavg(updates, counts))
    assert np.array_equal(weights, counts / counts.sum())
    assert np.asarray(weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert len(run_experiment(cfg)) == cfg.fl.rounds


def report_fields(reports, skip_timing=True):
    rows = []
    for r in reports:
        d = dataclasses.asdict(r)
        if skip_timing:
            d.pop("aggregation_wall_time")
        rows.append(d)
    return rows


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
    exp = _Experiment(cfg)
    roster, advs = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = exp._client_updates(0, roster, advs)
    delta, weights, _ = exp._aggregate(updates, 0)
    if kind == "flame":
        expected, kept = flame(updates, cfg.aggregator.flame_noise_factor,
                               stream(cfg.master_seed, "flame", 0))
        want = np.zeros(len(updates))
        want[kept] = 1.0 / len(kept)
    else:
        w = exp.global_model
        server = extract_update(w, train_roster(
            w, [exp.root_ds], exp.model_spec, exp.train_cfg,
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
    client_updates = _Experiment._client_updates

    def one_bad_entry(self, round_index, roster, adversaries):
        updates = client_updates(self, round_index, roster, adversaries)
        if round_index == 1:
            updates[list(roster).index(victim), 3] = bad
        return updates

    monkeypatch.setattr(_Experiment, "_client_updates", one_bad_entry)
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

    exp = _Experiment(cfg)
    trained = {"client": 0, "server": 0}
    train_roster = fedtruth.simulator.train_roster

    def counting(params, datasets, *args):
        if any(ds is exp.root_ds for ds in datasets):
            trained["server"] += len(datasets)
        else:
            trained["client"] += len(datasets)
        return train_roster(params, datasets, *args)

    monkeypatch.setattr(fedtruth.simulator, "train_roster", counting)
    counted = tmp_path / "counted.csv"
    write_round_csv(counted, cfg, exp.run())
    rounds = cfg.fl.rounds
    assert trained == {
        "client": rounds * (cfg.fl.clients_per_round
                            + cfg.attack.n_adversaries),
        "server": rounds}
    assert without_timing_bytes(counted) == without_timing_bytes(plain)


def test_traced_names_are_read_through_the_simulator(tmp_path, monkeypatch):
    # a tracer rebinds these attributes of the simulator module, so the
    # round loop must look each one up there, at call time
    cfg = base_config(**{"aggregator.kind": "fedtruth"})
    plain = tmp_path / "plain.csv"
    write_round_csv(plain, cfg, run_experiment(cfg))

    calls = {"select_round_roster": 0, "estimate_truth": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fedtruth.simulator, name,
                            counted(name, getattr(fedtruth.simulator, name)))
    wrapped = tmp_path / "wrapped.csv"
    write_round_csv(wrapped, cfg, run_experiment(cfg))
    assert calls == {"select_round_roster": 3, "estimate_truth": 3}
    assert without_timing_bytes(wrapped) == without_timing_bytes(plain)


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
        _Experiment(cfg)
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
        _Experiment(cfg)
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
