import dataclasses
import hashlib

import numpy as np
import pytest

from fedtruth.cli import write_round_csv
from fedtruth.config import config_from_dict
from fedtruth.rng import stream
from fedtruth.simulator import (NonFiniteUpdate, _Experiment,
                                apply_global_update, fltrust_server_step,
                                run_experiment, select_round_roster)
from fedtruth.training import (ModelKind, ModelSpec, TrainConfig,
                               extract_update, init_model, local_train)
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
    from fedtruth.data import synth_blobs
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    w = init_model(spec, 1)
    ds = synth_blobs(50, 6, 2, 0.2, stream(0, "d"))
    local = local_train(w, ds, spec, TrainConfig(learning_rate=0.2),
                        stream(0, "t"))
    delta = extract_update(w, local)
    recovered = apply_global_update(w, delta, 1.0)
    assert np.array_equal(recovered, local)


# -- fltrust server step --------------------------------------------------------

def test_fltrust_server_step_zero_lr_gives_zero_update():
    from fedtruth.data import synth_blobs
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    w = init_model(spec, 2)
    root = synth_blobs(30, 6, 2, 0.2, stream(1, "d"))
    upd = fltrust_server_step(root, w, spec, TrainConfig(learning_rate=0.0),
                              stream(1, "t"))
    assert np.all(upd == 0.0)


def test_fltrust_server_step_matches_identical_client():
    from fedtruth.data import synth_blobs
    spec = ModelSpec(ModelKind.LOGREG, 6, 2)
    w = init_model(spec, 3)
    ds = synth_blobs(40, 6, 2, 0.2, stream(2, "d"))
    cfg = TrainConfig(local_epochs=2, batch_size=8, learning_rate=0.1)
    server = fltrust_server_step(ds, w, spec, cfg, stream(9, "s"))
    client = extract_update(w, local_train(w, ds, spec, cfg, stream(9, "s")))
    assert np.array_equal(server, client)


def test_fltrust_small_root_still_trains():
    cfg = base_config(**{"aggregator.kind": "fltrust"})
    cfg.fltrust_root_fraction = 0.02
    reports = run_experiment(cfg)
    assert len(reports) == 3


# -- full runs -----------------------------------------------------------------

def test_fedavg_all_benign_conservation():
    cfg = base_config()
    exp = _Experiment(cfg)
    w_before = exp.global_model
    roster, _ = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = [exp._benign_update(0, int(c)) for c in roster]
    counts = [len(exp.shards[int(c)]) for c in roster]
    expected = fedavg(updates, counts)
    reports = run_experiment(cfg)
    # recover the applied aggregate from the reported weights instead:
    # re-run one round by hand through the experiment object
    delta, weights, _ = exp._aggregate(updates, counts, 0)
    assert delta == pytest.approx(expected, abs=1e-12)
    assert np.asarray(weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert len(reports) == cfg.fl.rounds


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
    roster, _ = select_round_roster(8, 5, 0, 0, cfg.master_seed)
    updates = [exp._benign_update(0, int(c)) for c in roster]
    counts = [len(exp.shards[int(c)]) for c in roster]
    delta, weights, _ = exp._aggregate(updates, counts, 0)
    if kind == "flame":
        expected, kept = flame(updates, cfg.aggregator.flame_noise_factor,
                               stream(cfg.master_seed, "flame", 0))
        want = np.zeros(len(updates))
        want[kept] = 1.0 / len(kept)
    else:
        server = fltrust_server_step(
            exp.root_ds, exp.global_model, exp.model_spec, exp.train_cfg,
            stream(cfg.master_seed, "fltrust", 0))
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
    spec = cfg.attack.to_spec()
    assert spec.boosting_factor is None
    assert spec.resolve_factor(5, 2) == pytest.approx(2.5)
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
    benign_update = _Experiment._benign_update

    def one_bad_entry(self, round_index, client):
        update = benign_update(self, round_index, client)
        if (round_index, client) == (1, victim):
            update[3] = bad
        return update

    monkeypatch.setattr(_Experiment, "_benign_update", one_bad_entry)
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


def test_fltrust_zero_server_update_falls_back():
    # zero local learning rate gives a zero server reference; the round
    # falls back to the (zero) server update and the model stays put
    cfg = base_config(**{"aggregator.kind": "fltrust",
                         "fl.learning_rate": 0.0})
    reports = run_experiment(cfg)
    accs = {r.main_accuracy for r in reports}
    assert len(accs) == 1  # model never moves


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
    "inverse-fedavg-init": (
        {"aggregator": {"kind": "fedtruth", "coefficient": "inverse",
                        "init": "fedavg_weighted"},
         "attack": {"kind": "model_boost", "strategy": "with_boosting",
                    "n_adversaries": 2, "boosting_factor": 5.0}},
        "fbb4d33d51744754184ba69e28b78294171f8ac94a0f2550bf1bf97a2d48c059"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_small_runs_match_pinned_digests(name, tmp_path):
    # per-round CSV bytes without agg_time_s, as the committed goldens are
    # compared: a refactor of training, attacks or aggregation that changes
    # any float in any round changes the digest
    over, digest = PINNED_RUNS[name]
    cfg = base_config(**{"fl.rounds": 4}, **over)
    path = tmp_path / "run.csv"
    write_round_csv(path, cfg, run_experiment(cfg))
    kept = b"".join(without_timing_bytes(path))
    assert hashlib.sha256(kept).hexdigest() == digest
