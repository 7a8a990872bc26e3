import dataclasses
import typing
from pathlib import Path

import pytest

from fedtruth.attacks import AttackKind, AttackStrategy
from fedtruth.cli import cell_configs, load_sweep, main
from fedtruth.config import (AttackConfig, BackdoorConfig, ExperimentConfig,
                             ModelConfig, config_from_dict, load_config)
from fedtruth.data import BackdoorFlavor, DataSource
from fedtruth.simulator import run_experiment
from fedtruth.training import ModelKind, ModelSpec
from fedtruth.truth import CoefficientFunction, FedTruthConfig
from fedtruth.vectors import DistanceKind

from helpers import MINIMAL, write_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
SWEEPS = {"sweep_example.yaml", "collapse.yaml"}

ENUM_FIELDS = {
    "dataset.source": DataSource,
    "model.kind": ModelKind,
    "attack.kind": AttackKind,
    "attack.strategy": AttackStrategy,
    "attack.backdoor.flavor": BackdoorFlavor,
    "aggregator.distance": DistanceKind,
    "aggregator.coefficient": CoefficientFunction,
}


def nested(key, value):
    """{'a': {'b': value}} for the dotted key 'a.b'."""
    data = value
    for part in reversed(key.split(".")):
        data = {part: data}
    return data


IDX_PATHS = {name: f"{name}.idx" for name in
             ("train_images", "train_labels", "test_images", "test_labels")}


def choice_config(key, value):
    """A mapping that sets one choice field, plus the four file paths
    that the idx source requires."""
    data = nested(key, value)
    if (key, value) == ("dataset.source", "idx"):
        data["dataset"]["idx"] = dict(IDX_PATHS)
    return data


def field_of(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_committed_config_loads(path):
    if path.name in SWEEPS:
        # every cell's config, built and validated as the sweep builds it
        names = [cfg.output.name for _, cfg in cell_configs(load_sweep(path))]
        assert names and len(set(names)) == len(names)
    else:
        cfg = load_config(path)
        assert cfg.output.name == path.stem


@pytest.mark.parametrize("key", ENUM_FIELDS)
def test_choice_fields_hold_their_enums(key):
    enum = ENUM_FIELDS[key]
    assert isinstance(field_of(config_from_dict({}), key), enum)
    for member in enum:
        cfg = config_from_dict(choice_config(key, member.value))
        assert field_of(cfg, key) is member


@pytest.mark.parametrize("key", ENUM_FIELDS)
def test_bad_choice_names_key_and_value(key, tmp_path, capsys):
    with pytest.raises(ValueError) as err:
        config_from_dict(nested(key, "cosin"))
    message = str(err.value)
    assert message.startswith(f"{key}: expected one of ")
    assert "'cosin'" in message
    for member in ENUM_FIELDS[key]:
        assert member.value in message
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", f"{key}=cosin"]) == 1
    stderr = capsys.readouterr().err
    assert f"{key}: expected one of " in stderr and "'cosin'" in stderr


def test_unknown_key_names_dotted_path():
    with pytest.raises(ValueError,
                       match=r"unknown config keys \['fl.bogus'\]"):
        config_from_dict({"fl": {"bogus": 1}})
    with pytest.raises(ValueError, match=r"\['attack.backdoor.x'\]"):
        config_from_dict({"attack": {"backdoor": {"x": 2}}})
    # the estimator always starts from the plain average
    with pytest.raises(ValueError,
                       match=r"unknown config keys \['aggregator.init'\]"):
        config_from_dict({"aggregator": {"init": "simple_average"}})


@pytest.mark.parametrize("override, key", [
    ("fl=3", "fl"),
    ("fl.rounds.x=1", "fl.rounds"),
    ("attack.boosting_factor=lots", "attack.boosting_factor"),
    ("aggregator.epsilon=tiny", "aggregator.epsilon"),
])
def test_bad_override_names_its_key(override, key, tmp_path, capsys):
    path = write_config(tmp_path)
    with pytest.raises(ValueError, match=key):
        load_config(path, [override])
    assert main(["run", str(path), "--set", override]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ") and key in stderr


def test_exponent_without_dot_is_a_number(tmp_path):
    # YAML 1.1 reads 1e-6 as a string; the float fields still take it
    path = tmp_path / "exp.yaml"
    path.write_text("aggregator: {epsilon: 1e-6}\n"
                    "attack: {boosting_factor: 1e3}\n")
    cfg = load_config(path)
    assert cfg.aggregator.epsilon == 1e-6
    assert cfg.attack.boosting_factor == 1000.0
    cfg = load_config(path, ["aggregator.epsilon=1e-7",
                             "attack.boosting_factor=auto",
                             "attack.pgd_radius=5e-2"])
    assert cfg.aggregator.epsilon == 1e-7
    assert cfg.attack.boosting_factor == "auto"
    assert cfg.attack.pgd_radius == 0.05


def test_cli_accepts_exponent_override(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--set", "aggregator.epsilon=1e-7"]) == 0


def test_overrides_apply_before_the_one_validation(tmp_path):
    # the file alone breaks the threat model; its override repairs it
    path = tmp_path / "exp.yaml"
    path.write_text("attack: {kind: model_boost, n_adversaries: 6}\n"
                    "fl: {clients_per_round: 10}\n")
    with pytest.raises(ValueError, match="threat model"):
        load_config(path)
    cfg = load_config(path, ["attack.n_adversaries=2"])
    assert cfg.attack.n_adversaries == 2


def test_output_name_defaults_to_stem_unless_set(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("")
    assert load_config(path).output.name == "exp"
    assert load_config(path, ["output.name=other"]).output.name == "other"
    path.write_text("output: {name: named}\n")
    assert load_config(path).output.name == "named"


def test_choice_set_in_code_must_be_its_enum():
    # a string would pass every `is` test as "not that member"
    cfg = ExperimentConfig(model=ModelConfig(kind=ModelKind.MLP))
    assert cfg.validate() is cfg
    cfg.model.kind = "mlp"
    with pytest.raises(ValueError, match="model.kind: expected a ModelKind"):
        cfg.validate()
    cfg = ExperimentConfig(attack=AttackConfig(
        backdoor=BackdoorConfig(flavor="edge")))
    with pytest.raises(ValueError, match="attack.backdoor.flavor"):
        run_experiment(cfg)


def test_library_types_refuse_strings_for_choices():
    with pytest.raises(ValueError, match="kind: expected a ModelKind"):
        ModelSpec("logreg", 4, 2, 3)
    with pytest.raises(ValueError, match="distance: expected a DistanceKind"):
        FedTruthConfig(distance="cosine")
    with pytest.raises(ValueError, match="coefficient"):
        FedTruthConfig(coefficient="inverse")


def float_keys(cls=ExperimentConfig, path=""):
    """Dotted keys of every field that can hold a float."""
    for f in dataclasses.fields(cls):
        key = path + f.name
        if dataclasses.is_dataclass(f.type):
            yield from float_keys(f.type, key + ".")
        elif f.type is float or float in typing.get_args(f.type):
            yield key


FLOAT_KEYS = list(float_keys())


def test_float_keys_cover_the_known_fields():
    assert {"attack.sigma", "attack.boosting_factor", "attack.pgd_radius",
            "aggregator.epsilon", "fl.server_lr",
            "fltrust_root_fraction"} <= set(FLOAT_KEYS)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf"), "nan"])
def test_non_finite_number_refused_with_its_key(key, value):
    with pytest.raises(ValueError) as err:
        config_from_dict(nested(key, value))
    assert str(err.value).startswith(f"{key}: expected a finite number")


@pytest.mark.parametrize("text, override, key", [
    ("attack: {kind: gaussian_noise, n_adversaries: 2, sigma: .nan}\n",
     "attack.sigma=nan", "attack.sigma"),
    ("aggregator: {epsilon: .inf}\n", "aggregator.epsilon=.inf",
     "aggregator.epsilon"),
    ("fl: {learning_rate: -.inf}\n", "fl.learning_rate=-.inf",
     "fl.learning_rate"),
])
def test_non_finite_number_refused_in_file_and_override(
        text, override, key, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{key}: expected a finite"):
        load_config(path)
    assert main(["run", str(path)]) == 1
    assert f"error: {key}: expected a finite" in capsys.readouterr().err
    good = write_config(tmp_path)
    with pytest.raises(ValueError, match=f"^{key}: expected a finite"):
        load_config(good, [override])
    assert main(["run", str(good), "--set", override]) == 1
    assert f"error: {key}: expected a finite" in capsys.readouterr().err


# an out-of-range value for each key, with the settings under which the key
# is read
RANGE_ERRORS = {
    "aggregator.epsilon": (0, {}),
    "aggregator.max_iterations": (0, {}),
    "fl.local_epochs": (0, {}),
    "fl.batch_size": (0, {}),
    "fl.learning_rate": (-1, {}),
    "fl.server_lr": (-1, {}),
    "dataset.samples_per_client": (0, {}),
    "dataset.synth.spread": (0, {}),
    "model.hidden_units": (0, {"model.kind": "mlp"}),
}


@pytest.mark.parametrize("key", list(RANGE_ERRORS))
def test_estimator_range_errors_start_with_their_key(key):
    # each of these used to pass validation and die in setup with a
    # message that named no key
    value, settings = RANGE_ERRORS[key]
    data = nested(key, value)
    for other, setting in settings.items():
        section, leaf = other.split(".")
        data[section][leaf] = setting
    with pytest.raises(ValueError) as err:
        config_from_dict(data)
    assert str(err.value).startswith(f"{key} must be")


# the other rules of `validate()`, with a value on each side of a range;
# the defaults are a roster of 10 of 20 clients and no adversary
RULE_ERRORS = [
    ("dataset.noniid_bias", 1.5), ("dataset.noniid_bias", -0.1),
    ("fl.clients_per_round", 21), ("fl.clients_per_round", 0),
    ("fl.rounds", 0),
    ("attack.n_adversaries", -1), ("attack.n_adversaries", 11),
    ("attack.backdoor.poison_fraction", 1.5),
    ("attack.backdoor.poison_fraction", -0.5),
    ("fltrust_root_fraction", 0.0), ("fltrust_root_fraction", 1.0),
]


@pytest.mark.parametrize("key, value", RULE_ERRORS)
def test_rule_errors_start_with_their_key(key, value):
    with pytest.raises(ValueError) as err:
        config_from_dict(nested(key, value))
    assert str(err.value).startswith(f"{key} ")


def test_range_checks_only_where_the_key_is_read():
    # logreg has no hidden layer, and the idx source draws no blobs
    config_from_dict({"model": {"kind": "logreg", "hidden_units": 0}})
    config_from_dict({"dataset": {"source": "idx", "idx": IDX_PATHS,
                                  "synth": {"spread": 0}}})


def test_range_error_refused_through_run_set(capsys):
    path = ROOT / "configs" / "baseline.yaml"
    assert main(["run", str(path), "--set", "fl.batch_size=0"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: fl.batch_size must be >= 1"]


@pytest.mark.parametrize("backdoor, key", [
    ({"n_trigger_features": 2}, "attack.backdoor.n_trigger_features"),
    ({"feature_indices": [4, 5]}, "attack.backdoor.feature_indices"),
    ({"feature_indices": [4, 5], "n_trigger_features": 6},
     "attack.backdoor.feature_indices"),
])
def test_dba_trigger_shorter_than_adversaries_refused(backdoor, key):
    data = nested("attack.backdoor", backdoor)
    data["attack"].update(kind="backdoor", n_adversaries=3)
    data["attack"]["backdoor"]["flavor"] = "dba"
    with pytest.raises(ValueError) as err:
        config_from_dict(data)
    assert str(err.value).startswith(f"{key}: ")


@pytest.mark.parametrize("attack", [
    {"kind": "backdoor", "n_adversaries": 3,
     "backdoor": {"flavor": "dba", "n_trigger_features": 3}},
    {"kind": "backdoor", "n_adversaries": 0,
     "backdoor": {"flavor": "dba", "n_trigger_features": 2}},
    {"kind": "backdoor", "n_adversaries": 3,
     "backdoor": {"flavor": "trigger", "n_trigger_features": 2}},
    {"kind": "model_boost", "n_adversaries": 3,
     "backdoor": {"flavor": "dba", "n_trigger_features": 2}},
])
def test_dba_trigger_check_only_where_it_splits(attack):
    config_from_dict({"attack": attack})


def test_dba_trigger_refused_through_run_set(capsys):
    path = ROOT / "configs" / "dba_backdoor.yaml"
    key = "attack.backdoor.n_trigger_features"
    overrides = [f"{key}=2", "attack.n_adversaries=3"]
    with pytest.raises(ValueError, match=f"^{key}: "):
        load_config(path, overrides)
    argv = ["run", str(path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


BAD_TRIGGERS = {
    "index-past-the-end": ("feature_indices", [999]),
    "negative-index": ("feature_indices", [-1, 5]),
    "no-index": ("feature_indices", []),
    "repeated-index": ("feature_indices", [3, 3]),
    "too-many-features": ("n_trigger_features", 7),
    "no-features": ("n_trigger_features", 0),
}


@pytest.mark.parametrize("flavor", ["trigger", "dba"])
@pytest.mark.parametrize("case", list(BAD_TRIGGERS))
def test_bad_trigger_refused_before_setup(case, flavor, tmp_path, capsys):
    # [999] used to die in setup with an IndexError traceback, and [-1, 5]
    # ran with column 5 pinned twice; the base config has 6 features
    leaf, value = BAD_TRIGGERS[case]
    key = f"attack.backdoor.{leaf}"
    attack = {"kind": "backdoor", "n_adversaries": 1,
              "backdoor": {"flavor": flavor, leaf: value}}
    path = write_config(tmp_path, extra={"attack": attack})
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value).startswith(f"{key}: ")
    assert main(["run", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attack", [
    {"kind": "none", "n_adversaries": 1,
     "backdoor": {"feature_indices": [999, -1]}},
    {"kind": "model_boost", "strategy": "with_boosting", "n_adversaries": 1,
     "backdoor": {"feature_indices": [999, -1]}},
    {"kind": "backdoor", "n_adversaries": 1,
     "backdoor": {"flavor": "edge", "feature_indices": [999],
                  "n_trigger_features": 50}},
], ids=["none", "model_boost", "edge"])
def test_trigger_indices_checked_only_where_read(attack, tmp_path):
    # only the trigger and dba backdoors read the trigger's indices
    path = write_config(tmp_path, extra={"attack": attack})
    assert main(["run", str(path), "--set", "fl.rounds=1"]) == 0


@pytest.mark.parametrize("missing", sorted(IDX_PATHS))
def test_idx_source_needs_every_path(missing):
    idx = {name: path for name, path in IDX_PATHS.items() if name != missing}
    with pytest.raises(ValueError) as err:
        config_from_dict({"dataset": {"source": "idx", "idx": idx}})
    assert str(err.value).startswith(f"dataset.idx.{missing}: ")


def test_idx_source_without_paths_refused_through_run_set(capsys):
    # before validate() checked the paths, this died in load_idx(None)
    # with a TypeError traceback
    path = ROOT / "configs" / "baseline.yaml"
    assert main(["run", str(path), "--set", "dataset.source=idx"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: dataset.idx.train_images: ")


def test_edge_backdoor_needs_the_synth_source():
    attack = {"kind": "backdoor", "n_adversaries": 2,
              "backdoor": {"flavor": "edge"}}
    config_from_dict({"attack": attack})
    with pytest.raises(ValueError) as err:
        config_from_dict({"attack": attack,
                          "dataset": {"source": "idx", "idx": IDX_PATHS}})
    assert str(err.value).startswith("attack.backdoor.flavor: ")
    # only the backdoor attack builds the edge-case pool
    config_from_dict({"attack": {**attack, "kind": "model_boost"},
                      "dataset": {"source": "idx", "idx": IDX_PATHS}})


# each used to pass validation and die in setup or round 0 with a message
# that named no key; the base config has 4 clients per round, 6 features
# and 2 classes
REFUSED_BEFORE_THE_RUN = {
    "trim_k-negative": (["aggregator.kind=trimmed_mean",
                         "aggregator.trim_k=-1"], "aggregator.trim_k"),
    "trim_k-half-the-roster": (["aggregator.kind=trimmed_mean",
                                "aggregator.trim_k=2"], "aggregator.trim_k"),
    "krum_f-negative": (["aggregator.kind=krum", "aggregator.krum_f=-1"],
                        "aggregator.krum_f"),
    "krum-roster-below-krum_f": (["aggregator.kind=krum",
                                  "aggregator.krum_f=2"],
                                 "fl.clients_per_round"),
    "krum-roster-below-adversaries": (["aggregator.kind=krum",
                                       "attack.n_adversaries=2"],
                                      "fl.clients_per_round"),
    "flame-roster": (["aggregator.kind=flame", "fl.clients_per_round=2"],
                     "fl.clients_per_round"),
    "flame-noise": (["aggregator.kind=flame",
                     "aggregator.flame_noise_factor=-0.5"],
                    "aggregator.flame_noise_factor"),
    "synth-features-below-classes": (["dataset.synth.n_classes=7"],
                                     "dataset.synth.n_features"),
    "synth-one-class": (["dataset.synth.n_classes=1"],
                        "dataset.synth.n_classes"),
    "synth-no-train-rows": (["dataset.synth.n_train=0"],
                            "dataset.synth.n_train"),
    "synth-train-rows-below-classes": (["dataset.synth.n_train=1"],
                                       "dataset.synth.n_train"),
    "synth-no-test-rows": (["dataset.synth.n_test=0"],
                           "dataset.synth.n_test"),
    "target-label-past-the-classes": (
        ["attack.kind=backdoor", "attack.n_adversaries=1",
         "attack.backdoor.target_label=2"], "attack.backdoor.target_label"),
    "target-label-negative-edge": (
        ["attack.kind=backdoor", "attack.n_adversaries=1",
         "attack.backdoor.flavor=edge", "attack.backdoor.target_label=-1"],
        "attack.backdoor.target_label"),
    "edge-ratio-negative": (
        ["attack.kind=backdoor", "attack.n_adversaries=1",
         "attack.backdoor.flavor=edge", "attack.backdoor.edge_ratio=-0.5"],
        "attack.backdoor.edge_ratio"),
}


@pytest.mark.parametrize("case", list(REFUSED_BEFORE_THE_RUN))
def test_run_refuses_what_would_crash_it(case, tmp_path, capsys):
    overrides, key = REFUSED_BEFORE_THE_RUN[case]
    path = write_config(tmp_path)
    with pytest.raises(ValueError, match=f"^{key} must "):
        load_config(path, overrides)
    argv = ["run", str(path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["fedavg", "median"])
def test_aggregator_limits_only_for_the_kind_that_reads_them(kind, tmp_path):
    path = write_config(tmp_path)
    overrides = [f"aggregator.kind={kind}", "aggregator.trim_k=99",
                 "aggregator.krum_f=-1", "aggregator.flame_noise_factor=-1",
                 "fl.clients_per_round=2", "fl.rounds=1"]
    argv = ["run", str(path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 0


def test_synth_limits_only_for_the_synth_source():
    # the idx source takes its classes and sizes from the files, at setup
    config_from_dict({
        "dataset": {"source": "idx", "idx": IDX_PATHS,
                    "synth": {"n_features": 1, "n_classes": 5,
                              "n_train": 0, "n_test": 0}},
        "attack": {"kind": "backdoor", "n_adversaries": 1,
                   "backdoor": {"target_label": 9,
                                "feature_indices": [0]}}})
    config_from_dict({"dataset": {"source": "idx", "idx": IDX_PATHS,
                                  "synth": {"n_classes": 1, "n_train": 0}}})
    # and only the backdoor reads its target label
    config_from_dict({"attack": {"kind": "model_boost", "n_adversaries": 1,
                                 "backdoor": {"target_label": 9,
                                              "edge_ratio": -1.0}}})


@pytest.mark.parametrize("flavor", ["trigger", "dba", "edge"])
def test_backdoor_needs_a_test_row_off_the_target_label(flavor):
    # the backdoor is scored on test rows whose label is not the target;
    # one balanced test row is labelled 0, so a target of 0 leaves none:
    # trigger and dba used to die in setup, edge to report a NaN accuracy
    data = {**MINIMAL, "fl": {**MINIMAL["fl"], "rounds": 1},
            "attack": {"kind": "backdoor", "n_adversaries": 1,
                       "backdoor": {"flavor": flavor, "target_label": 0}}}
    data["dataset"] = {**MINIMAL["dataset"],
                       "synth": {**MINIMAL["dataset"]["synth"], "n_test": 2}}
    cfg = config_from_dict(data)
    reports = run_experiment(cfg)
    assert 0.0 <= reports[0].backdoor_accuracy <= 1.0
    cfg.dataset.synth.n_test = 1
    with pytest.raises(ValueError):
        cfg.validate()
    cfg.attack.backdoor.target_label = 1  # the one row is off the target
    cfg.validate()
