from pathlib import Path

import pytest

from fedtruth.attacks import AttackKind, AttackStrategy
from fedtruth.cli import load_sweep, main
from fedtruth.config import (AttackConfig, BackdoorConfig, ExperimentConfig,
                             ModelConfig, config_from_dict, load_config)
from fedtruth.data import BackdoorFlavor, DataSource
from fedtruth.simulator import run_experiment
from fedtruth.training import ModelKind
from fedtruth.truth import CoefficientFunction, InitScheme
from fedtruth.vectors import DistanceKind

from test_cli import write_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
SWEEPS = {"sweep_example.yaml"}

ENUM_FIELDS = {
    "dataset.source": DataSource,
    "model.kind": ModelKind,
    "attack.kind": AttackKind,
    "attack.strategy": AttackStrategy,
    "attack.backdoor.flavor": BackdoorFlavor,
    "aggregator.distance": DistanceKind,
    "aggregator.coefficient": CoefficientFunction,
    "aggregator.init": InitScheme,
}


def nested(key, value):
    """{'a': {'b': value}} for the dotted key 'a.b'."""
    data = value
    for part in reversed(key.split(".")):
        data = {part: data}
    return data


def field_of(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_committed_config_loads(path):
    if path.name in SWEEPS:
        spec = load_sweep(path)
        assert spec.cells()
        load_config(spec.base)
    else:
        cfg = load_config(path)
        assert cfg.output.name == path.stem


@pytest.mark.parametrize("key", ENUM_FIELDS)
def test_choice_fields_hold_their_enums(key):
    enum = ENUM_FIELDS[key]
    assert isinstance(field_of(config_from_dict({}), key), enum)
    for member in enum:
        cfg = config_from_dict(nested(key, member.value))
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
