"""Experiment configuration: defaults, YAML loading, dotted overrides,
and validation.

Every field has a default, so an empty config file runs. Unknown keys are
rejected to catch typos early.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import yaml

from .attacks import AttackKind, AttackSpec, AttackStrategy
from .simulator import AGGREGATORS
from .truth import CoefficientFunction, FedTruthConfig, InitScheme
from .training import ModelKind, ModelSpec, TrainConfig
from .vectors import DistanceKind

OUTPUT_ROOT_ENV = "FEDTRUTH_OUT_ROOT"

BACKDOOR_FLAVORS = ("trigger", "dba", "edge")


@dataclass
class SynthConfig:
    n_train: int = 2000
    n_test: int = 500
    n_features: int = 20
    n_classes: int = 2
    spread: float = 0.15


@dataclass
class IdxConfig:
    train_images: Optional[str] = None
    train_labels: Optional[str] = None
    test_images: Optional[str] = None
    test_labels: Optional[str] = None


@dataclass
class DatasetConfig:
    source: str = "synth"  # synth | idx
    noniid_bias: float = 0.8
    samples_per_client: int = 60
    synth: SynthConfig = field(default_factory=SynthConfig)
    idx: IdxConfig = field(default_factory=IdxConfig)


@dataclass
class ModelConfig:
    kind: str = "logreg"  # logreg | mlp
    hidden_units: int = 16

    def to_spec(self, n_features: int, n_classes: int) -> ModelSpec:
        return ModelSpec(kind=ModelKind(self.kind), n_features=n_features,
                         n_classes=n_classes, hidden_units=self.hidden_units)


@dataclass
class FLConfig:
    total_clients: int = 20
    clients_per_round: int = 10
    rounds: int = 100
    server_lr: float = 1.0
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.5

    def train_config(self) -> TrainConfig:
        return TrainConfig(local_epochs=self.local_epochs,
                           batch_size=self.batch_size,
                           learning_rate=self.learning_rate)


@dataclass
class BackdoorConfig:
    flavor: str = "trigger"  # trigger | dba | edge
    feature_indices: Optional[List[int]] = None  # default: last k features
    n_trigger_features: int = 3
    trigger_value: float = 1.0
    target_label: int = 0
    poison_fraction: float = 0.5
    edge_ratio: float = 0.2

    def resolve_indices(self, n_features: int) -> List[int]:
        if self.feature_indices is not None:
            return [int(i) for i in self.feature_indices]
        k = self.n_trigger_features
        if k < 1 or k > n_features:
            raise ValueError(f"n_trigger_features {k} outside [1, {n_features}]")
        return list(range(n_features - k, n_features))


@dataclass
class AttackConfig:
    kind: str = "none"  # none | model_boost | gaussian_noise | backdoor
    strategy: str = "base"  # base | with_boosting | constrain_and_scale
    n_adversaries: int = 0
    boosting_factor: Union[str, float] = "auto"  # "auto" or positive number
    sigma: float = 1.0
    alpha: float = 0.5
    pgd_radius: Optional[float] = None
    backdoor: BackdoorConfig = field(default_factory=BackdoorConfig)

    def to_spec(self) -> AttackSpec:
        factor = None if self.boosting_factor == "auto" \
            else float(self.boosting_factor)
        return AttackSpec(kind=AttackKind(self.kind),
                          strategy=AttackStrategy(self.strategy),
                          boosting_factor=factor, sigma=self.sigma,
                          alpha=self.alpha, pgd_radius=self.pgd_radius)


@dataclass
class AggregatorConfig:
    kind: str = "fedtruth"
    distance: str = "euclidean"
    coefficient: str = "neglog"
    epsilon: float = 1e-6
    max_iterations: int = 100
    init: str = "simple_average"
    trim_k: Optional[int] = None  # default: floor(0.2 * n) per side
    krum_f: Optional[int] = None  # default: the attack's adversary count
    flame_noise_factor: float = 0.001

    def fedtruth_config(self) -> FedTruthConfig:
        return FedTruthConfig(distance=DistanceKind(self.distance),
                              coefficient=CoefficientFunction(self.coefficient),
                              epsilon=self.epsilon,
                              max_iterations=self.max_iterations,
                              init=InitScheme(self.init))


@dataclass
class OutputConfig:
    directory: Optional[str] = None  # default: $FEDTRUTH_OUT_ROOT or ./runs
    name: str = "experiment"

    def resolved_dir(self) -> Path:
        if self.directory is not None:
            return Path(self.directory)
        return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    fltrust_root_fraction: float = 0.01
    allow_majority_adversaries: bool = False
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    fl: FLConfig = field(default_factory=FLConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> "ExperimentConfig":
        fl, attack, agg, ds = self.fl, self.attack, self.aggregator, self.dataset
        if ds.source not in ("synth", "idx"):
            raise ValueError(f"unknown dataset source {ds.source!r}")
        if not 0.0 <= ds.noniid_bias <= 1.0:
            raise ValueError("noniid_bias must be in [0, 1]")
        ModelKind(self.model.kind)  # raises on an unknown model kind
        if fl.clients_per_round > fl.total_clients:
            raise ValueError("clients_per_round cannot exceed total_clients")
        if fl.clients_per_round < 1 or fl.rounds < 1:
            raise ValueError("clients_per_round and rounds must be >= 1")
        attack.to_spec()  # raises on a bad kind, strategy or parameter
        if attack.n_adversaries < 0 or attack.n_adversaries > fl.clients_per_round:
            raise ValueError("n_adversaries outside [0, clients_per_round]")
        if (attack.n_adversaries >= fl.clients_per_round / 2
                and attack.kind != "none" and attack.n_adversaries > 0
                and not self.allow_majority_adversaries):
            raise ValueError(
                "threat model: adversaries must stay below half the round "
                "roster (set allow_majority_adversaries to override)")
        if attack.kind == "gaussian_noise" \
                and attack.strategy == "constrain_and_scale":
            raise ValueError("the noise attack has no adversarial dataset to "
                             "blend; constrain_and_scale does not apply")
        if attack.backdoor.flavor not in BACKDOOR_FLAVORS:
            raise ValueError(f"unknown backdoor flavor {attack.backdoor.flavor!r}")
        if not 0.0 <= attack.backdoor.poison_fraction <= 1.0:
            raise ValueError("poison_fraction must be in [0, 1]")
        if agg.kind not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {agg.kind!r}")
        agg.fedtruth_config()  # raises on bad distance/coefficient/init
        if not 0.0 < self.fltrust_root_fraction < 1.0:
            raise ValueError("fltrust_root_fraction must be in (0, 1)")
        return self


def _coerce(value, target_type, path: str):
    origin = getattr(target_type, "__origin__", None)
    if origin is Union:
        last_err = None
        for arg in target_type.__args__:
            if arg is type(None):
                if value is None:
                    return None
                continue
            try:
                return _coerce(value, arg, path)
            except (TypeError, ValueError) as err:
                last_err = err
        raise ValueError(f"{path}: cannot interpret {value!r}") from last_err
    if origin in (list, List):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        inner = target_type.__args__[0]
        return [_coerce(v, inner, path) for v in value]
    if target_type is bool:
        if isinstance(value, bool):
            return value
        raise ValueError(f"{path}: expected a boolean, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: expected an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if target_type is str:
        if not isinstance(value, str):
            raise ValueError(f"{path}: expected a string, got {value!r}")
        return value
    return value


def _build(cls, data: dict, path: str = ""):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError(f"{path or 'config'}: expected a mapping, got {data!r}")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ValueError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    import typing
    hints = typing.get_type_hints(cls)
    for name, f in known.items():
        if name not in data:
            continue
        sub_path = f"{path}.{name}" if path else name
        ftype = hints[name]
        if dataclasses.is_dataclass(ftype):
            kwargs[name] = _build(ftype, data[name], sub_path)
        else:
            kwargs[name] = _coerce(data[name], ftype, sub_path)
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data).validate()


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    cfg = config_from_dict(data)
    if "name" not in (data.get("output") or {}):
        cfg.output.name = path.stem
    return cfg


def apply_overrides(cfg: ExperimentConfig,
                    overrides: List[str]) -> ExperimentConfig:
    """Apply 'section.key=value' overrides; values parse as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, raw = item.split("=", 1)
        value = yaml.safe_load(raw)
        parts = key.strip().split(".")
        target = cfg
        for part in parts[:-1]:
            if not hasattr(target, part):
                raise ValueError(f"unknown config section {key!r}")
            target = getattr(target, part)
        leaf = parts[-1]
        if not dataclasses.is_dataclass(target) or not hasattr(target, leaf):
            raise ValueError(f"unknown config key {key!r}")
        import typing
        hints = typing.get_type_hints(type(target))
        setattr(target, leaf, _coerce(value, hints[leaf], key))
    return cfg.validate()
