"""Experiment configuration: typed sections with defaults, YAML loading
with dotted overrides, and validation.

Every field has a default, so an empty config file runs. A config file's
mapping takes its `section.key=value` overrides, then is built and
validated once. Each value is coerced to its field's type, so the choice
fields (data source, model, attack kind and strategy, backdoor flavour,
distance, coefficient) hold their enums. Unknown keys and bad values,
NaN and +-inf included, raise a ValueError that names the dotted key.
"""

import dataclasses
import math
import os
from dataclasses import dataclass, field
from enum import EnumMeta
from pathlib import Path
from typing import List, Optional, Sequence, Union

import yaml

from .attacks import AttackKind, AttackStrategy, boosting_factor
from .data import BackdoorFlavor, DataSource
from .simulator import AGGREGATORS
from .truth import CoefficientFunction, FedTruthConfig
from .training import ModelKind, TrainConfig
from .vectors import DistanceKind

OUTPUT_ROOT_ENV = "FEDTRUTH_OUT_ROOT"


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
    source: DataSource = DataSource.SYNTH
    noniid_bias: float = 0.8
    samples_per_client: int = 60
    synth: SynthConfig = field(default_factory=SynthConfig)
    idx: IdxConfig = field(default_factory=IdxConfig)


@dataclass
class ModelConfig:
    kind: ModelKind = ModelKind.LOGREG
    hidden_units: int = 16


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
    flavor: BackdoorFlavor = BackdoorFlavor.TRIGGER
    feature_indices: Optional[List[int]] = None  # default: last k features
    n_trigger_features: int = 3
    trigger_value: float = 1.0
    target_label: int = 0
    poison_fraction: float = 0.5
    edge_ratio: float = 0.2

    def resolve_indices(self, n_features: int) -> List[int]:
        """The trigger's distinct feature columns in [0, n_features); each
        refusal starts with the dotted key it reads."""
        if self.feature_indices is None:
            k = self.n_trigger_features
            if k < 1 or k > n_features:
                raise ValueError(f"attack.backdoor.n_trigger_features: {k} "
                                 f"outside [1, {n_features}]")
            return list(range(n_features - k, n_features))
        idx = [int(i) for i in self.feature_indices]
        key = "attack.backdoor.feature_indices"
        if not idx:
            raise ValueError(f"{key}: expected at least one index")
        if len(set(idx)) != len(idx):
            raise ValueError(f"{key}: indices must be distinct, got {idx}")
        outside = [i for i in idx if not 0 <= i < n_features]
        if outside:
            raise ValueError(f"{key}: {outside} outside [0, {n_features})")
        return idx


@dataclass
class AttackConfig:
    kind: AttackKind = AttackKind.NONE
    strategy: AttackStrategy = AttackStrategy.BASE
    n_adversaries: int = 0
    # "auto" (roster size over adversary count) or a positive number
    boosting_factor: Union[float, str] = "auto"
    sigma: float = 1.0
    alpha: float = 0.5
    pgd_radius: Optional[float] = None  # None: no projection
    backdoor: BackdoorConfig = field(default_factory=BackdoorConfig)

    def resolve_factor(self, n_clients: int, n_adversaries: int) -> float:
        if self.boosting_factor == "auto":
            return boosting_factor(n_clients, n_adversaries)
        return self.boosting_factor


@dataclass
class AggregatorConfig:
    kind: str = "fedtruth"
    distance: DistanceKind = DistanceKind.EUCLIDEAN
    coefficient: CoefficientFunction = CoefficientFunction.NEG_LOG
    epsilon: float = 1e-6
    max_iterations: int = 100
    trim_k: Optional[int] = None  # default: floor(0.2 * n) per side
    krum_f: Optional[int] = None  # default: the attack's adversary count
    flame_noise_factor: float = 0.001

    def fedtruth_config(self) -> FedTruthConfig:
        return FedTruthConfig(distance=self.distance,
                              coefficient=self.coefficient,
                              epsilon=self.epsilon,
                              max_iterations=self.max_iterations)


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
        _check_fields(self)
        check_file_name("output.name", self.output.name)
        fl, attack, agg, ds = self.fl, self.attack, self.aggregator, self.dataset
        if not 0.0 <= ds.noniid_bias <= 1.0:
            raise ValueError("dataset.noniid_bias must be in [0, 1]")
        if ds.samples_per_client < 1:
            raise ValueError("dataset.samples_per_client must be >= 1")
        synth = ds.source is DataSource.SYNTH  # idx data: checked at setup
        if synth and not ds.synth.spread > 0:
            raise ValueError("dataset.synth.spread must be > 0")
        if synth and ds.synth.n_classes < 2:
            raise ValueError("dataset.synth.n_classes must be >= 2")
        if synth and ds.synth.n_train < ds.synth.n_classes:
            raise ValueError("dataset.synth.n_train must be >= "
                             "dataset.synth.n_classes (one sample per class)")
        if synth and ds.synth.n_test < 1:
            raise ValueError("dataset.synth.n_test must be >= 1")
        if synth and ds.synth.n_features < ds.synth.n_classes:
            raise ValueError("dataset.synth.n_features must be >= "
                             "dataset.synth.n_classes (one simplex vertex "
                             "per class)")
        if self.model.kind is ModelKind.MLP and self.model.hidden_units < 1:
            raise ValueError("model.hidden_units must be >= 1")
        if fl.clients_per_round > fl.total_clients:
            raise ValueError("fl.clients_per_round exceeds fl.total_clients")
        if fl.clients_per_round < 1:
            raise ValueError("fl.clients_per_round must be >= 1")
        if fl.rounds < 1:
            raise ValueError("fl.rounds must be >= 1")
        for key in ("local_epochs", "batch_size"):
            if getattr(fl, key) < 1:
                raise ValueError(f"fl.{key} must be >= 1")
        if fl.learning_rate < 0:
            raise ValueError("fl.learning_rate must be >= 0")
        if fl.server_lr < 0:
            raise ValueError("fl.server_lr must be >= 0")
        if attack.n_adversaries < 0 or attack.n_adversaries > fl.clients_per_round:
            raise ValueError("attack.n_adversaries outside [0, roster size]")
        if (attack.n_adversaries >= fl.clients_per_round / 2
                and attack.kind is not AttackKind.NONE
                and attack.n_adversaries > 0
                and not self.allow_majority_adversaries):
            raise ValueError(
                "threat model: adversaries must stay below half the round "
                "roster (set allow_majority_adversaries to override)")
        if attack.kind is AttackKind.GAUSSIAN_NOISE \
                and attack.strategy is AttackStrategy.CONSTRAIN_AND_SCALE:
            raise ValueError("the noise attack has no adversarial dataset to "
                             "blend; constrain_and_scale does not apply")
        factor = attack.boosting_factor
        if factor != "auto" and (isinstance(factor, str) or not factor > 0):
            raise ValueError("attack.boosting_factor: expected a positive "
                             f"number or 'auto', got {factor!r}")
        if attack.sigma < 0:
            raise ValueError("attack.sigma must be >= 0")
        if not 0.0 <= attack.alpha <= 1.0:
            raise ValueError("attack.alpha must be in [0, 1]")
        if attack.pgd_radius is not None and attack.pgd_radius < 0:
            raise ValueError("attack.pgd_radius must be >= 0")
        bd = attack.backdoor
        if not 0.0 <= bd.poison_fraction <= 1.0:
            raise ValueError("attack.backdoor.poison_fraction outside [0, 1]")
        if attack.kind is AttackKind.BACKDOOR and synth:
            if bd.flavor is not BackdoorFlavor.EDGE:
                bd.resolve_indices(ds.synth.n_features)
            if not 0 <= bd.target_label < ds.synth.n_classes:
                raise ValueError("attack.backdoor.target_label must be in "
                                 f"[0, {ds.synth.n_classes}), the classes "
                                 f"of dataset.synth, got {bd.target_label}")
            if bd.flavor is BackdoorFlavor.EDGE and bd.edge_ratio < 0:
                raise ValueError("attack.backdoor.edge_ratio must be >= 0")
            # every flavour scores the backdoor on the test split's rows of
            # another label; the balanced blobs give one row to class 0
            if ds.synth.n_test == 1 and bd.target_label == 0:
                raise ValueError("dataset.synth.n_test must be >= 2 when "
                                 "attack.backdoor.target_label is 0: the "
                                 "one test row is labelled 0, so no row "
                                 "scores the backdoor")
        if (attack.kind is AttackKind.BACKDOOR
                and bd.flavor is BackdoorFlavor.DBA
                and attack.n_adversaries >= 1):
            key, width = ("feature_indices", len(bd.feature_indices)) \
                if bd.feature_indices is not None \
                else ("n_trigger_features", bd.n_trigger_features)
            if width < attack.n_adversaries:
                raise ValueError(
                    f"attack.backdoor.{key}: a DBA trigger of {width} "
                    f"features cannot be split among "
                    f"{attack.n_adversaries} adversaries")
        if ds.source is DataSource.IDX:
            for f in dataclasses.fields(ds.idx):
                if getattr(ds.idx, f.name) is None:
                    raise ValueError(f"dataset.idx.{f.name}: required when "
                                     "dataset.source is idx")
            if (attack.kind is AttackKind.BACKDOOR
                    and bd.flavor is BackdoorFlavor.EDGE):
                raise ValueError("attack.backdoor.flavor: the edge-case pool "
                                 "needs dataset.source synth")
        if agg.kind not in AGGREGATORS:
            raise ValueError(f"aggregator.kind: unknown kind {agg.kind!r}")
        # the baselines' own limits, for the kind that reads each key; the
        # round's update matrix has fl.clients_per_round rows
        n = fl.clients_per_round
        if agg.kind == "trimmed_mean" and agg.trim_k is not None:
            if agg.trim_k < 0:
                raise ValueError("aggregator.trim_k must be >= 0")
            if 2 * agg.trim_k >= n:
                raise ValueError("aggregator.trim_k must be below half of "
                                 f"fl.clients_per_round ({n}), got "
                                 f"{agg.trim_k}")
        if agg.kind == "krum":
            if agg.krum_f is not None and agg.krum_f < 0:
                raise ValueError("aggregator.krum_f must be >= 0")
            f = attack.n_adversaries if agg.krum_f is None else agg.krum_f
            if n < f + 3:
                raise ValueError(
                    f"fl.clients_per_round must be >= krum's f + 3 = {f + 3} "
                    "(f is aggregator.krum_f, else attack.n_adversaries), "
                    f"got {n}")
        if agg.kind == "flame":
            if n < 3:
                raise ValueError("fl.clients_per_round must be >= 3 under "
                                 f"flame, got {n}")
            if agg.flame_noise_factor < 0:
                raise ValueError("aggregator.flame_noise_factor must be >= 0")
        if not agg.epsilon > 0:
            raise ValueError("aggregator.epsilon must be > 0")
        if agg.max_iterations < 1:
            raise ValueError("aggregator.max_iterations must be >= 1")
        if not 0.0 < self.fltrust_root_fraction < 1.0:
            raise ValueError("fltrust_root_fraction must be in (0, 1)")
        return self


def _check_fields(section, path: str = "") -> None:
    """Refuse a choice field set in code to anything but its enum, and NaN
    or +-inf in any number field (`nan < 0` is false, so no range check
    would catch it)."""
    for f in dataclasses.fields(section):
        value, sub_path = getattr(section, f.name), path + f.name
        if dataclasses.is_dataclass(f.type):
            _check_fields(value, sub_path + ".")
        elif isinstance(f.type, EnumMeta) and not isinstance(value, f.type):
            raise ValueError(f"{sub_path}: expected a {f.type.__name__}, "
                             f"got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{sub_path}: expected a finite number, "
                             f"got {value!r}")


def check_file_name(key: str, name: str) -> None:
    """Refuse a name that is empty, '..' or holds a path separator."""
    if name in ("", "..") or Path(name).name != name:
        raise ValueError(f"{key}: expected a plain file name, got {name!r}")


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
    if isinstance(target_type, EnumMeta):
        try:
            return target_type(value)
        except ValueError:
            allowed = " | ".join(member.value for member in target_type)
            raise ValueError(f"{path}: expected one of {allowed}, "
                             f"got {value!r}") from None
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
        if isinstance(value, str):  # YAML 1.1 reads 1e-6 as a string
            try:
                return float(value)
            except ValueError:
                pass
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
    unknown = [f"{path}.{key}" if path else str(key)
               for key in data if key not in known]
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    kwargs = {}
    for name, f in known.items():
        if name not in data:
            continue
        sub_path = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(f.type):
            kwargs[name] = _build(f.type, data[name], sub_path)
        else:
            kwargs[name] = _coerce(data[name], f.type, sub_path)
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data).validate()


def _set(data: dict, key: str, value, replace: bool = True) -> None:
    """Set a dotted key in a config mapping, adding missing sections."""
    *sections, leaf = key.split(".")
    for depth, part in enumerate(sections, start=1):
        if data.get(part) is None:
            data[part] = {}
        data = data[part]
        if not isinstance(data, dict):
            raise ValueError(f"{'.'.join(sections[:depth])}: expected a "
                             f"mapping, got {data!r}")
    if replace or leaf not in data:
        data[leaf] = value


def _read_yaml(path: Path, what: str) -> dict:
    """The mapping a YAML file holds, unbuilt; `what` names the file."""
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a mapping, got {data!r}")
    return data


def load_config(path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Load a YAML config, apply 'section.key=value' overrides to it (values
    parse as YAML scalars), default output.name to the file's stem, then
    build and validate the result once."""
    path = Path(path)
    data = _read_yaml(path, "config file")
    for item in overrides:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ValueError(f"override {item!r} must look like key=value")
        _set(data, key.strip(), yaml.safe_load(raw))
    _set(data, "output.name", path.stem, replace=False)
    return config_from_dict(data)
