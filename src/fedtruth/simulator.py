"""End-to-end federated round orchestration.

A run is `build_run_data(cfg)`, `client_streams(cfg)` and a loop of
`run_round(cfg, data, streams, w, t) -> (next_w, report)`: the global
model is the only thing one round hands the next. Setup is one read-only
`RunData`, a function of the config alone; data.py's `shard_table` reads
the pool once into one table of the distinct rows the shards (and
FLTrust's root set) drew, and setup calls the data and rng names through
this module, where a tracer can rebind them. A round writes neither its
setup nor `w`: select a roster and its adversaries, train locally from `w`,
transform adversarial models and take their updates against `w`,
aggregate, step the global model and evaluate it. Every stochastic site
draws from a stream derived from (master_seed, purpose, round, client),
so runs are bit-for-bit reproducible and a round replays from its start
model alone; wall-clock timings are the only nondeterministic report
fields. `ClientStreams` derives a purpose's per-client streams a chunk
of rounds at a time and keeps only what its key determines (see rng.py).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from . import aggregators as agg
from .attacks import (AttackKind, AttackStrategy, boost_update,
                      constrain_and_scale, gaussian_noise, pgd_project)
from .data import (BackdoorFlavor, DataSource, Dataset, TableRows,
                   TriggerSpec, apply_trigger, backdoor_eval_set,
                   blob_stream, dba_shards, edge_case_augment, idx_stream,
                   load_idx, partition_label_skew, shard_table, synth_blobs,
                   PartitionPlan)
from .rng import ClientStreams, stream
from .training import (ModelSpec, extract_update, init_model, predict,
                       train_roster)
from .truth import NonFiniteWeights, estimate_truth, estimate_truth_layered
from .vectors import Updates

if TYPE_CHECKING:
    from .config import (AggregatorConfig, AttackConfig, BackdoorConfig,
                         ExperimentConfig)


class NonFiniteUpdate(RuntimeError):
    """A NaN or Inf reached the aggregation boundary or the global model.

    `client` is the id of the client whose update it was, or None when the
    server step went non-finite: the estimator's weights or the new global
    model.
    """

    def __init__(self, round_index: int, client: Optional[int] = None):
        self.round_index = round_index
        self.client = client
        where = "server step" if client is None \
            else f"update of client {client}"
        super().__init__(f"non-finite {where} in round {round_index}")


@dataclass
class RoundReport:
    round_index: int
    main_accuracy: float
    backdoor_accuracy: Optional[float]
    aggregation_wall_time: float
    fedtruth_iterations: Optional[int]
    weights: Optional[List[float]]  # aligned with client_ids, or None
    client_ids: List[int]
    adversary_ids: List[int]


def select_round_roster(total_clients: int, clients_per_round: int,
                        n_adversaries: int, round_index: int,
                        master_seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform roster and adversary subset for one round.

    The draw only depends on (master_seed, round_index); both id arrays come
    back sorted.
    """
    if clients_per_round > total_clients:
        raise ValueError("clients_per_round cannot exceed total_clients")
    if n_adversaries > clients_per_round:
        raise ValueError("n_adversaries cannot exceed clients_per_round")
    rng = stream(master_seed, "roster", round_index)
    roster = np.sort(rng.choice(total_clients, size=clients_per_round,
                                replace=False))
    adversaries = np.sort(rng.choice(roster, size=n_adversaries,
                                     replace=False))
    return roster, adversaries


def apply_global_update(w: np.ndarray, delta: np.ndarray,
                        eta: float) -> np.ndarray:
    """Server step w - eta * delta."""
    return w - eta * delta


@dataclass
class AggregationContext:
    """What an aggregator may need besides the client update matrix. Only
    fltrust calls `server_update` and only flame calls `flame_rng`, so no
    other kind pays for the server's training or the noise stream."""
    layer_sizes: Sequence[int]  # consecutive layer lengths of an update
    config: AggregatorConfig
    krum_f: int  # the config's krum_f, else the assumed adversary count
    server_update: Callable[[], np.ndarray]
    flame_rng: Callable[[], np.random.Generator]


def _fedtruth(flats, ctx):
    est = estimate_truth(flats, ctx.config.fedtruth_config())
    return est.truth, est.weights, est.iterations


def _fedtruth_layer(flats, ctx):
    truth, ests = estimate_truth_layered(
        flats, ctx.layer_sizes, ctx.config.fedtruth_config())
    # a client's reported weight is its per-layer weight averaged by size
    sizes = np.asarray(ctx.layer_sizes, dtype=np.float64)
    stacked = np.stack([e.weights for e in ests])
    weights = (sizes[:, None] * stacked).sum(axis=0) / sizes.sum()
    return truth, weights, sum(e.iterations for e in ests)


def _fedavg(flats, ctx):
    # every shard holds dataset.samples_per_client rows, so the sample-count
    # weights n_k / sum(n) are 1/n each
    n = len(flats)
    return agg.fedavg(flats), np.full(n, 1.0 / n), None


def _krum(flats, ctx):
    chosen = agg.krum_select(flats, ctx.krum_f)
    weights = np.zeros(len(flats))
    weights[chosen] = 1.0
    return flats[chosen], weights, None


def _trimmed_mean(flats, ctx):
    trim_k = ctx.config.trim_k
    if trim_k is None:
        trim_k = agg.default_trim_k(len(flats))
    return agg.trimmed_mean(flats, trim_k), None, None


def _fltrust(flats, ctx):
    result, scores = agg.fltrust(flats, ctx.server_update())
    total = scores.sum()
    return result, scores / total if total > 0 else None, None


def _flame(flats, ctx):
    result, kept = agg.flame(flats, ctx.config.flame_noise_factor,
                             ctx.flame_rng())
    weights = np.zeros(len(flats))
    weights[kept] = 1.0 / len(kept)
    return result, weights, None


# One table of aggregator kinds for the simulator, the bench and config
# validation: (update matrix, context) -> (aggregate, per-client weights or
# None, estimator iterations or None). The simulator passes the round's
# (n, d) matrix; a list of equal-length flat vectors works too. Callees are
# module attributes read at call time, so rebinding one (to trace it, say)
# reaches every entry.
AGGREGATORS: Dict[str, Callable[
    [Updates, AggregationContext],
    Tuple[np.ndarray, Optional[np.ndarray], Optional[int]]]] = {
    "fedtruth": _fedtruth,
    "fedtruth_layer": _fedtruth_layer,
    "fedavg": _fedavg,
    "krum": _krum,
    "median": lambda flats, ctx: (agg.coordinate_median(flats), None, None),
    "trimmed_mean": _trimmed_mean,
    "fltrust": _fltrust,
    "flame": _flame,
}


@dataclass(frozen=True)
class RunData:
    """A run's setup: everything its rounds read besides the config and
    the global model. `__post_init__` makes every array in it read-only
    in place, so no round can change what a later one sees."""

    test_set: Dataset
    shards: Tuple[TableRows, ...]  # by client id
    root_set: Optional[TableRows]  # fltrust's, else None
    backdoor_test: Optional[Dataset]
    edge_pool: Optional[Dataset]
    # the trigger each adversary applies, by its position among the
    # round's adversaries: a DBA shard, else the whole trigger
    triggers: Tuple[TriggerSpec, ...]
    model_spec: ModelSpec
    layer_sizes: Tuple[int, ...]  # consecutive layer lengths of a model
    initial_model: np.ndarray

    def __post_init__(self):
        # the shard table and its row ids are read-only already
        for ds in (self.test_set, self.backdoor_test, self.edge_pool):
            if ds is not None:
                ds.features.setflags(write=False)
                ds.labels.setflags(write=False)
        self.initial_model.setflags(write=False)


def build_run_data(cfg: ExperimentConfig) -> RunData:
    """The setup of a run of the validated `cfg`, a function of it alone.

    Builds the test set and the poisoning inputs, then draws the client
    shards and fltrust's root set on the training pool's labels;
    `shard_table` reads the pool once into the rows they drew. Refuses
    what `validate()` cannot see of IDX files.
    """
    seed, ds_cfg, atk = cfg.master_seed, cfg.dataset, cfg.attack
    bd = atk.backdoor
    backdoor = atk.kind is AttackKind.BACKDOOR
    if ds_cfg.source is DataSource.SYNTH:
        s = ds_cfg.synth
        pool = blob_stream(s.n_train, s.n_features, s.n_classes, s.spread,
                           stream(seed, "data-train"))
        test_set = synth_blobs(s.n_test, s.n_features, s.n_classes,
                               s.spread, stream(seed, "data-test"))
    else:
        idx = ds_cfg.idx
        pool = idx_stream(idx.train_images, idx.train_labels)
        test_set = load_idx(idx.test_images, idx.test_labels)
        if test_set.n_features != pool.n_features:
            raise ValueError(
                f"dataset.idx.test_images: {idx.test_images} holds images "
                f"of {test_set.n_features} features, the training images "
                f"of {pool.n_features}")
        if test_set.n_classes > pool.n_classes:
            raise ValueError(
                f"dataset.idx.test_labels: {idx.test_labels} holds labels "
                f"of {test_set.n_classes} classes, the training labels of "
                f"{pool.n_classes}")
        empty = np.flatnonzero(np.bincount(pool.labels,
                                           minlength=pool.n_classes) == 0)
        if empty.size:
            raise ValueError(f"dataset.idx.train_labels: {idx.train_labels} "
                             f"holds no row of class {empty[0]}")
        if len(test_set) == 0:
            raise ValueError(f"dataset.idx.test_images: "
                             f"{idx.test_images} holds no images")
        # validate() refuses both for synth and the edge flavour for IDX
        if backdoor and not 0 <= bd.target_label < pool.n_classes:
            raise ValueError(
                f"attack.backdoor.target_label: {bd.target_label} outside "
                f"[0, {pool.n_classes}), the classes of "
                f"{idx.train_labels}")
        if backdoor and (test_set.labels == bd.target_label).all():
            raise ValueError(
                f"attack.backdoor.target_label: every row of test set "
                f"{idx.test_images} is labelled {bd.target_label}, so "
                f"no row can measure the backdoor")

    triggers: Tuple[TriggerSpec, ...] = ()
    backdoor_test = edge_pool = None
    if backdoor and bd.flavor is BackdoorFlavor.EDGE:
        # an inverted-contrast pool labelled target, and an evaluation
        # split of inverted rows whose true label differs
        s = ds_cfg.synth
        edge = synth_blobs(s.n_test, s.n_features, s.n_classes, s.spread,
                           stream(seed, "edge-pool"))
        edge_pool = Dataset(1.0 - edge.features,
                            np.full(len(edge), bd.target_label),
                            edge.n_classes)
        eval_src = synth_blobs(s.n_test, s.n_features, s.n_classes,
                               s.spread, stream(seed, "edge-eval"))
        keep = np.flatnonzero(eval_src.labels != bd.target_label)
        backdoor_test = Dataset(1.0 - eval_src.features[keep],
                                eval_src.labels[keep], eval_src.n_classes)
    elif backdoor:
        trigger = TriggerSpec(tuple(bd.resolve_indices(pool.n_features)),
                              bd.trigger_value, bd.target_label)
        backdoor_test = backdoor_eval_set(test_set, trigger)
        if bd.flavor is not BackdoorFlavor.DBA:
            triggers = (trigger,) * atk.n_adversaries
        elif atk.n_adversaries >= 1:
            triggers = tuple(dba_shards(trigger, atk.n_adversaries))

    spec = ModelSpec(cfg.model.kind, pool.n_features, pool.n_classes,
                     cfg.model.hidden_units)
    initial_model = init_model(spec, stream(seed, "init"))

    rows, root = None, []
    if cfg.aggregator.kind == "fltrust":
        n_root = max(1, int(cfg.fltrust_root_fraction * len(pool)))
        root = [stream(seed, "root").choice(len(pool), size=n_root,
                                            replace=False)]
        mask = np.ones(len(pool), dtype=bool)
        mask[root[0]] = False
        rows = np.flatnonzero(mask)
        # classes the root holds and no row left to the clients does
        taken = np.setdiff1d(pool.labels[root[0]], pool.labels[rows])
        if taken.size:
            raise ValueError(
                f"fltrust_root_fraction: the root set takes every row "
                f"of class {taken[0]}, so no client can draw one")
    plan = PartitionPlan(cfg.fl.total_clients, ds_cfg.noniid_bias,
                         ds_cfg.samples_per_client)
    ids = partition_label_skew(pool.labels, pool.n_classes, plan,
                               stream(seed, "partition"), rows)
    shards = shard_table(pool, ids + root)
    root_set = shards.pop() if root else None
    return RunData(test_set, tuple(shards), root_set, backdoor_test,
                   edge_pool, triggers, spec,
                   tuple(math.prod(shape) for _, shape
                         in spec.layer_shapes()),
                   initial_model)


def client_streams(cfg: ExperimentConfig) -> Dict[str, ClientStreams]:
    """stream(seed, purpose, round, client) of each per-client purpose;
    nothing is derived until a round asks."""
    return {purpose: ClientStreams(cfg.master_seed, purpose,
                                   cfg.fl.total_clients)
            for purpose in ("train", "train-benign", "poison", "noise")}


def _poisoned_shard(bd: BackdoorConfig, data: RunData, client: int,
                    adv_position: int,
                    rng: np.random.Generator) -> Dataset:
    shard = data.shards[client]
    if bd.flavor is BackdoorFlavor.EDGE:
        return edge_case_augment(shard, data.edge_pool, bd.edge_ratio, rng,
                                 bd.target_label)
    poisoned, _ = apply_trigger(shard, data.triggers[adv_position],
                                bd.poison_fraction, rng)
    return poisoned


def _attack_pipeline(atk: AttackConfig, factor: Optional[float],
                     w: np.ndarray,
                     model: np.ndarray, benign: Optional[np.ndarray],
                     noise_rng: Optional[np.random.Generator]) -> np.ndarray:
    """Trained model -> model transform -> projection -> update
    extraction -> update boosting, against the round's start model `w`.
    `benign` is the client's benign model under constrain-and-scale, and
    `noise_rng` its noise stream under the noise attack; else None."""
    if noise_rng is not None:
        model = gaussian_noise(model, atk.sigma, noise_rng)
    elif benign is not None:
        model = constrain_and_scale(benign, model, atk.alpha, factor)

    if atk.pgd_radius is not None:
        model = pgd_project(model, w, atk.pgd_radius)

    delta = extract_update(w, model)
    if atk.kind is AttackKind.MODEL_BOOST \
            or atk.strategy is AttackStrategy.WITH_BOOSTING:
        delta = boost_update(delta, factor)
    return delta


def _client_updates(cfg: ExperimentConfig, data: RunData,
                    streams: Dict[str, ClientStreams], w: np.ndarray,
                    round_index: int, roster: Sequence[int],
                    adversaries: Sequence[int]) -> np.ndarray:
    """The round's (n, d) update matrix against `w`, one row per roster
    client in roster order, not yet checked.

    The round trains the roster's models, then the benign models of
    constrain-and-scale adversaries, in one `train_roster` call.
    """
    atk = cfg.attack
    roster = [int(c) for c in roster]
    adv_set = set() if atk.kind is AttackKind.NONE \
        else set(int(a) for a in adversaries)
    # (row, client) of each adversary in roster order; its index here
    # is its position among the round's adversaries
    advs = [(row, c) for row, c in enumerate(roster) if c in adv_set]
    datasets = [data.shards[c] for c in roster]
    rngs = [streams["train"](round_index, c) for c in roster]
    blend = atk.kind is AttackKind.BACKDOOR \
        and atk.strategy is AttackStrategy.CONSTRAIN_AND_SCALE
    for position, (row, c) in enumerate(advs):
        if atk.kind is AttackKind.BACKDOOR:
            datasets[row] = _poisoned_shard(
                atk.backdoor, data, c, position,
                streams["poison"](round_index, c))
        if blend:
            datasets.append(data.shards[c])
            rngs.append(streams["train-benign"](round_index, c))
    models = train_roster(w, datasets, data.model_spec,
                          cfg.fl.train_config(), rngs)

    n = len(roster)
    factor = atk.resolve_factor(cfg.fl.clients_per_round, len(advs)) \
        if advs else None
    noisy = atk.kind is AttackKind.GAUSSIAN_NOISE
    attacked = [_attack_pipeline(
        atk, factor, w, models[row], models[n + position] if blend else None,
        streams["noise"](round_index, c) if noisy else None)
        for position, (row, c) in enumerate(advs)]
    updates = models[:n]
    np.subtract(w, updates, out=updates)
    for (row, _), delta in zip(advs, attacked):
        updates[row] = delta
    return updates


def _aggregate(cfg: ExperimentConfig, data: RunData, w: np.ndarray,
               updates: Updates, round_index: int):
    """Run the configured aggregator on the round's update matrix.

    Returns (delta, per-client weights or None, iterations or None).
    Weights align with the roster order.
    """
    agg_cfg, seed = cfg.aggregator, cfg.master_seed
    ctx = AggregationContext(
        layer_sizes=data.layer_sizes, config=agg_cfg,
        krum_f=cfg.attack.n_adversaries if agg_cfg.krum_f is None
        else agg_cfg.krum_f,
        server_update=lambda: extract_update(w, train_roster(
            w, [data.root_set], data.model_spec, cfg.fl.train_config(),
            [stream(seed, "fltrust", round_index)])[0]),
        flame_rng=lambda: stream(seed, "flame", round_index))
    try:
        return AGGREGATORS[agg_cfg.kind](updates, ctx)
    except NonFiniteWeights as err:
        raise NonFiniteUpdate(round_index) from err


def run_round(cfg: ExperimentConfig, data: RunData,
              streams: Dict[str, ClientStreams], w: np.ndarray,
              t: int) -> Tuple[np.ndarray, RoundReport]:
    """Round t from global model `w`, which it does not write: the next
    global model and the round's report. The round's (n, d) update matrix
    is released on return, before the next round trains."""
    roster, adversaries = select_round_roster(
        cfg.fl.total_clients, cfg.fl.clients_per_round,
        cfg.attack.n_adversaries, t, cfg.master_seed)
    updates = _client_updates(cfg, data, streams, w, t, roster, adversaries)
    if not np.isfinite(updates).all():
        # name the first non-finite client in roster order
        row = np.isfinite(updates).all(axis=1).argmin()
        raise NonFiniteUpdate(t, int(roster[row]))

    t0 = time.perf_counter()
    delta, weights, iterations = _aggregate(cfg, data, w, updates, t)
    agg_time = time.perf_counter() - t0

    next_w = apply_global_update(w, delta, cfg.fl.server_lr)
    if not np.isfinite(next_w).all():
        raise NonFiniteUpdate(t)
    accuracy = float((predict(next_w, data.test_set, data.model_spec)
                      == data.test_set.labels).mean())
    backdoor_acc = None
    if data.backdoor_test is not None:
        preds = predict(next_w, data.backdoor_test, data.model_spec)
        backdoor_acc = float(
            (preds == cfg.attack.backdoor.target_label).mean())

    return next_w, RoundReport(
        round_index=t,
        main_accuracy=accuracy,
        backdoor_accuracy=backdoor_acc,
        aggregation_wall_time=agg_time,
        fedtruth_iterations=iterations,
        weights=None if weights is None else [float(x) for x in weights],
        client_ids=[int(c) for c in roster],
        adversary_ids=[int(a) for a in adversaries],
    )


def run_experiment(cfg: ExperimentConfig) -> List[RoundReport]:
    """Run the configured experiment; one report per round."""
    cfg.validate()
    data = build_run_data(cfg)
    streams = client_streams(cfg)
    w, reports = data.initial_model, []
    for t in range(cfg.fl.rounds):
        w, report = run_round(cfg, data, streams, w, t)
        reports.append(report)
    return reports
