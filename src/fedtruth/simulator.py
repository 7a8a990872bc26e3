"""End-to-end federated round orchestration.

Each round: select a roster, designate adversaries, train locally, apply
the configured attack transform to adversarial contributions, aggregate,
apply the global update, and evaluate. Every stochastic site draws from a
stream derived from (master_seed, purpose, round, client), so runs are
reproducible bit-for-bit regardless of execution order; wall-clock timings
are the only nondeterministic report fields.
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
from .data import (Dataset, TriggerSpec, apply_trigger, backdoor_eval_set,
                   dba_shards, edge_case_augment, partition_label_skew,
                   synth_blobs, load_idx, PartitionPlan)
from .rng import stream
from .training import (ModelSpec, TrainConfig, evaluate, extract_update,
                       init_model, local_train, predict)
from .truth import estimate_truth, estimate_truth_layered
from .vectors import Updates

if TYPE_CHECKING:
    from .config import AggregatorConfig, ExperimentConfig


class NonFiniteUpdate(RuntimeError):
    """A NaN or Inf reached the aggregation boundary or the global model.

    `client` is the id of the client whose update it was, or None when the
    global model went non-finite in the server step.
    """

    def __init__(self, round_index: int, client: Optional[int] = None):
        self.round_index = round_index
        self.client = client
        where = "global model" if client is None \
            else f"update of client {client}"
        super().__init__(f"non-finite {where} in round {round_index}")


def _require_finite(vector: np.ndarray, round_index: int,
                    client: Optional[int] = None) -> np.ndarray:
    if not np.isfinite(vector).all():
        raise NonFiniteUpdate(round_index, client)
    return vector


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


def fltrust_server_step(root_ds: Dataset, w: np.ndarray, spec: ModelSpec,
                        cfg: TrainConfig,
                        rng: np.random.Generator) -> np.ndarray:
    """Server-side reference update trained on the benign root split."""
    if len(root_ds) == 0:
        raise ValueError("fltrust root split is empty")
    trained = local_train(w, root_ds, spec, cfg, rng)
    return extract_update(w, trained)


@dataclass
class AggregationContext:
    """What an aggregator may need besides the client update matrix. Only
    fltrust calls `server_update` and only flame calls `flame_rng`, so no
    other kind pays for the server's training or the noise stream."""
    counts: Sequence[int]  # sample counts, aligned with the updates
    layer_sizes: Sequence[int]  # consecutive layer lengths of an update
    config: AggregatorConfig
    krum_f: int  # the config's krum_f, else the assumed adversary count
    server_update: Callable[[], np.ndarray]
    flame_rng: Callable[[], np.random.Generator]


def _fedtruth(flats, ctx):
    est = estimate_truth(flats, ctx.config.fedtruth_config(),
                         sample_counts=ctx.counts)
    return est.truth, est.weights, est.iterations


def _fedtruth_layer(flats, ctx):
    truth, ests = estimate_truth_layered(
        flats, ctx.layer_sizes, ctx.config.fedtruth_config(),
        sample_counts=ctx.counts)
    # a client's reported weight is its per-layer weight averaged by size
    sizes = np.asarray(ctx.layer_sizes, dtype=np.float64)
    stacked = np.stack([e.weights for e in ests])
    weights = (sizes[:, None] * stacked).sum(axis=0) / sizes.sum()
    return truth, weights, sum(e.iterations for e in ests)


def _fedavg(flats, ctx):
    return agg.fedavg(flats, ctx.counts), \
        np.asarray(ctx.counts, dtype=float) / sum(ctx.counts), None


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


class _Experiment:
    """Mutable state for one run; see run_experiment."""

    def __init__(self, cfg: ExperimentConfig):
        cfg.validate()
        self.cfg = cfg
        self.seed = cfg.master_seed
        self.attack = cfg.attack.to_spec()
        self.train_cfg = cfg.fl.train_config()
        self._build_data()
        self.model_spec = cfg.model.to_spec(self.train_pool.n_features,
                                            self.train_pool.n_classes)
        self.layer_sizes = [math.prod(shape) for _, shape
                            in self.model_spec.layer_shapes()]
        self.global_model = init_model(self.model_spec,
                                       stream(self.seed, "init"))
        self._partition()

    # -- setup -----------------------------------------------------------

    def _build_data(self) -> None:
        ds_cfg = self.cfg.dataset
        if ds_cfg.source == "synth":
            s = ds_cfg.synth
            self.train_pool = synth_blobs(s.n_train, s.n_features,
                                          s.n_classes, s.spread,
                                          stream(self.seed, "data-train"))
            self.test_set = synth_blobs(s.n_test, s.n_features, s.n_classes,
                                        s.spread,
                                        stream(self.seed, "data-test"))
        else:
            idx = ds_cfg.idx
            self.train_pool = load_idx(idx.train_images, idx.train_labels)
            self.test_set = load_idx(idx.test_images, idx.test_labels)

        self.trigger: Optional[TriggerSpec] = None
        self.backdoor_test: Optional[Dataset] = None
        self.edge_pool: Optional[Dataset] = None
        bd = self.cfg.attack.backdoor
        if self.attack.kind is AttackKind.BACKDOOR:
            if bd.flavor in ("trigger", "dba"):
                self.trigger = TriggerSpec(
                    tuple(bd.resolve_indices(self.train_pool.n_features)),
                    bd.trigger_value, bd.target_label)
                self.backdoor_test = backdoor_eval_set(self.test_set,
                                                       self.trigger)
            else:  # edge: a shifted pool, relabelled to the target
                self.edge_pool, self.backdoor_test = self._edge_sets()

    def _edge_sets(self) -> Tuple[Dataset, Dataset]:
        """Edge-case pool (inverted-contrast blobs labelled target) plus an
        evaluation split of inverted samples whose true label differs."""
        if self.cfg.dataset.source != "synth":
            raise ValueError("edge-case attack needs the synth source")
        s = self.cfg.dataset.synth
        bd = self.cfg.attack.backdoor
        pool = synth_blobs(s.n_test, s.n_features, s.n_classes, s.spread,
                           stream(self.seed, "edge-pool"))
        pool = Dataset(1.0 - pool.features,
                       np.full(len(pool), bd.target_label), pool.n_classes)
        eval_src = synth_blobs(s.n_test, s.n_features, s.n_classes, s.spread,
                               stream(self.seed, "edge-eval"))
        keep = np.flatnonzero(eval_src.labels != bd.target_label)
        eval_set = Dataset(1.0 - eval_src.features[keep],
                           eval_src.labels[keep], eval_src.n_classes)
        return pool, eval_set

    def _partition(self) -> None:
        pool = self.train_pool
        self.root_ds: Optional[Dataset] = None
        if self.cfg.aggregator.kind == "fltrust":
            n_root = max(1, int(self.cfg.fltrust_root_fraction * len(pool)))
            rng = stream(self.seed, "root")
            root_idx = rng.choice(len(pool), size=n_root, replace=False)
            mask = np.ones(len(pool), dtype=bool)
            mask[root_idx] = False
            self.root_ds = pool.subset(root_idx)
            pool = pool.subset(np.flatnonzero(mask))
        plan = PartitionPlan(self.cfg.fl.total_clients,
                             self.cfg.dataset.noniid_bias,
                             self.cfg.dataset.samples_per_client)
        self.shards = partition_label_skew(pool, plan,
                                           stream(self.seed, "partition"))

    # -- per-round pieces ------------------------------------------------

    def _benign_update(self, round_index: int, client: int) -> np.ndarray:
        trained = local_train(self.global_model, self.shards[client],
                              self.model_spec, self.train_cfg,
                              stream(self.seed, "train", round_index, client))
        return extract_update(self.global_model, trained)

    def _poisoned_shard(self, round_index: int, client: int,
                        adv_position: int, n_adv: int) -> Dataset:
        bd = self.cfg.attack.backdoor
        rng = stream(self.seed, "poison", round_index, client)
        if bd.flavor == "edge":
            return edge_case_augment(self.shards[client], self.edge_pool,
                                     bd.edge_ratio, rng)
        trig = self.trigger
        if bd.flavor == "dba":
            trig = dba_shards(trig, n_adv)[adv_position]
        poisoned, _ = apply_trigger(self.shards[client], trig,
                                    bd.poison_fraction, rng)
        return poisoned

    def _adversarial_update(self, round_index: int, client: int,
                            adv_position: int, n_adv: int) -> np.ndarray:
        """Attack pipeline: train -> model transform -> projection ->
        update extraction -> update boosting."""
        atk = self.attack
        w = self.global_model
        factor = atk.resolve_factor(self.cfg.fl.clients_per_round, n_adv)
        train_rng = stream(self.seed, "train", round_index, client)

        if atk.kind is AttackKind.BACKDOOR:
            local_ds = self._poisoned_shard(round_index, client,
                                            adv_position, n_adv)
        else:
            local_ds = self.shards[client]
        model = local_train(w, local_ds, self.model_spec, self.train_cfg,
                            train_rng)

        if atk.kind is AttackKind.GAUSSIAN_NOISE:
            noise_rng = stream(self.seed, "noise", round_index, client)
            model = gaussian_noise(model, atk.sigma, noise_rng)
        elif (atk.kind is AttackKind.BACKDOOR
              and atk.strategy is AttackStrategy.CONSTRAIN_AND_SCALE):
            benign = local_train(w, self.shards[client], self.model_spec,
                                 self.train_cfg,
                                 stream(self.seed, "train-benign",
                                        round_index, client))
            model = constrain_and_scale(benign, model, atk.alpha, factor)

        if atk.pgd_radius is not None:
            model = pgd_project(model, w, atk.pgd_radius)

        delta = extract_update(w, model)
        if atk.kind is AttackKind.MODEL_BOOST \
                or atk.strategy is AttackStrategy.WITH_BOOSTING:
            delta = boost_update(delta, factor)
        return delta

    def _aggregate(self, updates: Updates, counts: List[int],
                   round_index: int):
        """Run the configured aggregator on the round's update matrix.

        Returns (delta, per-client weights or None, iterations or None).
        Weights align with the roster order.
        """
        cfg = self.cfg.aggregator
        ctx = AggregationContext(
            counts=counts, layer_sizes=self.layer_sizes, config=cfg,
            krum_f=self.cfg.attack.n_adversaries if cfg.krum_f is None
            else cfg.krum_f,
            server_update=lambda: fltrust_server_step(
                self.root_ds, self.global_model, self.model_spec,
                self.train_cfg,
                stream(self.seed, "fltrust", round_index)),
            flame_rng=lambda: stream(self.seed, "flame", round_index))
        return AGGREGATORS[cfg.kind](updates, ctx)

    # -- driver ----------------------------------------------------------

    def run(self) -> List[RoundReport]:
        reports = []
        for t in range(self.cfg.fl.rounds):
            roster, adversaries = select_round_roster(
                self.cfg.fl.total_clients, self.cfg.fl.clients_per_round,
                self.cfg.attack.n_adversaries, t, self.seed)
            adv_set = set(int(a) for a in adversaries)
            # one checked row per roster client, in roster order
            updates = np.empty((len(roster), self.global_model.size))
            counts = []
            adv_position = 0
            for row, client in enumerate(roster):
                client = int(client)
                if client in adv_set \
                        and self.attack.kind is not AttackKind.NONE:
                    update = self._adversarial_update(
                        t, client, adv_position, len(adv_set))
                    adv_position += 1
                else:
                    update = self._benign_update(t, client)
                updates[row] = _require_finite(update, t, client)
                counts.append(len(self.shards[client]))

            t0 = time.perf_counter()
            delta, weights, iterations = self._aggregate(updates, counts, t)
            agg_time = time.perf_counter() - t0

            self.global_model = _require_finite(apply_global_update(
                self.global_model, delta, self.cfg.fl.server_lr), t)
            accuracy, _ = evaluate(self.global_model, self.test_set,
                                   self.model_spec)
            backdoor_acc = None
            if self.backdoor_test is not None:
                preds = predict(self.global_model, self.backdoor_test,
                                self.model_spec)
                backdoor_acc = float(
                    (preds == self.cfg.attack.backdoor.target_label).mean())

            reports.append(RoundReport(
                round_index=t,
                main_accuracy=accuracy,
                backdoor_accuracy=backdoor_acc,
                aggregation_wall_time=agg_time,
                fedtruth_iterations=iterations,
                weights=None if weights is None else [float(x) for x in weights],
                client_ids=[int(c) for c in roster],
                adversary_ids=sorted(adv_set),
            ))
        return reports


def run_experiment(cfg: ExperimentConfig) -> List[RoundReport]:
    """Run the configured experiment; one report per round."""
    return _Experiment(cfg).run()
