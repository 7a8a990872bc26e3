"""The benchmark's workloads: named lists of simulator cells.

A cell is one experiment config (the dict form accepted by
`fedtruth.config.config_from_dict`). Every config is spelled out here
rather than loaded from `configs/`, so editing an example config never
changes what the benchmark measures.

Each cell's config carries its default master seed, at which its outputs
are pinned by `reference.json`; the timed passes of a run put seeds drawn
from the run's `--seed` in its place.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Cell:
    name: str
    config: dict  # master_seed is the default seed

    @property
    def rounds(self) -> int:
        return self.config["fl"]["rounds"]

    @property
    def iteration_cap(self) -> int:
        """Upper bound on the CSV `iters` column of one round."""
        agg = self.config["aggregator"]
        cap = agg.get("max_iterations", 100)
        if agg["kind"] == "fedtruth_layer":
            # one estimator run per named layer: W, b or W1, b1, W2, b2
            cap *= 4 if self.config["model"]["kind"] == "mlp" else 2
        return cap

    def with_seed(self, master_seed: int) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["master_seed"] = int(master_seed)
        return cfg


@dataclass(frozen=True)
class Workload:
    name: str
    cells: List[Cell]
    # Timed passes cycle through this many master seeds drawn from --seed,
    # so a run averages over inputs whose cost differs by seed.
    seeds_per_run: int = 1

    def run_seeds(self, seed: int) -> List[int]:
        return [seed * self.seeds_per_run + j
                for j in range(self.seeds_per_run)]


def _merge(base: dict, override: dict) -> dict:
    """Deep copy of `base` with `override` applied key by key."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        out[key] = _merge(out.get(key, {}), value) \
            if isinstance(value, dict) else value
    return out


# configs/boosting.yaml as the committed sweep ran it (fedtruth, euclidean,
# 3 adversaries, bias 0.8, seed 2): its CSV is
# runs/sweep_example/fedtruth_adv3_bias0.8_euclidean_seed2.csv.
BOOST = {
    "master_seed": 2,
    "dataset": {"noniid_bias": 0.8, "samples_per_client": 60,
                "synth": {"n_train": 4000, "n_test": 1000, "n_features": 20,
                          "n_classes": 2, "spread": 0.45}},
    "model": {"kind": "logreg"},
    "fl": {"total_clients": 20, "clients_per_round": 10, "rounds": 100,
           "server_lr": 0.6, "local_epochs": 30, "batch_size": 60,
           "learning_rate": 1.0},
    "attack": {"kind": "model_boost", "strategy": "with_boosting",
               "n_adversaries": 3, "boosting_factor": 10.0},
    "aggregator": {"kind": "fedtruth", "distance": "euclidean",
                   "coefficient": "neglog"},
}

# configs/gaussian_noise.yaml
NOISE = {
    "master_seed": 52,
    "dataset": {"noniid_bias": 0.8, "samples_per_client": 60,
                "synth": {"n_train": 4000, "n_test": 1000, "n_features": 20,
                          "n_classes": 2, "spread": 0.3}},
    "model": {"kind": "logreg"},
    "fl": {"total_clients": 20, "clients_per_round": 10, "rounds": 100,
           "server_lr": 1.0, "local_epochs": 1, "batch_size": 32,
           "learning_rate": 0.1},
    "attack": {"kind": "gaussian_noise", "strategy": "base",
               "n_adversaries": 3, "sigma": 1.0},
    "aggregator": {"kind": "fedtruth", "distance": "euclidean",
                   "coefficient": "inverse"},
}

# configs/dba_backdoor.yaml
DBA = _merge(NOISE, {
    "master_seed": 8,
    "dataset": {"noniid_bias": 0.5},
    "fl": {"batch_size": 60},
    "attack": {"kind": "backdoor", "strategy": "base", "n_adversaries": 3,
               "pgd_radius": 0.04,
               "backdoor": {"flavor": "dba", "n_trigger_features": 6,
                            "trigger_value": 1.0, "target_label": 0,
                            "poison_fraction": 1.0}},
    "aggregator": {"kind": "fedtruth", "distance": "cosine",
                   "coefficient": "neglog"},
})

# The DBA scenario with edge-case data under constrain-and-scale: each
# adversary trains twice and its shard grows by the appended edge rows.
EDGE = _merge(DBA, {"attack": {"strategy": "constrain_and_scale",
                               "backdoor": {"flavor": "edge"}},
                    "aggregator": {"distance": "euclidean"}})

# n x d regime: 100 of 200 clients per round, MLP with d = 6762.
WIDE = {
    "master_seed": 3,
    "dataset": {"synth": {"n_train": 15000, "n_features": 200,
                          "n_classes": 10, "spread": 0.15}},
    "model": {"kind": "mlp", "hidden_units": 32},
    "fl": {"total_clients": 200, "clients_per_round": 100, "rounds": 10,
           "local_epochs": 2, "batch_size": 32, "learning_rate": 0.5},
    "attack": {"kind": "gaussian_noise", "n_adversaries": 20, "sigma": 1.0},
    "aggregator": {"kind": "fedtruth"},
}

# The eight aggregator kinds of fedtruth.config.AGGREGATOR_KINDS, listed
# here so the workload stays fixed if that tuple changes.
WIDE_KINDS = ("fedtruth", "fedtruth_layer", "fedavg", "krum", "median",
              "trimmed_mean", "fltrust", "flame")

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("boost", [Cell("boost", BOOST)]),
    # the dba cell's estimator iterations swing by +-25% from seed to seed
    Workload("attack-mix",
             [Cell("noise", NOISE), Cell("dba", DBA), Cell("edge", EDGE)],
             seeds_per_run=4),
    Workload("wide-sweep",
             [Cell(kind, _merge(WIDE, {"aggregator": {"kind": kind}}))
              for kind in WIDE_KINDS]),
)}
