"""Deterministic federated-learning simulator with truth-discovery and
Byzantine-robust aggregation."""

from .aggregators import (coordinate_median, fedavg, flame, fltrust,
                          krum_select, trimmed_mean)
from .attacks import (AttackKind, AttackSpec, AttackStrategy,
                      boost_update, boosting_factor, constrain_and_scale,
                      gaussian_noise, pgd_project)
from .config import ExperimentConfig, apply_overrides, load_config
from .data import (Dataset, PartitionPlan, TriggerSpec, apply_trigger,
                   backdoor_eval_set, dba_shards, edge_case_augment,
                   load_idx, partition_label_skew, save_idx, synth_blobs)
from .simulator import (NonFiniteUpdate, RoundReport, apply_global_update,
                        fltrust_server_step, run_experiment,
                        select_round_roster)
from .training import (ModelKind, ModelSpec, TrainConfig, evaluate,
                       extract_update, init_model, local_train)
from .truth import (CoefficientFunction, FedTruthConfig, InitScheme,
                    TruthEstimate, estimate_truth, estimate_truth_layered,
                    performances_to_weights, resilience_gap)
from .vectors import DistanceKind, distance, weighted_sum

__version__ = "0.1.0"
