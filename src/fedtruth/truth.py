"""Truth-discovery aggregation with dynamic per-client weights.

The aggregate ("truth") and per-client weights are estimated jointly: the
weighted total distance between the truth and the client updates is driven
down by alternating a performance/weight update with a weighted-average
truth update until the truth stabilises. Clients whose updates sit far from
the current truth receive small weights, which suppresses boosted, noised,
or backdoored updates without discarding benign outliers entirely.

The updates arrive as one (n, d) update matrix (see `vectors`), checked
once per call; every iteration works on its rows. The layered variant runs
the same estimator independently on each layer's column block of that
matrix, so the weight a client receives may differ from layer to layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .vectors import (DistanceKind, Updates, distances_to, update_matrix,
                      weighted_sum)

# Performance values are floored here before the coefficient function is
# applied; both coefficient functions blow up at 0, and an exact match
# should get a very large but finite weight.
PERFORMANCE_FLOOR = 1e-12


class CoefficientFunction(Enum):
    """Decreasing map from performance share to unnormalised weight."""

    INVERSE = "inverse"   # g(p) = 1/p
    NEG_LOG = "neglog"    # g(p) = -log(p)

    def weight(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        if self is CoefficientFunction.INVERSE:
            return 1.0 / p
        return -np.log(p)

    def performance_shares(self, distances: np.ndarray) -> np.ndarray:
        """Block-minimising performance values for given distances.

        Under the sum-to-one constraint the stationary performance values
        are proportional to d for -log and to sqrt(d) for 1/p; using the
        matching form keeps the converged estimate consistent with its own
        update equations for either coefficient function.
        """
        d = np.asarray(distances, dtype=np.float64)
        if self is CoefficientFunction.INVERSE:
            d = np.sqrt(d)
        total = d.sum()
        if total <= 0.0:
            p = np.full(d.size, 1.0 / d.size)
        else:
            p = d / total
        p = np.maximum(p, PERFORMANCE_FLOOR)
        return p / p.sum()


class InitScheme(Enum):
    SIMPLE_AVERAGE = "simple_average"
    FEDAVG_WEIGHTED = "fedavg_weighted"


@dataclass(frozen=True)
class FedTruthConfig:
    distance: DistanceKind = DistanceKind.EUCLIDEAN
    coefficient: CoefficientFunction = CoefficientFunction.NEG_LOG
    epsilon: float = 1e-6
    max_iterations: int = 100
    init: InitScheme = InitScheme.SIMPLE_AVERAGE

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TruthEstimate:
    truth: np.ndarray
    weights: np.ndarray
    performances: np.ndarray
    iterations: int
    converged: bool


def performances_to_weights(p: Sequence[float],
                            g: CoefficientFunction) -> np.ndarray:
    """Aggregation weights a_k = g(p_k) / sum_j g(p_j).

    Larger performance share (farther from the truth) gives a smaller
    weight. When every g(p_k) is zero (single client with p = 1) the
    weights fall back to uniform.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0):
        raise ValueError("performance values must be positive after flooring")
    raw = g.weight(p)
    total = raw.sum()
    if total <= 0.0:
        return np.full(p.size, 1.0 / p.size)
    return raw / total


def _initial_truth(X: np.ndarray, cfg: FedTruthConfig,
                   sample_counts: Optional[Sequence[int]]) -> np.ndarray:
    n = len(X)
    if cfg.init is InitScheme.FEDAVG_WEIGHTED and sample_counts is not None:
        counts = np.asarray(sample_counts, dtype=np.float64)
        if counts.size != n or counts.sum() <= 0:
            raise ValueError("sample_counts must align with updates")
        return weighted_sum(X, counts / counts.sum())
    return weighted_sum(X, np.full(n, 1.0 / n))


def estimate_truth(updates: Updates, cfg: FedTruthConfig,
                   sample_counts: Optional[Sequence[int]] = None) -> TruthEstimate:
    """Jointly estimate the aggregate update and per-client weights.

    Alternates performance update -> weight update -> weighted average until
    the L2 change of the truth between successive iterations drops to
    cfg.epsilon, or cfg.max_iterations is hit. The reported performances and
    weights are recomputed once from the returned truth, so the estimate
    satisfies its own update equations exactly. `updates` is an (n, d)
    array or a list of n equal-length vectors.
    """
    X = update_matrix(updates)
    truth = _initial_truth(X, cfg, sample_counts)
    converged = False
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        d = distances_to(cfg.distance, truth, X)
        p = cfg.coefficient.performance_shares(d)
        a = performances_to_weights(p, cfg.coefficient)
        new_truth = weighted_sum(X, a)
        delta = float(np.linalg.norm(new_truth - truth))
        truth = new_truth
        if delta <= cfg.epsilon:
            converged = True
            break

    # Self-consistent report: performances/weights evaluated at the final
    # truth (they differ from the producing weights by at most O(epsilon)).
    d = distances_to(cfg.distance, truth, X)
    p = cfg.coefficient.performance_shares(d)
    a = performances_to_weights(p, cfg.coefficient)
    return TruthEstimate(truth=truth, weights=a, performances=p,
                         iterations=iterations, converged=converged)


def estimate_truth_layered(updates: Updates, layer_sizes: Sequence[int],
                           cfg: FedTruthConfig,
                           sample_counts: Optional[Sequence[int]] = None):
    """Run the truth estimator independently on every layer.

    Layer l is the column block of the updates that `layer_sizes` assigns
    to it. Returns the flat aggregate plus one TruthEstimate per layer;
    total iteration cost is the sum over layers.
    """
    X = update_matrix(updates)
    if len(layer_sizes) == 0 or min(layer_sizes) < 1:
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    bounds = np.concatenate([[0], np.cumsum(layer_sizes)])
    if bounds[-1] != X.shape[1]:
        raise ValueError(f"updates have length {X.shape[1]}, but the layer "
                         f"sizes sum to {bounds[-1]}")
    estimates = [estimate_truth(X[:, lo:hi], cfg, sample_counts)
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
    return np.concatenate([est.truth for est in estimates]), estimates


def resilience_gap(updates: Updates, f: int,
                   aggregate: np.ndarray,
                   rng: Optional[np.random.Generator] = None,
                   n_samples: int = 1000) -> float:
    """Empirical check of (f, 1)-resilient averaging.

    Over subsets S of size n - f, returns the maximum of
        ||aggregate - mean(S)|| - max_{i,j in S} ||x_i - x_j||.
    All subsets are enumerated for n <= 12; otherwise n_samples subsets are
    drawn uniformly (from a fixed stream unless rng is supplied). A
    non-positive result witnesses the resilience inequality on the tested
    subsets.
    """
    X = update_matrix(updates)
    n = len(X)
    if not 0 <= f < n / 2:
        raise ValueError(f"need 0 <= f < n/2, got f={f}, n={n}")
    aggregate = np.asarray(aggregate, dtype=np.float64)
    pair_dist = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)

    if n <= 12:
        subsets = combinations(range(n), n - f)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        subsets = (rng.choice(n, size=n - f, replace=False)
                   for _ in range(n_samples))

    worst = -np.inf
    for subset in subsets:
        idx = np.fromiter(subset, dtype=np.intp)
        mean_s = X[idx].mean(axis=0)
        diameter = pair_dist[np.ix_(idx, idx)].max()
        gap = float(np.linalg.norm(aggregate - mean_s)) - float(diameter)
        if gap > worst:
            worst = gap
    return worst
