"""Truth-discovery aggregation with dynamic per-client weights.

The aggregate ("truth") and per-client weights are estimated jointly: the
weighted total distance between the truth and the client updates is driven
down by alternating a performance/weight update with a weighted-average
truth update until the truth stabilises. Clients whose updates sit far from
the current truth receive small weights, which suppresses boosted, noised,
or backdoored updates without discarding benign outliers entirely.

The updates arrive as one (n, d) update matrix (see `vectors`), checked
once per call and wrapped as `UpdateRows`, so the row norms and unit rows
the distances need are computed once. The estimator is one loop over
buffers allocated once per call: each pass takes the distances to the
truth, the shares and the weights in place, then stops (the last pass is
the report) or sums the next truth into one of two alternating buffers.
A pass is about 17 whole-matrix numpy calls, bit-identical to working row
by row, and tests only its weights for finiteness. The layered variant
runs the same estimator independently on each layer's column block of
that matrix, so the weight a client receives may differ by layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .vectors import DistanceKind, UpdateRows, Updates, distances_to, norm, \
    update_matrix

# Performance values are floored here before the coefficient function is
# applied; both coefficient functions blow up at 0, and an exact match
# should get a very large but finite weight.
PERFORMANCE_FLOOR = 1e-12

# Constant operands and sums are 0-d arrays: numpy converts a scalar operand
# on every call, which at n = 10 costs more than the arithmetic.
_ZERO, _ONE, _FLOOR = (np.array(v) for v in (0.0, 1.0, PERFORMANCE_FLOOR))


class CoefficientFunction(Enum):
    """Decreasing map from performance share to unnormalised weight."""

    INVERSE = "inverse"   # g(p) = 1/p
    NEG_LOG = "neglog"    # g(p) = -log(p)

    def performance_shares(self, d: np.ndarray,
                           out: Optional[np.ndarray] = None) -> np.ndarray:
        """Block-minimising performance values for given distances.

        Under the sum-to-one constraint the stationary performance values
        are proportional to d for -log and to sqrt(d) for 1/p; using the
        matching form keeps the converged estimate consistent with its own
        update equations for either coefficient function. The shares of
        the float64 distances `d` go into `out` when it is given.
        """
        p = np.empty(d.size) if out is None else out
        total = np.empty(())
        if self is _INVERSE:
            # 1 - cos of parallel vectors can round to -2.2e-16, whose
            # square root is NaN
            d = np.sqrt(np.maximum(d, _ZERO, out=p), out=p)
        if np.add.reduce(d, out=total).item() <= 0.0:  # d.sum(), unwrapped
            p.fill(1.0 / d.size)
        else:
            np.divide(d, total, out=p)
        np.maximum(p, _FLOOR, out=p)
        return np.divide(p, np.add.reduce(p, out=total), out=p)


# as `vectors._EUCLIDEAN`: a module name costs less than the member lookup
_INVERSE = CoefficientFunction.INVERSE


@dataclass(frozen=True)
class FedTruthConfig:
    distance: DistanceKind = DistanceKind.EUCLIDEAN
    coefficient: CoefficientFunction = CoefficientFunction.NEG_LOG
    epsilon: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        for name, choice in (("distance", DistanceKind),
                             ("coefficient", CoefficientFunction)):
            value = getattr(self, name)
            if not isinstance(value, choice):
                raise ValueError(f"{name}: expected a {choice.__name__}, "
                                 f"got {value!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class NonFiniteWeights(ValueError):
    """The estimator's weights went NaN or Inf in `iteration`: the distances
    overflowed (a hugely boosted update, say), so no finite truth follows."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(
            f"estimator weights went non-finite in iteration {iteration}")


@dataclass(frozen=True)
class TruthEstimate:
    truth: np.ndarray
    weights: np.ndarray
    performances: np.ndarray
    iterations: int
    converged: bool


def _weights(p: np.ndarray, g: CoefficientFunction,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Aggregation weights a_k = g(p_k) / sum_j g(p_j), in `out` if given.

    Larger performance share (farther from the truth) gives a smaller
    weight. When every g(p_k) is zero (single client with p = 1) the
    weights fall back to uniform. The -log weights are taken as
    log p_k / sum_j log p_j, the same bits: negation is exact and commutes
    with rounding.
    """
    a = np.empty(p.size) if out is None else out
    total = np.empty(())
    if g is _INVERSE:
        np.add.reduce(np.divide(_ONE, p, out=a), out=total)
        uniform = total.item() <= 0.0
    else:
        np.add.reduce(np.log(p, out=a), out=total)
        uniform = total.item() >= 0.0
    if uniform:
        a.fill(1.0 / p.size)
    else:
        np.divide(a, total, out=a)
    return a


def estimate_truth(updates: Updates, cfg: FedTruthConfig) -> TruthEstimate:
    """Jointly estimate the aggregate update and per-client weights.

    Starts from the plain average of the updates, then alternates
    performance update -> weight update -> weighted average until the L2
    change of the truth between successive iterations drops to
    cfg.epsilon, or cfg.max_iterations is hit. The reported performances and
    weights are those of the returned truth, so the estimate satisfies its
    own update equations exactly. `updates` is an (n, d) array or a list of
    n equal-length vectors. Raises NonFiniteWeights when a pass's weights,
    the report's included, are not all finite, without numpy's overflow
    and invalid-value warnings.
    """
    rows = UpdateRows(update_matrix(updates))
    n = len(rows)
    g = cfg.coefficient
    # a pass's distances, shares and weights; two sums take turns as truth
    dist, p, a = np.empty(n), np.empty(n), np.full(n, 1.0 / n)
    sums = np.empty(rows.width), np.empty(rows.width)
    truth = rows.weighted_sum(a, out=sums[0])
    converged, iterations = False, 0
    # Overflowing distances make NaN weights, which the finiteness test
    # turns into NonFiniteWeights; numpy's own warnings on the way say
    # nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # each pass weighs the rows at the truth; the last is the report
            g.performance_shares(distances_to(cfg.distance, truth, rows,
                                              out=dist), out=p)
            _weights(p, g, out=a)
            if not np.logical_and.reduce(np.isfinite(a)):  # .all(), unwrapped
                raise NonFiniteWeights(iterations + 1)
            if converged or iterations == cfg.max_iterations:
                break
            iterations += 1
            new_truth = rows.weighted_sum(a, out=sums[iterations % 2])
            # the step overwrites the old truth, whose buffer is free now
            delta = norm(np.subtract(new_truth, truth, out=truth))
            truth = new_truth
            converged = delta <= cfg.epsilon
    return TruthEstimate(truth=truth, weights=a, performances=p,
                         iterations=iterations, converged=converged)


def estimate_truth_layered(updates: Updates, layer_sizes: Sequence[int],
                           cfg: FedTruthConfig):
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
    estimates = [estimate_truth(X[:, lo:hi], cfg)
                 for lo, hi in zip(bounds[:-1], bounds[1:])]
    return np.concatenate([est.truth for est in estimates]), estimates
