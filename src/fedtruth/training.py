"""Native local training: multinomial logistic regression and a one-hidden
layer ReLU MLP, trained with mini-batch SGD on softmax cross-entropy.

Model parameters are one flat float64 vector: the layers of
`ModelSpec.layer_shapes()` in order, each flattened row-major. The forward
and backward passes work on reshaped views of that vector, so a model, a
trained model and an update all share one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple, Union

import numpy as np

from .data import Dataset

PROB_FLOOR = 1e-15  # cross-entropy floor


class ModelKind(Enum):
    LOGREG = "logreg"
    MLP = "mlp"


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    n_features: int
    n_classes: int
    hidden_units: int = 32

    def __post_init__(self):
        if self.n_features < 1 or self.n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        if self.kind is ModelKind.MLP and self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")

    def layer_shapes(self) -> List[Tuple[str, Tuple[int, ...]]]:
        if self.kind is ModelKind.LOGREG:
            return [("W", (self.n_classes, self.n_features)),
                    ("b", (self.n_classes,))]
        return [("W1", (self.hidden_units, self.n_features)),
                ("b1", (self.hidden_units,)),
                ("W2", (self.n_classes, self.hidden_units)),
                ("b2", (self.n_classes,))]


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("local_epochs and batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


def init_model(spec: ModelSpec,
               seed: Union[int, np.random.Generator]) -> np.ndarray:
    """Glorot-uniform weights, zero biases; deterministic in the seed."""
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    layers = []
    for _, shape in spec.layer_shapes():
        if len(shape) == 2:
            fan_out, fan_in = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            layers.append(rng.uniform(-limit, limit, size=shape).reshape(-1))
        else:
            layers.append(np.zeros(shape[0]))
    return np.concatenate(layers)


def _unpack(spec: ModelSpec, params: np.ndarray) -> List[np.ndarray]:
    """Views of the flat parameter vector, one per layer, in layer shape."""
    out, offset = [], 0
    for _, shape in spec.layer_shapes():
        size = math.prod(shape)
        out.append(params[offset:offset + size].reshape(shape))
        offset += size
    if params.shape != (offset,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({offset},)")
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _forward(spec: ModelSpec, params: np.ndarray, X: np.ndarray):
    """Returns (probabilities, cache for backprop)."""
    if spec.kind is ModelKind.LOGREG:
        W, b = _unpack(spec, params)
        logits = X @ W.T + b
        return _softmax(logits), (X,)
    W1, b1, W2, b2 = _unpack(spec, params)
    z1 = X @ W1.T + b1
    h = np.maximum(z1, 0.0)
    logits = h @ W2.T + b2
    return _softmax(logits), (X, z1, h, W2)


def _gradients(spec: ModelSpec, params: np.ndarray, X: np.ndarray,
               y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy gradient, laid out like the parameter vector."""
    probs, cache = _forward(spec, params, X)
    n = X.shape[0]
    g = probs.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    if spec.kind is ModelKind.LOGREG:
        (X,) = cache
        return np.concatenate([(g.T @ X).reshape(-1), g.sum(axis=0)])
    X, z1, h, W2 = cache
    d_w2 = g.T @ h
    d_b2 = g.sum(axis=0)
    dz1 = (g @ W2) * (z1 > 0.0)
    d_w1 = dz1.T @ X
    d_b1 = dz1.sum(axis=0)
    return np.concatenate([d_w1.reshape(-1), d_b1, d_w2.reshape(-1), d_b2])


def local_train(params: np.ndarray, ds: Dataset, spec: ModelSpec,
                cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Mini-batch SGD for cfg.local_epochs passes; the input is untouched.

    Batches come from a seed-deterministic shuffle each epoch.
    """
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    current = params
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(ds))
        for start in range(0, len(ds), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad = _gradients(spec, current, ds.features[batch],
                              ds.labels[batch])
            current = current - cfg.learning_rate * grad
    return current


def evaluate(params: np.ndarray, ds: Dataset,
             spec: ModelSpec) -> Tuple[float, float]:
    """(accuracy, mean cross-entropy loss) on a dataset."""
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    probs, _ = _forward(spec, params, ds.features)
    predictions = probs.argmax(axis=1)
    accuracy = float((predictions == ds.labels).mean())
    true_probs = probs[np.arange(len(ds)), ds.labels]
    loss = float(-np.log(np.maximum(true_probs, PROB_FLOOR)).mean())
    return accuracy, loss


def extract_update(global_params: np.ndarray,
                   local_params: np.ndarray) -> np.ndarray:
    """Update delta = global - local.

    Applying w - 1.0 * delta to the global model recovers the local one.
    """
    if global_params.shape != local_params.shape:
        raise ValueError(f"shape mismatch: {global_params.shape} vs "
                         f"{local_params.shape}")
    return global_params - local_params


def predict(params: np.ndarray, ds: Dataset,
            spec: ModelSpec) -> np.ndarray:
    """Argmax class predictions."""
    probs, _ = _forward(spec, params, ds.features)
    return probs.argmax(axis=1)
