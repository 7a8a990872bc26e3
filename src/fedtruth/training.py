"""Native local training: multinomial logistic regression and a one-hidden
layer ReLU MLP, trained with mini-batch SGD on softmax cross-entropy.

Model parameters are one flat float64 vector: the layers of
`ModelSpec.layer_shapes()` in order, each flattened row-major. The forward
and backward passes work on reshaped views of that vector, so a model, a
trained model and an update all share one representation.

`train_roster` trains K clients whose datasets have the same length as one
stack: parameters (K, d), batches (K, batch, features), one batched matrix
product per layer and step. Each client keeps its own shuffle, and every
slice of a batched product and reduction is the computation a single
client makes, so row k equals training client k alone bit for bit.
There is one forward pass, `_stacked_forward`: training runs it on the
stack, and `predict` runs it on a stack of one model.

A step allocates no (K, d) array. The parameter stack and one gradient
buffer are split into per-layer views once per block; the weight-gradient
products write into those views with `matmul(..., out=)`, the bias
gradients with `add.reduce(..., out=)`, and `grad *= lr; current -= grad`
is `current - lr * grad` in place. Activations (logits, softmax, the
hidden layer's pre-activations) are batch-major, (batch, K, width): the
forward product writes into a transposed view, and the bias add and the
softmax then run over contiguous rows of K * width. The bias gradient
sums the batch axis one row after another, as a single client's
`g.sum(axis=0)` does. The weight-gradient products take K-major
contiguous operands (a copy of the softmax gradient, the hidden layer
written K-major): a strided operand can send numpy's matmul down another
BLAS or loop path when a dimension is 1, and that path rounds
differently.

A client's shuffles for all its epochs come from one `Generator.permuted`
call on an (epochs, n) table of 0..n-1: the same orders, and the same
generator state after, as one `permutation(n)` per epoch. A batch is
gathered with `np.take` from the K clients' rows stacked into one array,
and the gradient subtracts one-hot labels from the softmax, which only
changes the true class (p - 0.0 is p). The softmax takes its class-axis
max as elementwise maxima and, below 8 classes, its class-axis sum as a
chain of adds: the values of the numpy reductions, whose sum is a plain
left-to-right loop below 8 terms and pairwise from 8 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset


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
        if not isinstance(self.kind, ModelKind):
            raise ValueError(f"kind: expected a ModelKind, got {self.kind!r}")
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
    """Views of the flat parameter vector, one per layer, in layer shape.

    A stack of vectors, shape (K, d), gives (K, *shape) views.
    """
    out, offset = [], 0
    lead = params.shape[:-1]
    for _, shape in spec.layer_shapes():
        size = math.prod(shape)
        out.append(params[..., offset:offset + size].reshape(lead + shape))
        offset += size
    if params.shape[-1:] != (offset,):
        raise ValueError(
            f"parameter vector has shape {params.shape}, expected ({offset},)")
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    # The class-axis max as elementwise maxima of the class columns: the
    # value of logits.max(axis=-1) without a reduction call per row. Below
    # 8 classes the sum is a chain of adds too, which is numpy's own
    # left-to-right loop; from 8 terms on numpy adds pairwise, so the sum
    # stays a reduction there.
    classes = logits.shape[-1]
    top = logits[..., 0]
    for c in range(1, classes):
        top = np.maximum(top, logits[..., c])
    exps = np.exp(logits - top[..., None])
    if classes >= 8:
        return exps / exps.sum(axis=-1, keepdims=True)
    total = exps[..., 0]
    for c in range(1, classes):
        total = total + exps[..., c]
    return exps / total[..., None]


def _batch_major_affine(X: np.ndarray, W: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    """X @ W.T + b of a stack, (K, B, i) by (K, o, i) and (K, o), laid out
    batch-major, (B, K, o): the bias add runs over whole rows of K * o."""
    K, B = X.shape[:2]
    out = np.empty((B, K, W.shape[1]))
    np.matmul(X, W.swapaxes(-1, -2), out=out.transpose(1, 0, 2))
    out += b
    return out


def _stacked_forward(spec: ModelSpec, layers: Sequence[np.ndarray],
                     X: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Probabilities of K models on K equal-size batches.

    `layers` are the per-layer (K, *shape) views of a parameter stack (see
    `_unpack`) and X is (K, B, features). Returns the probabilities
    batch-major, (B, K, classes), and the hidden layer K-major, (K, B,
    hidden), or None for logreg.
    """
    if spec.kind is ModelKind.LOGREG:
        W, b = layers
        return _softmax(_batch_major_affine(X, W, b)), None
    W1, b1, W2, b2 = layers
    z1 = _batch_major_affine(X, W1, b1)
    h = np.maximum(z1.transpose(1, 0, 2), 0.0,
                   out=np.empty(X.shape[:2] + z1.shape[2:]))
    return _softmax(_batch_major_affine(h, W2, b2)), h


def _roster_gradients(spec: ModelSpec, layers: Sequence[np.ndarray],
                      X: np.ndarray, onehot: np.ndarray,
                      grads: Sequence[np.ndarray]) -> None:
    """Mean cross-entropy gradients of K models on K equal-size batches.

    `layers` and `grads` are the per-layer (K, *shape) views of the
    parameter stack and of the gradient buffer (see `_unpack`); X is
    (K, B, features) and the one-hot labels are batch-major, (B, K,
    classes). Writes the gradients into `grads`.
    """
    g, h = _stacked_forward(spec, layers, X)
    g -= onehot  # p - 0.0 is p: only the true class changes
    g /= len(onehot)  # the batch size
    # the output layer's gradients (W, b; or W2, b2): the bias gradient
    # sums over the batch, one row after another
    d_w, d_b = grads[-2:]
    np.add.reduce(g, axis=0, out=d_b)
    # the weight-gradient products take K-major contiguous operands, the
    # layout a single client's 2-D products see
    gk = np.ascontiguousarray(g.transpose(1, 0, 2))
    np.matmul(gk.swapaxes(-1, -2), X if h is None else h, out=d_w)
    if h is None:
        return
    d_w1, d_b1 = grads[:2]
    dz1 = gk @ layers[2]  # the output layer's weights, W2
    dz1 *= h > 0.0  # where z1 > 0.0, read K-major
    np.matmul(dz1.swapaxes(-1, -2), X, out=d_w1)
    np.add.reduce(dz1, axis=1, out=d_b1)


def train_roster(params: np.ndarray, datasets: Sequence[Dataset],
                 spec: ModelSpec, cfg: TrainConfig,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Mini-batch SGD of K clients from one start, as stacked steps.

    All K datasets must have the same length. Client k shuffles with its
    own rngs[k], drawing the same orders as it would alone, so row k of
    the (K, d) result equals training that client by itself bit for bit.
    The input is untouched.
    """
    if len(datasets) != len(rngs) or not datasets:
        raise ValueError("need one generator per dataset, and a dataset")
    n = len(datasets[0])
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if any(len(ds) != n for ds in datasets):
        raise ValueError("a roster block needs equal-size datasets")
    K = len(datasets)
    feats = np.concatenate([ds.features for ds in datasets])
    onehot = np.eye(spec.n_classes)[
        np.concatenate([ds.labels for ds in datasets])]
    # orders[e, k]: client k's shuffle in epoch e, as rows of feats; one
    # permuted() call per client draws all epochs' shuffles at once
    epochs = np.tile(np.arange(n), (cfg.local_epochs, 1))
    orders = np.stack([rng.permuted(epochs, axis=1) for rng in rngs],
                      axis=1) + np.arange(0, K * n, n)[:, None]
    # the step writes in place: the (K, d) stack and its gradient buffer
    # are unpacked into layer views once per block
    current = np.tile(params, (K, 1))
    grad = np.empty_like(current)
    layers, grads = _unpack(spec, current), _unpack(spec, grad)
    for order in orders:
        for start in range(0, n, cfg.batch_size):
            batch = order[:, start:start + cfg.batch_size]
            _roster_gradients(spec, layers, feats.take(batch, axis=0),
                              onehot.take(batch.T, axis=0), grads)
            grad *= cfg.learning_rate  # current - lr * grad, in place
            current -= grad
    return current


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
    """Argmax class predictions: the training forward as a stack of one."""
    probs, _ = _stacked_forward(spec, _unpack(spec, params[None]),
                                ds.features[None])
    return probs[:, 0].argmax(axis=1)
