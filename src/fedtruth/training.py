"""Native local training: multinomial logistic regression and a one-hidden
layer ReLU MLP, trained with mini-batch SGD on softmax cross-entropy.

Model parameters are one flat float64 vector: the layers of
`ModelSpec.layer_shapes()` in order, each flattened row-major. The forward
and backward passes work on reshaped views of that vector, so a model, a
trained model and an update all share one representation.

`train_roster` trains every task of one call, of any lengths. Tasks
whose datasets have the same length train together in blocks of at most
BLOCK_ELEMENTS // d, each block as one stack: K models, batches (K,
batch, features), one batched matrix product per layer and step. Each
client keeps its own shuffle, and every slice of a batched product and
reduction is the computation a single client makes, so row k equals
training client k alone bit for bit. There is one forward pass,
`_stacked_forward`: training runs it on the stack, and `predict` runs it
on a stack of one model.

A step allocates no array: every numpy call in it writes through `out=`
into a `_Workspace`. It holds the batch's feature and one-hot rows, the
activations and their views, the softmax's class rows and scratch, the
MLP's hidden layer, mask and hidden gradient, the transposed views of the
layer blocks and of the output layer's input, and 0-d operands for the
batch size and 0.0. The K models and one gradient buffer are held
layer-major: in each flat buffer every layer of all K models is one
contiguous (K, *shape) block, so a bias is a whole row of K * width, not
K strided rows of width, and the views of the blocks stay valid because
the update `current - lr * grad` runs in place. A call builds these
buffers once per block size K, and a workspace on them once per (K,
batch length); each block copies the start model into its stack and
reuses them. The weight-gradient products write into the layer blocks
with `matmul(..., out=)`, the bias gradients with `add.reduce(...,
out=)`, and at its end a block writes each layer block straight into
its rows of the call's result.

The MLP's hidden pre-activations are batch-major, (batch, K, hidden):
the product writes into a transposed view, and the bias add runs over
contiguous rows of K * hidden. The output layer's logits are
class-major, (classes, K, batch): the product runs as W @ aᵀ into a (K,
classes, batch) view (the same bits as a @ Wᵀ), the bias adds as a
(classes, K, 1) view of its block, and each class is one contiguous row
of K * batch. So the softmax works on whole rows: its max is a chain of
elementwise maxima, its subtract and divide broadcast over the class
axis, and its sum adds whole rows in the order of numpy's pairwise sum
over a contiguous axis (see `_class_sum`). Its last divide writes the
probabilities batch-major, (batch, K, classes), through a class-major
view; the backward and `predict` read that buffer. The bias gradient
sums its batch axis one row after another, as a single client's
`g.sum(axis=0)` does.

The weight-gradient and hidden-gradient products read the batch-major
softmax gradient through a strided K-major view; the hidden layer is
written K-major. A strided operand rounds as a contiguous one does as
long as the product's other operand is wider than 1. At width 1
(`n_features` 1 for logreg, `hidden_units` 1 for the MLP) numpy's matmul
takes a gemv or loop path that rounds by the layout, so there, and only
there, the step copies the softmax gradient K-major first.

A client's shuffles for all its epochs come from one `Generator.permuted`
call on an (epochs, n) table of 0..n-1, written into its column of
one (epochs, K, n) order table: the same orders, and the same generator
state after, as one `permutation(n)` per epoch. A block copies its rows
once with `data.stack_rows`, and each step takes its batch's features
from that copy, and its one-hot rows from the block's one-hot table,
into the workspace. The gradient subtracts the one-hot labels from the
softmax, which only changes the true class (p - 0.0 is p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import Dataset, TableRows, stack_rows
from .vectors import BLOCK_ELEMENTS

# A 0-d operand: numpy converts a scalar operand on every call
_ZERO = np.array(0.0)


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
    rng = np.random.default_rng(seed)
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


def _sum_scratch_rows(n: int) -> int:
    """Scratch rows of `_class_sum` over n terms: none below 8, else the 8
    lanes and 4 pairs, and one row per level of halving (above 128 terms
    numpy sums the two halves apart and adds them)."""
    if n < 8:
        return 0
    if n <= 128:
        return 12
    half = n // 2 - n // 2 % 8
    return max(_sum_scratch_rows(half), 1 + _sum_scratch_rows(n - half))


def _class_sum(z: np.ndarray, rows: Sequence[np.ndarray], total: np.ndarray,
               spare: np.ndarray) -> None:
    """The sum of z over its first axis, whose views are `rows`, into
    `total`, with the bits of numpy's pairwise sum over a contiguous axis
    (that is 0.0 plus the pairwise sum, and 0.0 + x is x for the
    exponentials, which are never -0.0): a left-to-right chain below 8
    terms; up to 128 terms, 8 lanes that each add every 8th term, the tree
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the rest one by
    one; above, the sums of two halves, the first a multiple of 8 long.
    Each lane and tree call adds whole rows. `spare` has
    `_sum_scratch_rows(len(z))` rows."""
    n = len(rows)
    if n < 8:
        np.add(rows[0], rows[1], out=total)
        for row in rows[2:]:
            np.add(total, row, out=total)
        return
    if n > 128:
        half = n // 2 - n // 2 % 8
        _class_sum(z[:half], rows[:half], total, spare)
        right = spare[-1]
        _class_sum(z[half:], rows[half:], right, spare[:-1])
        np.add(total, right, out=total)
        return
    end = n - n % 8
    lanes, pairs = spare[:8], spare[8:12]
    if end > 8:
        np.add(z[:8], z[8:16], out=lanes)
        for at in range(16, end, 8):
            np.add(lanes, z[at:at + 8], out=lanes)
    else:
        lanes = z[:8]
    np.add(lanes[0::2], lanes[1::2], out=pairs)
    np.add(pairs[0::2], pairs[1::2], out=spare[:2])
    np.add(spare[0], spare[1], out=total)
    for row in rows[end:]:
        np.add(total, row, out=total)


def _softmax_args(z: np.ndarray, out: np.ndarray) -> Tuple:
    """`_softmax`'s arguments for class-major logits z (classes, ...; at
    least two axes) and `out`, built once: z, its class rows, out, a row
    of z's row shape for the max and then the sum, and `_class_sum`'s
    scratch."""
    spare = np.empty((1 + _sum_scratch_rows(len(z)),) + z.shape[1:])
    return z, tuple(z), out, spare[0], spare[1:]


def _softmax(z: np.ndarray, rows: Sequence[np.ndarray], out: np.ndarray,
             top: np.ndarray, spare: np.ndarray) -> None:
    """The softmax of class-major logits z, (classes, ...), over its first
    axis, written to `out` of z's shape and any strides; z is left holding
    the exponentials. The other arguments come from `_softmax_args`.

    Each class is one contiguous row, so the max is a chain of elementwise
    maxima, the subtract and the divide broadcast over the outer axis, and
    the sum adds whole rows: the values of the reductions over a
    contiguous class axis."""
    np.maximum(rows[0], rows[1], out=top)
    for row in rows[2:]:
        np.maximum(top, row, out=top)
    np.exp(np.subtract(z, top, out=z), out=z)
    total = top  # the max is spent; its row takes the sum
    _class_sum(z, rows, total, spare)
    np.divide(z, total, out=out)


class _Workspace:
    """Every array that a stacked step of K models on B batch rows writes
    or reads, built once, so that the step allocates nothing.

    `layers` are the per-layer (K, *shape) views of a parameter stack (see
    `_unpack`); the Wᵀ views taken of them stay valid while the stack is
    updated in place. X is the (K, B, features) batch. A training
    workspace also takes the batch's one-hot labels, batch-major (B, K,
    classes), and the per-layer blocks of the gradient buffer; a
    forward-only one (for `predict`) takes neither. The MLP's
    pre-activations are batch-major, (B, K, hidden), and its hidden layer
    K-major, (K, B, hidden); the output logits are class-major, (classes,
    K, B), and the probabilities batch-major, (B, K, classes).
    """

    def __init__(self, layers: Sequence[np.ndarray], X: np.ndarray,
                 onehot: Optional[np.ndarray] = None,
                 grads: Optional[Sequence[np.ndarray]] = None):
        K, B = X.shape[:2]
        self.X, self.onehot, self.grads = X, onehot, grads
        self.h: Optional[np.ndarray] = None
        if len(layers) == 4:
            W1, self.b1, self.W, self.b = layers
            self.W1_T = W1.swapaxes(-1, -2)
            self.z1 = np.empty((B, K, W1.shape[1]))
            self.z1_T = self.z1.transpose(1, 0, 2)
            self.h = np.empty((K, B, W1.shape[1]))
        else:
            self.W, self.b = layers
        self.a = X if self.h is None else self.h  # the output layer's input
        self.a_T = self.a.swapaxes(-1, -2)
        # the logits class-major, (classes, K, B); the product writes a
        # (K, classes, B) view, and the bias adds as (classes, K, 1)
        self.logits = np.empty((self.W.shape[1], K, B))
        self.logits_k = self.logits.swapaxes(0, 1)
        self.b_c = self.b.T[..., None]
        # the probabilities batch-major, (B, K, classes): the softmax
        # writes them through their class-major view
        self.probs = np.empty((B, K, self.W.shape[1]))
        self.softmax = _softmax_args(self.logits, self.probs.T)
        if grads is None:
            return
        self.rows = np.array(float(B))
        # the softmax gradient K-major: a strided view, or a contiguous
        # copy where the products' other operand has width 1 (see the
        # module docstring)
        self.g_src: Optional[np.ndarray] = None
        self.g_k = self.probs.transpose(1, 0, 2)
        if self.a.shape[-1] == 1:
            self.g_src, self.g_k = self.g_k, np.empty(self.g_k.shape)
        self.g_kT = self.g_k.swapaxes(-1, -2)
        if self.h is not None:
            self.dz1 = np.empty(self.h.shape)
            self.dz1_T = self.dz1.swapaxes(-1, -2)
            self.mask = np.empty(self.h.shape, dtype=bool)


def _stacked_forward(ws: _Workspace) -> Tuple[np.ndarray,
                                              Optional[np.ndarray]]:
    """Probabilities of K models on K equal-size batches: the workspace's
    (B, K, classes) probabilities and its (K, B, hidden) hidden layer, or
    None for logreg."""
    if ws.h is not None:
        np.matmul(ws.X, ws.W1_T, out=ws.z1_T)
        np.add(ws.z1, ws.b1, out=ws.z1)
        np.maximum(ws.z1_T, _ZERO, out=ws.h)
    np.matmul(ws.W, ws.a_T, out=ws.logits_k)
    np.add(ws.logits, ws.b_c, out=ws.logits)
    _softmax(*ws.softmax)
    return ws.probs, ws.h


def _roster_gradients(ws: _Workspace) -> None:
    """Mean cross-entropy gradients of K models on K equal-size batches,
    written into the workspace's gradient blocks."""
    g, h = _stacked_forward(ws)
    # p - 0.0 is p: only the true class changes
    np.subtract(g, ws.onehot, out=g)
    np.divide(g, ws.rows, out=g)  # the batch size
    # the output layer's gradients (W, b; or W2, b2): the bias gradient
    # sums over the batch, one row after another
    d_w, d_b = ws.grads[-2:]
    np.add.reduce(g, axis=0, out=d_b)
    if ws.g_src is not None:
        np.copyto(ws.g_k, ws.g_src)
    np.matmul(ws.g_kT, ws.a, out=d_w)
    if h is None:
        return
    d_w1, d_b1 = ws.grads[:2]
    np.matmul(ws.g_k, ws.W, out=ws.dz1)
    # where z1 > 0.0, read K-major
    np.multiply(ws.dz1, np.greater(h, _ZERO, out=ws.mask), out=ws.dz1)
    np.matmul(ws.dz1_T, ws.X, out=d_w1)
    np.add.reduce(ws.dz1, axis=1, out=d_b1)


def train_roster(params: np.ndarray,
                 datasets: Sequence[Union[Dataset, TableRows]],
                 spec: ModelSpec, cfg: TrainConfig,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Mini-batch SGD of one model per (dataset, generator) task, all from
    the start `params`: their (len(datasets), d) rows, in task order.

    Tasks whose datasets (`Dataset`s or `TableRows`) have the same length
    train together as stacked steps, in blocks of at most
    BLOCK_ELEMENTS // d. Task k shuffles with its own rngs[k], drawing the
    same orders as it would alone, so row k equals training that task by
    itself bit for bit. The input is untouched.
    """
    if len(datasets) != len(rngs) or not datasets:
        raise ValueError("need one generator per dataset, and a dataset")
    if any(len(ds) == 0 for ds in datasets):
        raise ValueError("cannot train on an empty dataset")
    start = _unpack(spec, params)  # refuses a vector of the wrong length
    groups: Dict[int, List[int]] = {}
    for row, ds in enumerate(datasets):
        groups.setdefault(len(ds), []).append(row)
    block = max(1, BLOCK_ELEMENTS // params.size)
    models = np.empty((len(datasets), params.size))
    # shared by every block: the layer-major stacks of each block size K,
    # and a workspace per (K, batch length) on them
    stacks, workspaces = {}, {}
    eye = np.eye(spec.n_classes)
    lr = np.array(cfg.learning_rate)
    for n, rows in groups.items():
        epochs = np.tile(np.arange(n), (cfg.local_epochs, 1))
        for lo in range(0, len(rows), block):
            part = rows[lo:lo + block]
            K = len(part)
            if K not in stacks:
                stacks[K] = _layer_major(start, K)
            current, grad, layers, grads = stacks[K]
            for layer, first in zip(layers, start):
                layer[...] = first
            feats, labels = stack_rows([datasets[r] for r in part])
            onehot = eye.take(labels, axis=0)
            # orders[e, k]: client k's shuffle in epoch e, as rows of the
            # block; one permuted() call per client draws all epochs'
            # shuffles at once
            orders = np.empty((cfg.local_epochs, K, n), dtype=np.intp)
            for k, r in enumerate(part):
                rngs[r].permuted(epochs, axis=1, out=orders[:, k])
            orders += np.arange(0, K * n, n)[:, None]
            # A step position's batches of all epochs are copied out once,
            # K-major for the features and batch-major for the labels, so
            # that `take` reads contiguous rows of indices
            steps = []
            for at in range(0, n, cfg.batch_size):
                B = min(cfg.batch_size, n - at)
                if (K, B) not in workspaces:
                    workspaces[K, B] = _Workspace(
                        layers, np.empty((K, B, feats.shape[1])),
                        np.empty((B, K, spec.n_classes)), grads)
                steps.append((
                    np.ascontiguousarray(orders[:, :, at:at + B]),
                    np.ascontiguousarray(
                        orders[:, :, at:at + B].transpose(0, 2, 1)),
                    workspaces[K, B]))
            for e in range(cfg.local_epochs):
                for batches, batches_t, ws in steps:
                    # mode="clip" gathers straight into the buffer; "raise"
                    # would gather into a copy first (every index is in
                    # range)
                    feats.take(batches[e], axis=0, out=ws.X, mode="clip")
                    onehot.take(batches_t[e], axis=0, out=ws.onehot,
                                mode="clip")
                    _roster_gradients(ws)
                    np.multiply(grad, lr, out=grad)  # current - lr * grad
                    np.subtract(current, grad, out=current)
            offset = 0
            for layer in layers:
                end = offset + layer[0].size
                models[part, offset:end] = layer.reshape(K, -1)
                offset = end
    return models


def _layer_major(start: Sequence[np.ndarray], K: int
                 ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray],
                            List[np.ndarray]]:
    """A parameter stack and a gradient buffer for K models of the layers
    `start`, and their per-layer (K, *shape) views: each layer of all K
    models is one contiguous block, so a bias add or a bias gradient runs
    over whole rows."""
    size = sum(layer.size for layer in start)
    current, grad = np.empty((2, K * size))
    layers, grads, offset = [], [], 0
    for layer in start:
        end = offset + K * layer.size
        layers.append(current[offset:end].reshape((K,) + layer.shape))
        grads.append(grad[offset:end].reshape((K,) + layer.shape))
        offset = end
    return current, grad, layers, grads


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
    """Argmax class predictions: the training forward on a workspace of
    one model, sized to the dataset's rows."""
    probs, _ = _stacked_forward(
        _Workspace(_unpack(spec, params[None]), ds.features[None]))
    return probs[:, 0].argmax(axis=1)
