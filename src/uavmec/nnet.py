"""Small fully connected Q-network: forward, backprop and Adam, in float64 numpy.

Hidden layers use ReLU, the output layer is linear.  Training minimizes the
mean squared error on the Q-value of the taken action only; gradients do not
flow through the other outputs.

Each layer is one folded block ``[W ; b]`` of shape (fan_in + 1, fan_out):
its input carries a trailing column of ones, so ``[a | 1] @ [W ; b]`` is the
layer's pre-activation in one matrix product, the bias entering as the last
term of each dot product.  Backprop is folded the same way: ``[a | 1].T @
delta`` is the weight and the bias gradient in one product.
"""

from __future__ import annotations

import functools

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

CHECKPOINT_MAGIC = "uavmec-mlp v1"


def _blocks(flat: np.ndarray, dims: list) -> list:
    """Each layer's (fan_in + 1, fan_out) block ``[W ; b]`` as a view of
    ``flat``, which holds w0, b0, w1, b1, ... each row-major."""
    blocks, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = offset + (fan_in + 1) * fan_out
        blocks.append(flat[offset:end].reshape(fan_in + 1, fan_out))
        offset = end
    return blocks


def _split(blocks: list) -> list:
    """The row views w0, b0, w1, b1, ... of the layer blocks."""
    return [p for block in blocks for p in (block[:-1], block[-1])]


class MlpNetwork:
    """Weights and biases for dims[0] -> dims[1] -> ... -> dims[-1].

    All parameters live in one flat float64 vector, ``flat``.  ``blocks[l]``
    is layer l's (dims[l] + 1, dims[l+1]) block ``[W ; b]`` in it, and
    ``weights[l]`` and ``biases[l]`` are that block's rows.  The constructor
    copies the given arrays into a fresh vector.
    """

    def __init__(self, dims: list, weights: list, biases: list):
        self.dims = list(dims)
        layers = list(zip(self.dims[:-1], self.dims[1:]))
        if ([np.shape(w) for w in weights] != layers
                or [np.shape(b) for b in biases] != [(n_out,) for _, n_out in layers]):
            raise ValueError(f"weight or bias shapes do not fit dims {self.dims}")
        self.flat = np.concatenate(
            [p.reshape(-1) for pair in zip(weights, biases) for p in pair], dtype=np.float64)
        self.blocks = _blocks(self.flat, self.dims)
        self.weights = [block[:-1] for block in self.blocks]
        self.biases = [block[-1] for block in self.blocks]

    # Copies and pickles rebuild through the constructor, so the views of the
    # restored network alias its own vector.
    def __reduce__(self):
        return MlpNetwork, (self.dims, self.weights, self.biases)

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    def parameters(self) -> list:
        """Views of every parameter tensor in the order of ``flat``."""
        return _split(self.blocks)

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(self.dims, self.weights, self.biases)

    def copy_from(self, other: "MlpNetwork") -> None:
        self.flat[...] = other.flat


def init_mlp(dims: list, rng: np.random.Generator) -> MlpNetwork:
    """Xavier-uniform weights (+- sqrt(6 / (fan_in + fan_out))), zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("dims must list at least input and output widths, all >= 1")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpNetwork(dims, weights, biases)


class _Workspace:
    """Layer inputs ``[a | 1]`` (the ones column set once) with views of their
    ``a`` parts, deltas and ReLU masks of one (dims, rows) batch shape, each
    output row's flat offset and a gradient vector with its views.  A mask
    spans a whole input, which is contiguous and so cheaper to compare."""

    def __init__(self, dims: tuple, rows: int):
        self.inputs = [np.ones((rows, d + 1)) for d in dims[:-1]]
        self.activations = [a[:, :-1] for a in self.inputs]
        self.q = np.empty((rows, dims[-1]))
        self.deltas = [np.empty((rows, d)) for d in dims[1:]]
        masks = [np.empty((rows, d + 1), dtype=bool) for d in dims[1:-1]]
        self.masks = [(mask, mask[:, :-1]) for mask in masks]
        self.row_offsets = np.arange(rows) * dims[-1]
        self.grad = np.empty(sum((n_in + 1) * n_out for n_in, n_out in zip(dims, dims[1:])))
        self.grad_blocks = _blocks(self.grad, dims)
        self.grads = _split(self.grad_blocks)


# Shared by every network of a shape (agents, target networks, their copies),
# so no network carries scratch memory.  Single-threaded use only.  At most
# eight shapes are kept; the least recently used makes room for a new one.
_workspace = functools.lru_cache(maxsize=8)(_Workspace)


def forward(net: MlpNetwork, x) -> np.ndarray:
    """Q-values for a single state (1-d input, run as a one-row batch) or a
    batch (2-d input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return forward_cached(net, x[None])[-1][0].copy()
    if x.ndim != 2:
        raise ValueError(f"input has {x.ndim} dimensions, expected 1 or 2")
    return forward_cached(net, x)[-1].copy()


def forward_cached(net: MlpNetwork, x: np.ndarray):
    """Batch forward keeping every layer's input ``[a | 1]`` for backprop.

    Returns those inputs, then the output Q-values: the shared workspace's
    arrays, which the next batch of the same shape overwrites.
    """
    rows, width = np.shape(x)
    if width != net.dims[0]:
        raise ValueError(f"input width {width} != network input {net.dims[0]}")
    ws = _workspace(tuple(net.dims), rows)
    inputs = ws.inputs
    ws.activations[0][...] = x
    for layer, block in enumerate(net.blocks[:-1]):
        np.matmul(inputs[layer], block, out=ws.activations[layer + 1])
        np.maximum(inputs[layer + 1], 0.0, out=inputs[layer + 1])
    np.matmul(inputs[-1], net.blocks[-1], out=ws.q)
    return [*inputs, ws.q]


def loss_and_grads(net: MlpNetwork, states: np.ndarray, actions: np.ndarray, targets: np.ndarray,
                   in_workspace: bool = False):
    """MSE over the taken actions' Q-values, with gradients for every parameter.

    loss = mean_i (Q(s_i)[a_i] - y_i)^2.  Returns (loss, grads) with grads
    ordered like net.parameters(): views into one flat vector laid out like
    ``net.flat``.  That vector is fresh, or with ``in_workspace`` the batch
    shape's own, which the next such call overwrites.  Every action must
    index one of the network's outputs.
    """
    # bincount refuses a negative action, and one past the outputs widens it.
    if np.bincount(actions, minlength=net.dims[-1]).size != net.dims[-1]:
        raise ValueError(f"an action exceeds the network's {net.dims[-1]} outputs")
    batch = states.shape[0]
    q = forward_cached(net, states)[-1]
    ws = _workspace(tuple(net.dims), batch)
    # Row i's taken Q-value sits at flat index i * outputs + a_i.
    taken = ws.row_offsets + actions
    err = q.take(taken) - targets
    loss = float(np.add.reduce(err * err) / batch)

    blocks = ws.grad_blocks if in_workspace else _blocks(np.empty(net.flat.size), net.dims)
    delta = ws.deltas[-1]
    delta.fill(0.0)
    delta.put(taken, 2.0 * err / batch)
    for layer in range(net.num_layers - 1, -1, -1):
        np.matmul(ws.inputs[layer].T, delta, out=blocks[layer])
        if layer > 0:
            below = np.matmul(delta, net.weights[layer].T, out=ws.deltas[layer - 1])
            mask, live = ws.masks[layer - 1]
            np.greater(ws.inputs[layer], 0.0, out=mask)
            delta = np.multiply(below, live, out=below)
    return loss, ws.grads if in_workspace else _split(blocks)


class AdamState:
    """First/second moment accumulators with bias correction.

    The moments and the update's two scratch vectors are flat, ``size``
    entries laid out like the network's ``flat`` vector, so a step runs each
    operation once over all parameters.
    """

    def __init__(self, size: int, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.zeros(size)
        self._denom = np.zeros(size)


def adam_step(adam: AdamState, p: np.ndarray, g: np.ndarray) -> None:
    """One in-place update of the flat parameter vector ``p`` (a network's
    ``flat``) from the flat gradient vector ``g`` laid out like it."""
    if not (isinstance(p, np.ndarray) and isinstance(g, np.ndarray)
            and p.shape == g.shape == adam.m.shape):
        raise ValueError(f"parameters and gradients do not fit the optimizer's "
                         f"flat vector of shape {adam.m.shape}")
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    bias1 = 1.0 - b1**adam.t
    bias2 = 1.0 - b2**adam.t
    m, v, step, denom = adam.m, adam.v, adam._step, adam._denom
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
    v *= b2
    np.square(g, out=step)
    v += np.multiply(1.0 - b2, step, out=step)
    # step = lr * (m / bias1) / (sqrt(v / bias2) + eps)
    np.divide(m, bias1, out=step)
    np.multiply(adam.lr, step, out=step)
    np.divide(v, bias2, out=denom)
    np.sqrt(denom, out=denom)
    denom += adam.eps
    step /= denom
    p -= step


def _tensor_line(name: str, tensor: np.ndarray) -> str:
    shape = "x".join(str(s) for s in tensor.shape)
    values = " ".join(["%.17g"] * tensor.size) % tuple(tensor.reshape(-1).tolist())
    return f"tensor {name} {shape} {values}"


def _read_tensor(line: str, name: str, shape: tuple) -> np.ndarray:
    """The values of a tensor line, which must name ``name`` and ``shape``
    and hold finite numbers only."""
    head = f"tensor {name} {'x'.join(map(str, shape))} "
    if not line.startswith(head):
        raise ValueError(f"tensor line {line[:len(head)]!r} where {head!r} belongs")
    values = line[len(head):].split(" ")
    tensor = np.array(list(map(float, values)), dtype=np.float64).reshape(shape)
    if not np.isfinite(tensor).all():
        raise ValueError(f"tensor {name} holds a non-finite value")
    return tensor


def save_mlp(nets: list, path: str, metadata: dict | None = None) -> None:
    """Write one or more networks as self-describing text: each agent block
    holds its dims, then row-major tensors at full float64 precision."""
    blocks = []
    for net in nets:
        body = []
        for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
            body.append(_tensor_line(f"w{layer}", w))
            body.append(_tensor_line(f"b{layer}", b))
        blocks.append(("dims " + " ".join(str(d) for d in net.dims), body))
    write_checkpoint(path, CHECKPOINT_MAGIC, metadata, blocks)


def _parse_network(header: str, body: list) -> MlpNetwork:
    kind, *dims_txt = header.split()
    dims = [int(d) for d in dims_txt]
    if kind != "dims" or len(dims) < 2 or len(body) != 2 * (len(dims) - 1):
        raise ValueError(f"mlp header {header!r} does not fit {len(body)} tensor lines")
    layers = list(enumerate(zip(dims, dims[1:])))
    weights = [_read_tensor(body[2 * i], f"w{i}", (n_in, n_out)) for i, (n_in, n_out) in layers]
    biases = [_read_tensor(body[2 * i + 1], f"b{i}", (n_out,)) for i, (_, n_out) in layers]
    return MlpNetwork(dims, weights, biases)


def load_mlp(path: str) -> tuple[list, dict]:
    """Read networks saved by save_mlp; returns (networks, metadata)."""
    meta, nets = read_checkpoint(path, CHECKPOINT_MAGIC, _parse_network)
    return nets, meta
