"""Small fully connected Q-network: forward, backprop and Adam, in float64 numpy.

Hidden layers use ReLU, the output layer is linear.  Training minimizes the
mean squared error on the Q-value of the taken action only; gradients do not
flow through the other outputs.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

CHECKPOINT_MAGIC = "uavmec-mlp v1"


class MlpNetwork:
    """Weights and biases for dims[0] -> dims[1] -> ... -> dims[-1]."""

    def __init__(self, dims: list, weights: list, biases: list):
        self.dims = list(dims)
        self.weights = weights  # weights[l]: (dims[l], dims[l+1])
        self.biases = biases  # biases[l]: (dims[l+1],)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "MlpNetwork":
        return MlpNetwork(self.dims, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def copy_from(self, other: "MlpNetwork") -> None:
        for mine, theirs in zip(self.parameters(), other.parameters()):
            mine[...] = theirs


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
    """Activations, deltas and ReLU masks of one (dims, rows) batch shape."""

    def __init__(self, dims: tuple, rows: int):
        self.activations = [np.empty((rows, d)) for d in dims[1:]]
        self.deltas = [np.empty((rows, d)) for d in dims[1:]]
        self.masks = [np.empty((rows, d), dtype=bool) for d in dims[1:-1]]


# Shared by every network of a shape (agents, target networks, their copies),
# so no network carries scratch memory.  Single-threaded use only.  At most
# _MAX_WORKSPACES shapes are kept; the one added first makes room for a new one.
_WORKSPACES: dict = {}
_MAX_WORKSPACES = 8


def _workspace(dims: list, rows: int) -> _Workspace:
    key = (tuple(dims), rows)
    ws = _WORKSPACES.get(key)
    if ws is None:
        if len(_WORKSPACES) >= _MAX_WORKSPACES:
            del _WORKSPACES[next(iter(_WORKSPACES))]
        ws = _WORKSPACES[key] = _Workspace(key[0], rows)
    return ws


def forward(net: MlpNetwork, x) -> np.ndarray:
    """Q-values for a single state (1-d input) or a batch (2-d input)."""
    ndim = np.ndim(x)
    if ndim > 2:
        raise ValueError(f"input has {ndim} dimensions, expected 1 or 2")
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if a.shape[1] != net.dims[0]:
        raise ValueError(f"input width {a.shape[1]} != network input {net.dims[0]}")
    q = forward_cached(net, a)[-1]
    return q[0].copy() if ndim == 1 else q.copy()


def forward_cached(net: MlpNetwork, x: np.ndarray):
    """Batch forward keeping post-activation values per layer for backprop.

    The layers after the input are the shared workspace's arrays, which the
    next batch of the same shape overwrites.
    """
    a = np.asarray(x, dtype=np.float64)
    workspace = _workspace(net.dims, a.shape[0])
    activations = [a]
    last = net.num_layers - 1
    for layer, (w, b, out) in enumerate(zip(net.weights, net.biases, workspace.activations)):
        a = np.matmul(a, w, out=out)
        a += b
        if layer != last:
            np.maximum(a, 0.0, out=a)
        activations.append(a)
    return activations


def loss_and_grads(net: MlpNetwork, states: np.ndarray, actions: np.ndarray, targets: np.ndarray):
    """MSE over the taken actions' Q-values, with gradients for every parameter.

    loss = mean_i (Q(s_i)[a_i] - y_i)^2.  Returns (loss, grads) with grads
    ordered like net.parameters().
    """
    batch = states.shape[0]
    activations = forward_cached(net, states)
    ws = _workspace(net.dims, batch)
    q = activations[-1]
    idx = np.arange(batch)
    taken = q[idx, actions]
    err = taken - targets
    loss = float(np.mean(err**2))

    delta = ws.deltas[-1]
    delta.fill(0.0)
    delta[idx, actions] = 2.0 * err / batch
    grads_w = [None] * net.num_layers
    grads_b = [None] * net.num_layers
    for layer in range(net.num_layers - 1, -1, -1):
        a_prev = activations[layer]
        grads_w[layer] = a_prev.T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            below = np.matmul(delta, net.weights[layer].T, out=ws.deltas[layer - 1])
            mask = np.greater(activations[layer], 0.0, out=ws.masks[layer - 1])
            delta = np.multiply(below, mask, out=below)
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend((gw, gb))
    return loss, grads


class AdamState:
    """First/second moment accumulators with bias correction.

    The moments and the update's two scratch vectors are flat, in the order
    of the parameter list, so a step runs each operation once over all
    parameters.
    """

    def __init__(self, params: list, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = sum(p.size for p in params)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.zeros(size)
        self._denom = np.zeros(size)


def adam_step(adam: AdamState, params: list, grads: list) -> None:
    """One in-place update of every parameter."""
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    bias1 = 1.0 - b1**adam.t
    bias2 = 1.0 - b2**adam.t
    g = np.concatenate([gr.reshape(-1) for gr in grads])
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
    offset = 0
    for p in params:
        p -= step[offset:offset + p.size].reshape(p.shape)
        offset += p.size


def _tensor_line(name: str, tensor: np.ndarray) -> str:
    shape = "x".join(str(s) for s in tensor.shape)
    values = " ".join(format(v, ".17g") for v in tensor.reshape(-1))
    return f"tensor {name} {shape} {values}"


def _read_tensor(line: str, name: str, shape: tuple) -> np.ndarray:
    """The values of a tensor line, which must name ``name`` and ``shape``."""
    head = f"tensor {name} {'x'.join(map(str, shape))} "
    if not line.startswith(head):
        raise ValueError(f"tensor line {line[:len(head)]!r} where {head!r} belongs")
    values = line[len(head):].split(" ")
    return np.array([float(v) for v in values], dtype=np.float64).reshape(shape)


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
