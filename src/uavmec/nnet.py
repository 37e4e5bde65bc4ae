"""Small fully connected Q-network: forward, backprop and Adam, in float64 numpy.

Hidden layers use ReLU, the output layer is linear.  Training minimizes the
mean squared error on the Q-value of the taken action only; gradients do not
flow through the other outputs.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint

CHECKPOINT_MAGIC = "uavmec-mlp v1"


def _layout(dims: list) -> list:
    """(span, shape) of w0, b0, w1, b1, ... in a flat vector of ``dims``,
    each tensor row-major."""
    layout, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = offset + fan_in * fan_out
        layout.append((slice(offset, end), (fan_in, fan_out)))
        layout.append((slice(end, end + fan_out), (fan_out,)))
        offset = end + fan_out
    return layout


def _views(flat: np.ndarray, layout: list) -> list:
    return [flat[span].reshape(shape) for span, shape in layout]


class MlpNetwork:
    """Weights and biases for dims[0] -> dims[1] -> ... -> dims[-1].

    All parameters live in one flat float64 vector, ``flat``; ``weights[l]``
    (dims[l], dims[l+1]) and ``biases[l]`` (dims[l+1],) are views into it.
    The constructor copies the given arrays into a fresh vector.
    """

    def __init__(self, dims: list, weights: list, biases: list):
        self.dims = list(dims)
        layers = list(zip(self.dims[:-1], self.dims[1:]))
        if ([np.shape(w) for w in weights] != layers
                or [np.shape(b) for b in biases] != [(n_out,) for _, n_out in layers]):
            raise ValueError(f"weight or bias shapes do not fit dims {self.dims}")
        self._bind(np.concatenate(
            [p.reshape(-1) for pair in zip(weights, biases) for p in pair], dtype=np.float64))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        views = _views(flat, _layout(self.dims))
        self.weights, self.biases = views[0::2], views[1::2]

    # Copies and pickles carry the vector only, so that the views of the
    # restored network alias its own vector.
    def __getstate__(self) -> dict:
        return {"dims": self.dims, "flat": self.flat}

    def __setstate__(self, state: dict) -> None:
        self.dims = state["dims"]
        self._bind(state["flat"])

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list:
        """Views of every parameter tensor in the order of ``flat``."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

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
    """Activations, deltas and ReLU masks of one (dims, rows) batch shape,
    with the shape's parameter layout, each output row's flat offset and a
    gradient vector with its views."""

    def __init__(self, dims: tuple, rows: int):
        self.activations = [np.empty((rows, d)) for d in dims[1:]]
        self.deltas = [np.empty((rows, d)) for d in dims[1:]]
        self.masks = [np.empty((rows, d), dtype=bool) for d in dims[1:-1]]
        self.layout = _layout(dims)
        self.row_offsets = np.arange(rows) * dims[-1]
        self.grad = np.empty(self.layout[-1][0].stop)
        self.grads = _views(self.grad, self.layout)


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
    # A learner's state: one float64 row of the input width.  A 1-d product
    # runs matmul's loop for a one-row batch, so the bits are the same; small
    # fresh arrays cost less than the workspace's bookkeeping.
    if type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (net.dims[0],):
        weights, biases = net.weights, net.biases
        last = len(weights) - 1
        for layer in range(last):
            x = np.maximum(x @ weights[layer] + biases[layer], 0.0)
        return x @ weights[last] + biases[last]
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


def loss_and_grads(net: MlpNetwork, states: np.ndarray, actions: np.ndarray, targets: np.ndarray,
                   in_workspace: bool = False):
    """MSE over the taken actions' Q-values, with gradients for every parameter.

    loss = mean_i (Q(s_i)[a_i] - y_i)^2.  Returns (loss, grads) with grads
    ordered like net.parameters(): views into one flat vector laid out like
    ``net.flat``.  That vector is fresh, or with ``in_workspace`` the batch
    shape's own, which the next such call overwrites.  Every action must
    index one of the network's outputs.
    """
    batch = states.shape[0]
    activations = forward_cached(net, states)
    ws = _workspace(net.dims, batch)
    q = activations[-1]
    # Row i's taken Q-value sits at flat index i * outputs + a_i.
    taken = ws.row_offsets + actions
    err = q.take(taken) - targets
    loss = float(np.add.reduce(err * err) / batch)

    grads = ws.grads if in_workspace else _views(np.empty(net.flat.size), ws.layout)
    grads_w, grads_b = grads[0::2], grads[1::2]
    scaled = 2.0 * err / batch
    # The output delta holds one nonzero per row, so its column sums are
    # those values binned by action, added in the same row order.
    binned = np.bincount(actions, weights=scaled, minlength=net.dims[-1])
    if binned.size != net.dims[-1]:
        raise ValueError(f"an action exceeds the network's {net.dims[-1]} outputs")
    grads_b[-1][...] = binned
    delta = ws.deltas[-1]
    delta.fill(0.0)
    delta.put(taken, scaled)
    for layer in range(net.num_layers - 1, -1, -1):
        np.matmul(activations[layer].T, delta, out=grads_w[layer])
        if layer > 0:
            below = np.matmul(delta, net.weights[layer].T, out=ws.deltas[layer - 1])
            mask = np.greater(activations[layer], 0.0, out=ws.masks[layer - 1])
            delta = np.multiply(below, mask, out=below)
            np.add.reduce(delta, axis=0, out=grads_b[layer - 1])
    return loss, grads


class AdamState:
    """First/second moment accumulators with bias correction.

    The moments and the update's two scratch vectors are flat, laid out like
    the network's ``flat`` vector, so a step runs each operation once over
    all parameters.
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


def _flat(tensors: list) -> np.ndarray:
    """The one flat vector that ``tensors`` (as from ``MlpNetwork.parameters``
    or ``loss_and_grads``) are views of."""
    flat = tensors[0].base
    if (flat is None or flat.ndim != 1 or any(t.base is not flat for t in tensors)
            or sum(t.size for t in tensors) != flat.size):
        raise ValueError("tensors are not views of one flat vector")
    return flat


def adam_step(adam: AdamState, params, grads) -> None:
    """One in-place update of every parameter.

    ``params`` and ``grads`` are each one flat vector laid out like the
    network's ``flat``, or the views of one, as ``MlpNetwork.parameters`` and
    ``loss_and_grads`` return them.
    """
    p = params if type(params) is np.ndarray else _flat(params)
    g = grads if type(grads) is np.ndarray else _flat(grads)
    if p.shape != adam.m.shape or g.shape != adam.m.shape:
        raise ValueError(f"parameters {p.shape} and gradients {g.shape} do not fit "
                         f"the optimizer's {adam.m.shape}")
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
    """The values of a tensor line, which must name ``name`` and ``shape``."""
    head = f"tensor {name} {'x'.join(map(str, shape))} "
    if not line.startswith(head):
        raise ValueError(f"tensor line {line[:len(head)]!r} where {head!r} belongs")
    values = line[len(head):].split(" ")
    return np.array(list(map(float, values)), dtype=np.float64).reshape(shape)


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
