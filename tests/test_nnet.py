import copy
import pickle

import numpy as np
import pytest

from helpers import reference_tensor_line
from uavmec.checkpoint import write_checkpoint
from uavmec.nnet import (
    CHECKPOINT_MAGIC,
    AdamState,
    MlpNetwork,
    adam_step,
    forward,
    init_mlp,
    load_mlp,
    loss_and_grads,
    save_mlp,
)


def zero_net(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MlpNetwork(dims, weights, biases)


def tiny_net():
    """2 -> 2 -> 2 with hand-checkable weights."""
    w0 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b0 = np.array([0.0, -1.0])
    w1 = np.array([[1.0, 0.0], [-1.0, 1.0]])
    b1 = np.array([0.5, 0.0])
    return MlpNetwork([2, 2, 2], [w0, w1], [b0, b1])


def test_zero_network_outputs_zeros():
    net = zero_net([3, 4, 2])
    out = forward(net, np.array([1.0, -2.0, 3.0]))
    assert out.tolist() == [0.0, 0.0]


def test_hand_computed_forward_pass():
    net = tiny_net()
    x = np.array([1.0, 2.0])
    # hidden pre-activation: [1*1 + 2*0.5, 1*(-1) + 2*2 - 1] = [2, 2]
    # relu keeps both; output: [2*1 + 2*(-1) + 0.5, 2*0 + 2*1] = [0.5, 2]
    out = forward(net, x)
    np.testing.assert_allclose(out, [0.5, 2.0])


def test_relu_clips_negative_hidden_units():
    net = tiny_net()
    x = np.array([-1.0, 0.0])
    # hidden pre-activation: [-1, 0]; relu: [0, 0]; output: biases [0.5, 0]
    out = forward(net, x)
    np.testing.assert_allclose(out, [0.5, 0.0])


def test_batch_forward_matches_single():
    rng = np.random.default_rng(1)
    net = init_mlp([4, 8, 3], rng)
    xs = rng.normal(size=(6, 4))
    batch = forward(net, xs)
    assert batch.shape == (6, 3)
    for i in range(6):
        np.testing.assert_allclose(batch[i], forward(net, xs[i]), rtol=1e-12)


def test_forward_rejects_wrong_width():
    net = zero_net([3, 2])
    with pytest.raises(ValueError):
        forward(net, np.zeros(4))
    with pytest.raises(ValueError):
        forward(net, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        forward(zero_net([10, 3]), np.zeros((2, 10, 10)))


def test_results_are_not_overwritten_by_later_calls_of_the_same_shape():
    rng = np.random.default_rng(10)
    nets = [init_mlp([4, 8, 8, 3], rng) for _ in range(2)]
    inputs = [rng.normal(size=(16, 4)) for _ in range(2)]
    actions = rng.integers(0, 3, size=16)
    targets = rng.normal(size=16)
    q = forward(nets[0], inputs[0])
    q_single = forward(nets[0], inputs[0][0])
    _, grads = loss_and_grads(nets[0], inputs[0], actions, targets)
    kept = [q.copy(), q_single.copy(), *(g.copy() for g in grads)]
    forward(nets[1], inputs[1])
    forward(nets[1], inputs[1][0])
    loss_and_grads(nets[1], inputs[1], actions, targets)
    for before, after in zip(kept, [q, q_single, *grads]):
        assert np.array_equal(before, after)


def test_forward_is_deterministic():
    rng = np.random.default_rng(2)
    net = init_mlp([5, 7, 4], rng)
    x = rng.normal(size=5)
    a = forward(net, x)
    b = forward(net, x)
    assert np.array_equal(a, b)


def test_init_is_xavier_bounded_with_zero_biases():
    rng = np.random.default_rng(3)
    net = init_mlp([10, 20, 5], rng)
    for w, (fan_in, fan_out) in zip(net.weights, [(10, 20), (20, 5)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
        assert np.std(w) > 0
    for b in net.biases:
        assert np.all(b == 0.0)
    with pytest.raises(ValueError):
        init_mlp([4], rng)
    with pytest.raises(ValueError):
        init_mlp([4, 0, 2], rng)


def test_perfect_targets_give_zero_loss_and_zero_grads():
    rng = np.random.default_rng(4)
    net = init_mlp([3, 6, 4], rng)
    states = rng.normal(size=(5, 3))
    actions = rng.integers(0, 4, size=5)
    targets = forward(net, states)[np.arange(5), actions]
    loss, grads = loss_and_grads(net, states, actions, targets)
    assert loss == 0.0
    for g in grads:
        assert np.all(g == 0.0)


def test_loss_is_mse_over_taken_actions():
    net = zero_net([2, 3])
    states = np.array([[1.0, 0.0], [0.0, 1.0]])
    actions = np.array([0, 2])
    targets = np.array([1.0, -3.0])
    loss, _ = loss_and_grads(net, states, actions, targets)
    # predictions are zero: loss = (1^2 + 3^2) / 2
    assert loss == pytest.approx(5.0)


def numerical_grads(net, states, actions, targets, h=1e-5):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lo_hi, _ = loss_and_grads(net, states, actions, targets)
            flat[i] = orig - h
            lo_lo, _ = loss_and_grads(net, states, actions, targets)
            flat[i] = orig
            gflat[i] = (lo_hi - lo_lo) / (2 * h)
        grads.append(g)
    return grads


def min_preactivation_margin(net, states):
    """Smallest |pre-activation| over all hidden units and samples."""
    a = np.asarray(states, dtype=np.float64)
    margin = np.inf
    for layer in range(net.num_layers - 1):
        z = a @ net.weights[layer] + net.biases[layer]
        margin = min(margin, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return margin


def draw_clear_batch(rng, net, batch, width, margin=1e-3):
    """Sample a batch whose hidden pre-activations stay away from the relu
    kink, so finite differencing never straddles it."""
    for _ in range(100):
        states = rng.normal(size=(batch, width))
        if min_preactivation_margin(net, states) > margin:
            return states
    raise AssertionError("could not sample a batch clear of relu kinks")


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(5):
        net = init_mlp([4, 3, 3, 2], rng)
        states = draw_clear_batch(rng, net, batch=6, width=4)
        actions = rng.integers(0, 2, size=6)
        targets = rng.normal(size=6)
        _, analytic = loss_and_grads(net, states, actions, targets)
        numeric = numerical_grads(net, states, actions, targets)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            rel = np.abs(a - n) / denom
            assert rel.max() < 1e-4


def test_adam_first_step_is_signed_learning_rate():
    # With fresh moments the bias-corrected first step is lr * sign(g) up to
    # the epsilon regularizer.
    net = zero_net([1, 1])
    params = net.parameters()
    adam = AdamState(params, lr=0.001)
    gradient = MlpNetwork([1, 1], [np.array([[0.5]])], [np.array([-2.0])])
    adam_step(adam, params, gradient.parameters())
    assert params[0][0, 0] == pytest.approx(-0.001, rel=1e-6)
    assert params[1][0] == pytest.approx(0.001, rel=1e-6)


def test_adam_zero_grad_keeps_params_exactly():
    rng = np.random.default_rng(6)
    net = init_mlp([3, 4, 2], rng)
    before = [p.copy() for p in net.parameters()]
    params = net.parameters()
    adam = AdamState(params)
    adam_step(adam, params, zero_net([3, 4, 2]).parameters())
    for b, p in zip(before, params):
        assert np.array_equal(b, p)


def full_net(dims, value):
    return MlpNetwork(dims, [np.full((a, b), value) for a, b in zip(dims[:-1], dims[1:])],
                      [np.full(b, value) for b in dims[1:]])


def test_adam_equal_grads_give_equal_updates():
    p1 = full_net([2, 2], 3.0).parameters()
    p2 = full_net([2, 2], 3.0).parameters()
    a1 = AdamState(p1, lr=0.01)
    a2 = AdamState(p2, lr=0.01)
    g = full_net([2, 2], 0.7).parameters()
    for _ in range(5):
        adam_step(a1, p1, g)
        adam_step(a2, p2, g)
    for mine, theirs in zip(p1, p2):
        assert np.array_equal(mine, theirs)
    # All entries saw the same gradient history, so they stay equal.
    assert np.all(p1[0] == p1[0][0, 0]) and np.all(p1[1] == p1[0][0, 0])


def test_adam_refuses_tensors_that_are_not_views_of_one_vector():
    net = zero_net([2, 2])
    params = net.parameters()
    adam = AdamState(params)
    loose = [np.zeros((2, 2)), np.zeros(2)]  # right shapes, but separate arrays
    for p, g in ((params, loose), (loose, params), (params, params[:1])):
        with pytest.raises(ValueError, match="views of one flat vector"):
            adam_step(adam, p, g)
    assert np.array_equal(net.flat, np.zeros(6))


def test_adam_on_flat_vectors_equals_adam_on_their_views():
    rng = np.random.default_rng(14)
    net = init_mlp([3, 5, 2], rng)
    twin = net.copy()
    adam, twin_adam = AdamState(net.parameters()), AdamState(twin.parameters())
    for _ in range(4):
        grads = init_mlp([3, 5, 2], rng).parameters()
        adam_step(adam, net.parameters(), grads)
        adam_step(twin_adam, twin.flat, grads[0].base)
    assert net.flat.tobytes() == twin.flat.tobytes()
    assert adam.m.tobytes() == twin_adam.m.tobytes()
    assert adam.v.tobytes() == twin_adam.v.tobytes()


def test_adam_refuses_flat_vectors_of_another_size():
    net = zero_net([2, 2])
    adam = AdamState(net.parameters())
    for p, g in ((net.flat, np.zeros(5)), (np.zeros(7), np.zeros(6)), (net.flat, np.zeros((6, 1)))):
        with pytest.raises(ValueError, match="do not fit"):
            adam_step(adam, p, g)
    assert adam.t == 0 and not adam.m.any()


def test_workspace_gradients_equal_fresh_ones_and_are_reused():
    rng = np.random.default_rng(15)
    net = init_mlp([4, 6, 3], rng)
    states, actions = rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)
    targets = rng.normal(size=8)
    loss, fresh = loss_and_grads(net, states, actions, targets)
    ws_loss, grads = loss_and_grads(net, states, actions, targets, in_workspace=True)
    assert ws_loss == loss
    for mine, theirs in zip(grads, fresh):
        assert mine.tobytes() == theirs.tobytes()
    assert all(g.base is grads[0].base for g in grads)
    _, again = loss_and_grads(net, states + 1.0, actions, targets, in_workspace=True)
    assert again[0].base is grads[0].base
    # The fresh result does not share the workspace.
    assert not np.shares_memory(fresh[0], again[0])


def test_training_drives_loss_down_on_frozen_batch():
    rng = np.random.default_rng(7)
    net = init_mlp([4, 16, 3], rng)
    states = rng.normal(size=(32, 4))
    actions = rng.integers(0, 3, size=32)
    targets = rng.normal(size=32)
    params = net.parameters()
    adam = AdamState(params, lr=0.01)
    first, _ = loss_and_grads(net, states, actions, targets)
    for _ in range(200):
        _, grads = loss_and_grads(net, states, actions, targets)
        adam_step(adam, params, grads)
    final, _ = loss_and_grads(net, states, actions, targets)
    assert final < 0.01 * first


def test_save_load_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    nets = [init_mlp([10, 32, 32, 5], rng) for _ in range(2)]
    path = str(tmp_path / "nets.mlp")
    save_mlp(nets, path, metadata={"policy": "dql", "episodes": 3})
    loaded, meta = load_mlp(path)
    assert meta == {"policy": "dql", "episodes": "3"}
    assert len(loaded) == 2
    for orig, back in zip(nets, loaded):
        assert back.dims == orig.dims
        for a, b in zip(orig.parameters(), back.parameters()):
            assert np.array_equal(a, b)


def test_loss_and_grads_refuses_actions_outside_the_outputs():
    # The taken Q-values are gathered by flat index, where an out-of-range
    # action would read the next row; every such batch must still be refused.
    net = init_mlp([4, 5, 3], np.random.default_rng(11))
    states, targets = np.ones((4, 4)), np.zeros(4)
    for bad in ([0, 3, 1, 2], [0, 1, 2, 3], [0, -1, 1, 2], [-1, 0, 1, 2]):
        with pytest.raises((IndexError, ValueError)):
            loss_and_grads(net, states, np.array(bad), targets)


def test_loss_and_grads_refuses_states_of_another_width():
    # The batch is copied into the layer-0 input [a | 1], where a one-column
    # batch would broadcast; it must be refused like any other width.
    net = init_mlp([4, 5, 3], np.random.default_rng(11))
    actions, targets = np.zeros(6, dtype=np.intp), np.zeros(6)
    for states in (np.ones((6, 1)), np.ones((6, 5)), np.ones(4)):
        with pytest.raises(ValueError):
            loss_and_grads(net, states, actions, targets)


def test_save_is_byte_equal_to_the_per_value_writer(tmp_path):
    """Parameters holding signed zeros, subnormals, huge and integral values
    write the text the per-value format(x, ".17g") writer wrote, and read
    back bit for bit."""
    rng = np.random.default_rng(10)
    nets = [init_mlp([6, 8, 3], rng) for _ in range(2)]
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -2.0, 1e16]
    for net in nets:
        picks = rng.random(net.flat.size) < 0.3
        net.flat[picks] = rng.choice(specials, size=int(picks.sum()))
    meta = {"policy": "dql"}
    save_mlp(nets, str(tmp_path / "fast.mlp"), metadata=meta)
    blocks = [
        ("dims " + " ".join(str(d) for d in net.dims),
         [reference_tensor_line(f"{kind}{layer}", p)
          for layer, pair in enumerate(zip(net.weights, net.biases))
          for kind, p in zip("wb", pair)])
        for net in nets
    ]
    write_checkpoint(str(tmp_path / "reference.mlp"), CHECKPOINT_MAGIC, meta, blocks)
    assert (tmp_path / "fast.mlp").read_bytes() == (tmp_path / "reference.mlp").read_bytes()
    loaded, _ = load_mlp(str(tmp_path / "fast.mlp"))
    for orig, back in zip(nets, loaded):
        assert back.flat.tobytes() == orig.flat.tobytes()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.mlp"
    path.write_text("uavmec-qtable v1\nagents 0\n")
    with pytest.raises(ValueError):
        load_mlp(str(path))


def test_copy_and_copy_from_are_deep():
    rng = np.random.default_rng(9)
    net = init_mlp([3, 4, 2], rng)
    dup = net.copy()
    dup.weights[0][0, 0] += 10.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
    net.copy_from(dup)
    assert net.weights[0][0, 0] == dup.weights[0][0, 0]
    # copy_from writes in place: existing references still see the update.
    ref = net.weights[0]
    dup.weights[0][0, 0] += 5.0
    net.copy_from(dup)
    assert ref[0, 0] == dup.weights[0][0, 0]


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                         ids=["deepcopy", "pickle"])
def test_cloned_network_tensors_view_its_own_vector(clone):
    net = init_mlp([3, 4, 2], np.random.default_rng(11))
    dup = clone(net)
    assert dup.dims == net.dims and dup.flat.tobytes() == net.flat.tobytes()
    assert not np.shares_memory(dup.flat, net.flat)
    for tensor in dup.parameters():
        assert tensor.base is dup.flat
    # Writing the vector moves every tensor with it, and only the clone's.
    dup.flat += 1.0
    for mine, theirs in zip(dup.parameters(), net.parameters()):
        assert np.array_equal(mine, theirs + 1.0)
    dup.copy_from(net)
    assert np.array_equal(dup.weights[1], net.weights[1])


def same_view(a, b):
    """``a`` and ``b`` view the same memory with the same shape and strides."""
    return (a.__array_interface__["data"] == b.__array_interface__["data"]
            and a.shape == b.shape and a.strides == b.strides)


def assert_folded(net):
    """Every layer's weights and biases are the rows of one (fan_in + 1,
    fan_out) block ``[W ; b]`` of ``net.flat``, in layer order."""
    offset = 0
    for layer, (fan_in, fan_out) in enumerate(zip(net.dims[:-1], net.dims[1:])):
        end = offset + (fan_in + 1) * fan_out
        block = net.flat[offset:end].reshape(fan_in + 1, fan_out)
        assert same_view(net.blocks[layer], block)
        assert same_view(net.weights[layer], block[:-1])
        assert same_view(net.biases[layer], block[-1])
        assert net.weights[layer].base is net.flat and net.biases[layer].base is net.flat
        offset = end
    assert offset == net.flat.size


@pytest.mark.parametrize("dims", [[6, 32, 32, 3], [10, 32, 32, 5]], ids=["desk", "paper"])
def test_layers_are_folded_blocks_of_the_flat_vector(dims, tmp_path):
    net = init_mlp(dims, np.random.default_rng(12))
    save_mlp([net], str(tmp_path / "net.mlp"))
    (loaded,), _ = load_mlp(str(tmp_path / "net.mlp"))
    for clone in (net, net.copy(), copy.deepcopy(net), pickle.loads(pickle.dumps(net)), loaded):
        assert_folded(clone)
        assert clone.flat.tobytes() == net.flat.tobytes()


@pytest.mark.parametrize("dims", [[6, 32, 32, 3], [10, 32, 32, 5]], ids=["desk", "paper"])
def test_single_state_forward_is_bit_equal_to_its_one_row_batch(dims):
    rng = np.random.default_rng(13)
    net = init_mlp(dims, rng)
    net.flat += rng.normal(scale=0.1, size=net.flat.size)  # nonzero biases
    wide = rng.normal(size=(50, 2 * dims[0]))
    for x in [*rng.normal(size=(50, dims[0])), *(row[::2] for row in wide), np.zeros(dims[0])]:
        assert forward(net, x).tobytes() == forward(net, x[None])[0].tobytes()


def test_constructor_refuses_tensors_that_do_not_fit_dims():
    w, b = [np.zeros((2, 3))], [np.zeros(3)]
    MlpNetwork([2, 3], w, b)
    for dims, weights, biases in (
        ([3, 2], w, b),  # same size, other shape
        ([2, 3], w, [np.zeros(2)]),
        ([2, 3, 1], w, b),
    ):
        with pytest.raises(ValueError, match="do not fit dims"):
            MlpNetwork(dims, weights, biases)
