import tracemalloc

import numpy as np
import pytest

import helpers as oracle
from uavmec.config import RlConfig
from uavmec.deep import DqlAgent, ReplayBuffer, dql_act, train_batch
from uavmec.mdp import Transition
from uavmec.nnet import AdamState, MlpNetwork, forward, init_mlp


def make_transition(tag, state_width=4, action=0, reward=1.0, terminal=False):
    state = np.full(state_width, float(tag))
    return Transition(
        state=state,
        action=action,
        reward=reward,
        next_state=state + 0.5,
        terminal=terminal,
    )


def zero_net(dims):
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MlpNetwork(dims, weights, biases)


def batch_of(transitions):
    """All of ``transitions`` as one training batch, in some order."""
    buf = ReplayBuffer(capacity=len(transitions))
    for t in transitions:
        buf.push(t)
    return buf.sample(len(transitions), np.random.default_rng(0))


def test_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=3)
    for tag in range(4):
        buf.push(make_transition(tag))
    assert len(buf) == 3
    tags = sorted(t.state[0] for t in buf.sample(3, np.random.default_rng(0)))
    assert tags == [1.0, 2.0, 3.0]  # transition 0 was overwritten


def test_sampled_rows_keep_every_field():
    buf = ReplayBuffer(capacity=5)
    buf.push(make_transition(7, action=2, reward=-1.5, terminal=True))
    [row] = buf.sample(1, np.random.default_rng(0))
    assert np.array_equal(row.state, np.full(4, 7.0))
    assert np.array_equal(row.next_state, np.full(4, 7.5))
    assert (row.action, row.reward, row.terminal) == (2, -1.5, True)
    assert isinstance(row.action, int) and isinstance(row.terminal, bool)


def test_memory_grows_with_contents_not_capacity():
    tracemalloc.start()
    try:
        buf = ReplayBuffer(capacity=1_000_000)
        for tag in range(10):
            buf.push(make_transition(tag, state_width=10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A million rows of two 10-wide float64 states alone would be 160 MB.
    assert peak < 1_000_000


@pytest.mark.parametrize("target_network", [False, True])
def test_ring_matches_object_list_oracle(target_network):
    """Same ingests, same draws: identical losses, weights and RNG state.

    The ring wraps past its capacity several times and a third of the rows
    are terminal.
    """
    width, actions, capacity, batch_size, gamma = 6, 3, 40, 16, 0.9
    data_rng = np.random.default_rng(5)
    init = init_mlp([width, 12, actions], np.random.default_rng(6))
    nets = [init.copy(), init.copy()]
    adams = [AdamState(net.parameters()) for net in nets]
    targets = [init.copy(), init.copy()] if target_network else [None, None]
    rngs = [np.random.default_rng(7), np.random.default_rng(7)]
    buffers = [ReplayBuffer(capacity), oracle.ReplayBuffer(capacity)]
    steps = [train_batch, oracle.train_batch]
    for _ in range(5 * capacity):
        state = data_rng.normal(size=width)
        t = Transition(
            state=state,
            action=int(data_rng.integers(actions)),
            reward=float(data_rng.normal()),
            next_state=state + data_rng.normal(size=width),
            terminal=bool(data_rng.random() < 1 / 3),
        )
        losses = []
        for buf, net, adam, target, rng, step in zip(buffers, nets, adams, targets, rngs, steps):
            buf.push(t)
            if len(buf) >= batch_size:
                losses.append(step(net, adam, buf.sample(batch_size, rng), gamma, target))
        assert len(buffers[0]) == len(buffers[1])
        assert len(losses) in (0, 2)
        if losses:
            assert losses[0] == losses[1]
        for mine, theirs in zip(nets[0].parameters(), nets[1].parameters()):
            assert np.array_equal(mine, theirs)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    ring_rows = list(buffers[0].sample(capacity, rngs[0]))
    list_rows = buffers[1].sample(capacity, rngs[1])
    for mine, theirs in zip(ring_rows, list_rows):
        assert np.array_equal(mine.state, theirs.state)
        assert np.array_equal(mine.next_state, theirs.next_state)
        assert (mine.action, mine.reward, mine.terminal) == (
            theirs.action, theirs.reward, theirs.terminal)


def test_full_sample_is_a_permutation():
    buf = ReplayBuffer(capacity=10)
    for tag in range(10):
        buf.push(make_transition(tag))
    got = buf.sample(10, np.random.default_rng(0))
    assert sorted(t.state[0] for t in got) == [float(i) for i in range(10)]


def test_oversampling_rejected():
    buf = ReplayBuffer(capacity=10)
    buf.push(make_transition(0))
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0)


def test_sampling_is_uniform():
    buf = ReplayBuffer(capacity=20)
    for tag in range(20):
        buf.push(make_transition(tag))
    rng = np.random.default_rng(1)
    counts = np.zeros(20)
    draws = 40_000
    for _ in range(draws):
        for t in buf.sample(2, rng):
            counts[int(t.state[0])] += 1
    freq = counts / (draws * 2)
    np.testing.assert_allclose(freq, np.full(20, 1 / 20), atol=0.002)


def test_gamma_zero_targets_are_rewards():
    rng = np.random.default_rng(2)
    net = init_mlp([4, 8, 3], rng)
    transitions = [make_transition(i, action=i % 3, reward=float(i)) for i in range(4)]
    states = np.stack([t.state for t in transitions])
    actions = np.array([t.action for t in transitions])
    before = forward(net, states)[np.arange(4), actions]
    rewards = np.array([t.reward for t in transitions])
    loss = train_batch(net, AdamState(net.parameters()), batch_of(transitions), gamma=0.0)
    # Pre-step loss is the MSE against the plain rewards.
    assert loss == pytest.approx(float(np.mean((before - rewards) ** 2)))


def test_terminal_transitions_do_not_bootstrap():
    # A network with huge constant output would dominate the target if the
    # terminal flag were ignored.
    net = zero_net([4, 2])
    net.biases[0][:] = 1000.0
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=True)])
    loss = train_batch(net, AdamState(net.parameters()), batch, gamma=0.9)
    # prediction 1000 vs target 3: loss = 997^2
    assert loss == pytest.approx(997.0**2)


def test_live_transitions_bootstrap_from_max_next_q():
    net = zero_net([4, 2])
    net.biases[0][:] = [1.0, 5.0]
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=False)])
    loss = train_batch(net, AdamState(net.parameters()), batch, gamma=0.5)
    # target = 3 + 0.5 * max(1, 5) = 5.5; prediction = 1.
    assert loss == pytest.approx(4.5**2)


def test_bootstrap_uses_target_network_when_given():
    net = zero_net([4, 2])
    net.biases[0][:] = [1.0, 5.0]
    frozen = zero_net([4, 2])
    frozen.biases[0][:] = [0.0, 2.0]
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=False)])
    loss = train_batch(net, AdamState(net.parameters()), batch, gamma=0.5, target_net=frozen)
    # target = 3 + 0.5 * max over the FROZEN net = 3 + 1 = 4; prediction = 1.
    assert loss == pytest.approx(3.0**2)


def test_dql_act_examples():
    net = zero_net([5, 5])
    net.biases[0][:] = [0.1, 0.9, 0.2, 0.0, 0.3]
    rng = np.random.default_rng(0)
    assert dql_act(net, np.zeros(5), 0.0, rng) == 1
    all_zero = zero_net([5, 5])
    assert dql_act(all_zero, np.zeros(5), 0.0, rng) == 0


def test_dql_act_fixed_seed_reproducible():
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    net = zero_net([3, 4])
    picks_a = [dql_act(net, np.zeros(3), 0.7, rng_a) for _ in range(50)]
    picks_b = [dql_act(net, np.zeros(3), 0.7, rng_b) for _ in range(50)]
    assert picks_a == picks_b


def small_rl(batch_size=4, target_network=False, target_sync_every=3):
    return RlConfig(
        hidden_sizes=(8,),
        batch_size=batch_size,
        replay_capacity=100,
        target_network=target_network,
        target_sync_every=target_sync_every,
    )


def test_agent_waits_for_a_full_batch():
    agent = DqlAgent(4, 3, small_rl(batch_size=4), np.random.default_rng(0))
    before = [p.copy() for p in agent.net.parameters()]
    for tag in range(3):
        agent.ingest(make_transition(tag, action=tag % 3))
    assert agent.train_steps == 0
    assert agent.last_loss is None
    for b, p in zip(before, agent.net.parameters()):
        assert np.array_equal(b, p)
    agent.ingest(make_transition(3, action=0))
    assert agent.train_steps == 1
    assert agent.last_loss is not None
    changed = any(not np.array_equal(b, p) for b, p in zip(before, agent.net.parameters()))
    assert changed


def test_agent_trains_once_per_ingest_after_warmup():
    agent = DqlAgent(4, 3, small_rl(batch_size=2), np.random.default_rng(0))
    for tag in range(10):
        agent.ingest(make_transition(tag, action=tag % 3))
    # Steps start at the 2nd ingest: 9 training steps by the 10th.
    assert agent.train_steps == 9


def test_target_network_syncs_on_schedule():
    agent = DqlAgent(4, 3, small_rl(batch_size=1, target_network=True, target_sync_every=3),
                     np.random.default_rng(0))
    assert agent.target_net is not None
    # After 2 steps the target still holds the initial weights.
    snapshot = [p.copy() for p in agent.target_net.parameters()]
    agent.ingest(make_transition(0))
    agent.ingest(make_transition(1))
    assert all(np.array_equal(s, p) for s, p in zip(snapshot, agent.target_net.parameters()))
    # The 3rd step syncs: target now equals the online network exactly.
    agent.ingest(make_transition(2))
    assert agent.train_steps == 3
    for online, target in zip(agent.net.parameters(), agent.target_net.parameters()):
        assert np.array_equal(online, target)


def test_agent_without_target_network_has_none():
    agent = DqlAgent(4, 3, small_rl(target_network=False), np.random.default_rng(0))
    assert agent.target_net is None


def test_agent_select_uses_current_network():
    rl = small_rl()
    agent = DqlAgent(10, 5, rl, np.random.default_rng(3))
    from uavmec.mdp import NetworkSnapshot, type_code
    import math

    snap = NetworkSnapshot(
        deciding_uav=0,
        task_type=0,
        type_code=type_code(0, 3),
        unit_delays=(0.1, 0.1, 0.1, 0.1, 0.05),
        unit_batteries=(1.0, 1.0, 1.0, 1.0, math.inf),
        transfer_delays=(0.0, 0.015, 0.015, 0.015, 0.015),
        proc_times=(0.1, 0.1, 0.1, 0.1, 0.05),
        iot_delay=0.01,
        deadline=0.3,
        busy_frac_per_sec=0.0042105,
        num_uavs=4,
    )
    agent.epsilon = 0.0
    choice = agent.select(snap)
    from uavmec.mdp import encode_state

    q = forward(agent.net, encode_state(snap))
    assert choice == int(np.argmax(q))
