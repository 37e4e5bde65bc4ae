import copy
import pickle
import tracemalloc

import numpy as np
import pytest

import helpers as oracle
from helpers import make_snapshot, zero_net
from uavmec.config import RlConfig
from uavmec.deep import DqlAgent, ReplayBuffer, TransitionBatch, train_batch
from uavmec.mdp import Transition, encode_state
from uavmec.nnet import AdamState, forward, init_mlp


def make_transition(tag, state_width=4, action=0, reward=1.0, terminal=False):
    state = np.full(state_width, float(tag))
    return Transition(
        state=state,
        action=action,
        reward=reward,
        next_state=state + 0.5,
        terminal=terminal,
    )


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

    The ring wraps past its capacity and a third of the rows are terminal.
    The large ring trains on every 50th push only; above 10,000 rows,
    ``Generator.choice`` draws a small sample by a set-based method instead
    of a permutation.
    """
    for capacity, pushes, train_every in ((40, 200, 1), (12_000, 12_500, 50)):
        check_ring_against_oracle(target_network, capacity, pushes, train_every)


def check_ring_against_oracle(target_network, capacity, pushes, train_every):
    width, actions, batch_size, gamma = 6, 3, 16, 0.9
    data_rng = np.random.default_rng(5)
    init = init_mlp([width, 12, actions], np.random.default_rng(6))
    nets = [init.copy(), init.copy()]
    adams = [AdamState(net.flat.size) for net in nets]
    targets = [init.copy(), init.copy()] if target_network else [None, None]
    rngs = [np.random.default_rng(7), np.random.default_rng(7)]
    buffers = [ReplayBuffer(capacity), oracle.ReplayBuffer(capacity)]
    steps = [train_batch, oracle.train_batch]
    for push in range(pushes):
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
            if len(buf) >= batch_size and push % train_every == 0:
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


def test_push_refuses_states_of_another_shape():
    def transition(state, next_state):
        return Transition(state=state, action=0, reward=0.0, next_state=next_state,
                          terminal=False)

    buf = ReplayBuffer(capacity=5)
    buf.push(make_transition(0, state_width=10))
    wide = np.zeros(10)
    for bad in (
        transition(np.array([7.0]), np.array([7.0])),  # would broadcast to ten 7.0s
        transition(wide, np.zeros(11)),
        transition(np.zeros((2, 5)), wide),
        transition(np.zeros((1, 10)), wide),
    ):
        with pytest.raises(ValueError):
            buf.push(bad)
    assert len(buf) == 1
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=5).push(transition(np.zeros((2, 2)), np.zeros(4)))
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=5).push(transition(np.zeros(4), np.zeros(3)))


def random_batch(rng, rows, width, actions):
    """A ``TransitionBatch`` of random rows, about a third of them terminal."""
    return TransitionBatch(
        rng.normal(size=(rows, width)), rng.integers(0, actions, size=rows),
        rng.normal(size=rows), rng.normal(size=(rows, width)), rng.random(rows) < 1 / 3,
    )


@pytest.mark.parametrize("batch_size", [1, 64])
@pytest.mark.parametrize("target_network", [False, True])
def test_train_batch_is_byte_equal_to_the_reference_step(target_network, batch_size):
    """Two networks of the same dims, stepped in turn so that they share
    workspaces, each against the allocating per-array reference step: equal
    losses, weights and Adam moments, bit for bit, over 60 steps each."""
    width, actions, gamma = 6, 3, 0.9
    data_rng = np.random.default_rng(21)
    inits = [init_mlp([width, 16, 16, actions], np.random.default_rng(s)) for s in (22, 23)]
    nets = [net.copy() for net in inits]
    refs = [net.copy() for net in inits]
    adams = [AdamState(net.flat.size, lr=0.01) for net in nets]
    ref_adams = [oracle.ReferenceAdamState(net.parameters(), lr=0.01) for net in refs]
    targets = [net.copy() for net in inits] if target_network else [None, None]
    for step in range(60):
        for k in range(2):
            batch = random_batch(data_rng, batch_size, width, actions)
            loss = train_batch(nets[k], adams[k], batch, gamma, targets[k])
            ref_loss = oracle.reference_train_step(refs[k], ref_adams[k], batch, gamma, targets[k])
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            for mine, theirs in zip(nets[k].parameters(), refs[k].parameters()):
                assert mine.tobytes() == theirs.tobytes()
            for mine, theirs in ((adams[k].m, ref_adams[k].m), (adams[k].v, ref_adams[k].v)):
                assert mine.tobytes() == np.concatenate([a.reshape(-1) for a in theirs]).tobytes()
            if target_network and step % 10 == 9:
                targets[k].copy_from(nets[k])
    assert not np.array_equal(nets[0].weights[0], inits[0].weights[0])


@pytest.mark.parametrize("target_network", [False, True])
def test_folded_step_stays_within_rounding_of_the_unfolded_step(target_network):
    """The folded layers move only rounding: over 60 steps at batch 64, where
    the bits do differ, losses and weights stay within 1e-9 relative of the
    original ``a @ W + b`` step (the worst measured was 1.4e-12)."""
    width, actions, gamma = 6, 3, 0.9
    data_rng = np.random.default_rng(31)
    init = init_mlp([width, 16, 16, actions], np.random.default_rng(32))
    net, ref = init.copy(), init.copy()
    adam = AdamState(net.flat.size, lr=0.01)
    ref_adam = oracle.ReferenceAdamState(ref.parameters(), lr=0.01)
    target = init.copy() if target_network else None
    for step in range(60):
        batch = random_batch(data_rng, 64, width, actions)
        loss = train_batch(net, adam, batch, gamma, target)
        ref_loss = oracle.reference_unfolded_train_step(ref, ref_adam, batch, gamma, target)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-9, atol=0.0)
        for mine, theirs in zip(net.parameters(), ref.parameters()):
            np.testing.assert_allclose(mine, theirs, rtol=1e-9, atol=0.0)
        if target_network and step % 10 == 9:
            target.copy_from(net)
    assert net.flat.tobytes() != np.concatenate([p.reshape(-1) for p in ref.parameters()]).tobytes()


def test_training_step_does_not_grow_the_pickled_agent():
    def pickled_size(agent):
        # The generator's state pickles as integers whose length varies with
        # their value, so it is left out.
        return len(pickle.dumps({**vars(agent), "rng": None}))

    agent = DqlAgent(4, 3, small_rl(batch_size=8, target_network=True), np.random.default_rng(4))
    for tag in range(7):
        agent.ingest(make_transition(tag, action=tag % 3))
    agent.last_loss = 0.0  # a float, as after a step, so that only scratch can grow
    before = pickled_size(agent)
    for tag in range(7, 11):
        agent.ingest(make_transition(tag, action=tag % 3))
    assert agent.train_steps == 4
    assert pickled_size(agent) == before


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
    loss = train_batch(net, AdamState(net.flat.size), batch_of(transitions), gamma=0.0)
    # Pre-step loss is the MSE against the plain rewards.
    assert loss == pytest.approx(float(np.mean((before - rewards) ** 2)))


def test_terminal_transitions_do_not_bootstrap():
    # A network with huge constant output would dominate the target if the
    # terminal flag were ignored.
    net = zero_net([4, 2])
    net.biases[0][:] = 1000.0
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=True)])
    loss = train_batch(net, AdamState(net.flat.size), batch, gamma=0.9)
    # prediction 1000 vs target 3: loss = 997^2
    assert loss == pytest.approx(997.0**2)


def test_live_transitions_bootstrap_from_max_next_q():
    net = zero_net([4, 2])
    net.biases[0][:] = [1.0, 5.0]
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=False)])
    loss = train_batch(net, AdamState(net.flat.size), batch, gamma=0.5)
    # target = 3 + 0.5 * max(1, 5) = 5.5; prediction = 1.
    assert loss == pytest.approx(4.5**2)


def test_bootstrap_uses_target_network_when_given():
    net = zero_net([4, 2])
    net.biases[0][:] = [1.0, 5.0]
    frozen = zero_net([4, 2])
    frozen.biases[0][:] = [0.0, 2.0]
    batch = batch_of([make_transition(0, action=0, reward=3.0, terminal=False)])
    loss = train_batch(net, AdamState(net.flat.size), batch, gamma=0.5, target_net=frozen)
    # target = 3 + 0.5 * max over the FROZEN net = 3 + 1 = 4; prediction = 1.
    assert loss == pytest.approx(3.0**2)


def agent_acting_with(net, epsilon, seed):
    agent = DqlAgent(net.dims[0], net.dims[-1], small_rl(), np.random.default_rng(seed))
    agent.net = net
    agent.epsilon = epsilon
    return agent


def test_dql_act_examples():
    net = zero_net([10, 5])
    net.biases[0][:] = [0.1, 0.9, 0.2, 0.0, 0.3]
    greedy = agent_acting_with(net, 0.0, 0)
    assert greedy.select(greedy.encode(make_snapshot())) == 1
    tied = agent_acting_with(zero_net([10, 5]), 0.0, 0)
    assert tied.select(tied.encode(make_snapshot())) == 0


def test_dql_act_fixed_seed_reproducible():
    agent_a = agent_acting_with(zero_net([10, 4]), 0.7, 11)
    agent_b = agent_acting_with(zero_net([10, 4]), 0.7, 11)
    picks_a = [agent_a.select(agent_a.encode(make_snapshot())) for _ in range(50)]
    picks_b = [agent_b.select(agent_b.encode(make_snapshot())) for _ in range(50)]
    assert picks_a == picks_b
    assert len(set(picks_a)) > 1  # exploration drew more than the greedy pick


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
    agent = DqlAgent(10, 5, small_rl(), np.random.default_rng(3))
    agent.epsilon = 0.0
    snap = make_snapshot()
    state = agent.encode(snap)
    assert np.array_equal(state, encode_state(snap))
    choice = agent.select(state)
    q = forward(agent.net, state)
    assert choice == int(np.argmax(q))


def test_ingest_refuses_actions_outside_the_network():
    agent = DqlAgent(4, 3, small_rl(), np.random.default_rng(0))
    agent.ingest(make_transition(0, action=np.int64(2)))
    # A float table would store 2.7 as 2, action -1 would train the last
    # column, and True would train column 1.
    for bad in (2.7, 2.0, -1, 3, None, True, False):
        with pytest.raises(ValueError, match=r"is not an integer in \[0, 3\)"):
            agent.ingest(make_transition(1, action=bad))
    assert len(agent.buffer) == 1


def feed(agent, transitions):
    losses = []
    for t in transitions:
        agent.ingest(t)
        losses.append(agent.last_loss)
    return losses


def test_deep_copied_agent_trains_like_the_original():
    agent = DqlAgent(4, 3, small_rl(batch_size=4, target_network=True, target_sync_every=2),
                     np.random.default_rng(12))
    data_rng = np.random.default_rng(13)
    transitions = [
        Transition(state=s, action=int(data_rng.integers(3)), reward=float(data_rng.normal()),
                   next_state=s + data_rng.normal(size=4), terminal=bool(data_rng.random() < 0.3))
        for s in data_rng.normal(size=(30, 4))
    ]
    feed(agent, transitions[:10])
    dup = copy.deepcopy(agent)
    for net in (dup.net, dup.target_net):
        assert all(tensor.base is net.flat for tensor in net.parameters())
    assert feed(dup, transitions[10:]) == feed(agent, transitions[10:])
    assert dup.train_steps == agent.train_steps == 27
    for mine, theirs in ((dup.net.flat, agent.net.flat),
                         (dup.target_net.flat, agent.target_net.flat),
                         (dup.adam.m, agent.adam.m), (dup.adam.v, agent.adam.v),
                         (dup.buffer.table, agent.buffer.table)):
        assert mine.tobytes() == theirs.tobytes()
        assert not np.shares_memory(mine, theirs)
    assert dup.rng.bit_generator.state == agent.rng.bit_generator.state
