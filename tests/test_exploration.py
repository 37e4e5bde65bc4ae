import copy

import numpy as np
import pytest

from helpers import reference_epsilon_greedy, reference_forward_cached
from uavmec.config import RlConfig
from uavmec.deep import DqlAgent
from uavmec.exploration import epsilon_greedy, epsilon_schedule
from uavmec.nnet import forward
from uavmec.tabular import DiscretizationGrid, QlAgent


def test_greedy_picks_argmax():
    rng = np.random.default_rng(0)
    assert epsilon_greedy([1.0, 3.0, 2.0, 0.0, 0.0], 0.0, rng) == 1


def test_greedy_ties_break_low():
    rng = np.random.default_rng(0)
    assert epsilon_greedy([5.0, 5.0, 0.0, 0.0, 0.0], 0.0, rng) == 0
    assert epsilon_greedy([0.0, 0.0, 0.0], 0.0, rng) == 0


def test_greedy_leaves_stream_untouched():
    rng = np.random.default_rng(123)
    probe = np.random.default_rng(123)
    for _ in range(10):
        epsilon_greedy([0.0, 1.0], 0.0, rng)
    # The stream was never advanced: it still produces the same next draw.
    assert rng.random() == probe.random()


def test_full_exploration_is_uniform():
    rng = np.random.default_rng(99)
    n = 100_000
    counts = np.zeros(5)
    for _ in range(n):
        counts[epsilon_greedy([9.0, 0.0, 0.0, 0.0, 0.0], 1.0, rng)] += 1
    np.testing.assert_allclose(counts / n, np.full(5, 0.2), atol=0.01)


def test_intermediate_epsilon_mixes_greedy_and_uniform():
    rng = np.random.default_rng(7)
    n = 100_000
    eps = 0.2
    hits = sum(epsilon_greedy([9.0, 0.0, 0.0, 0.0, 0.0], eps, rng) == 0 for _ in range(n))
    # P(action 0) = (1 - eps) + eps / 5
    assert hits / n == pytest.approx(0.84, abs=0.01)


def test_epsilon_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        epsilon_greedy([1.0], -0.1, rng)
    with pytest.raises(ValueError):
        epsilon_greedy([1.0], 1.1, rng)
    with pytest.raises(ValueError):
        epsilon_greedy([], 0.0, rng)
    with pytest.raises(ValueError):
        epsilon_greedy([[1.0, 2.0]], 0.0, rng)


def test_schedule_endpoints():
    assert epsilon_schedule(0, 1000) == 1.0
    # Decay completes at 0.8 * total and stays flat afterwards.
    assert epsilon_schedule(800, 1000) == pytest.approx(0.05)
    assert epsilon_schedule(900, 1000) == pytest.approx(0.05)
    assert epsilon_schedule(999, 1000) == pytest.approx(0.05)


def test_schedule_is_linear_over_decay():
    assert epsilon_schedule(400, 1000) == pytest.approx(1.0 + (0.05 - 1.0) * 0.5)
    assert epsilon_schedule(200, 1000) == pytest.approx(1.0 + (0.05 - 1.0) * 0.25)


def test_schedule_custom_range_and_fraction():
    assert epsilon_schedule(50, 100, start=0.5, end=0.1, decay_fraction=0.5) == pytest.approx(0.1)
    assert epsilon_schedule(25, 100, start=0.5, end=0.1, decay_fraction=0.5) == pytest.approx(0.3)


def test_schedule_tiny_budget_still_decays():
    # decay_len clamps at one episode: episode 1 is already at the floor.
    assert epsilon_schedule(0, 1, decay_fraction=0.8) == 1.0
    assert epsilon_schedule(1, 1, decay_fraction=0.8) == pytest.approx(0.05)


def test_schedule_validation():
    with pytest.raises(ValueError):
        epsilon_schedule(0, 0)
    with pytest.raises(ValueError):
        epsilon_schedule(-1, 10)


def check_select_against_reference(agent, states, reference_q):
    """``agent.select`` against the original ``epsilon_greedy`` on
    ``reference_q(state)`` with a copy of the agent's generator: the same
    action, and the same generator state after every call and at the end."""
    probe = copy.deepcopy(agent.rng)
    for state in states:
        want = reference_epsilon_greedy(reference_q(state), agent.epsilon, probe)
        assert agent.select(state) == want
        assert agent.rng.bit_generator.state == probe.bit_generator.state
    assert agent.rng.random() == probe.random()


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
def test_dql_select_matches_the_reference_forward_and_draw(epsilon):
    agent = DqlAgent(6, 3, RlConfig(hidden_sizes=(16, 16)), np.random.default_rng(40))
    agent.epsilon = epsilon
    data = np.random.default_rng(41)
    wide = data.normal(size=(100, 12))
    # Contiguous rows, strided rows, and the zero state, whose outputs all
    # equal the zero biases: a tie that breaks on action 0.
    states = [*data.normal(size=(100, 6)), *(row[::2] for row in wide), np.zeros(6)]
    check_select_against_reference(
        agent, states, lambda s: reference_forward_cached(agent.net, s[None])[-1][0])


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
def test_ql_select_matches_the_reference_row_and_draw(epsilon):
    agent = QlAgent(DiscretizationGrid.from_config(2, 1, 3, 5.0, RlConfig()), RlConfig(),
                    np.random.default_rng(42))
    agent.epsilon = epsilon
    data = np.random.default_rng(43)
    keys = [tuple(int(x) for x in data.integers(0, 4, size=6)) for _ in range(200)]
    for key in keys[::2]:
        agent.table[key] = data.normal(size=3)
    agent.table[keys[-1]] = np.zeros(3)
    check_select_against_reference(
        agent, keys, lambda k: agent.table.get(k, np.zeros(3)))
    assert len(agent.table) == len(set(keys[::2]) | {keys[-1]})


def test_forward_keeps_its_refusals_and_conversions():
    agent = DqlAgent(6, 3, RlConfig(hidden_sizes=(8,)), np.random.default_rng(44))
    with pytest.raises(ValueError):
        forward(agent.net, np.zeros((2, 6, 6)))
    for bad in (np.zeros(5), np.zeros(7), np.zeros((2, 5))):
        with pytest.raises(ValueError):
            forward(agent.net, bad)
    state = np.arange(6.0)
    q = forward(agent.net, state)
    assert q.shape == (3,)
    # Integer and list input convert; every result is the caller's own copy.
    assert forward(agent.net, np.arange(6)).tobytes() == q.tobytes()
    assert forward(agent.net, list(range(6))).tobytes() == q.tobytes()
    q[:] = 0.0
    assert forward(agent.net, state).tobytes() != q.tobytes()
