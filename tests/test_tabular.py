import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import PEST, make_snapshot, reference_key
from uavmec import tabular
from uavmec.config import RlConfig
from uavmec.harness import train_policy
from uavmec.mdp import type_code
from uavmec.tabular import (
    QTABLE_MAGIC,
    DiscretizationGrid,
    QlAgent,
    dump_qtable,
    load_qtable,
    q_update,
)


def make_grid(delay_bins=8, battery_bins=10):
    # 4 UAVs + 1 MEC fleet, 3 task classes, loosest deadline 5 s.
    return DiscretizationGrid(
        num_uavs=4,
        num_units=5,
        num_types=3,
        max_deadline=5.0,
        delay_bins=delay_bins,
        delay_floor=0.01,
        battery_bins=battery_bins,
    )


def test_grid_edges_span_floor_to_twice_deadline():
    grid = make_grid()
    assert len(grid.delay_edges) == 7
    assert grid.delay_edges[0] == pytest.approx(0.01)
    assert grid.delay_edges[-1] == pytest.approx(10.0)


@given(
    delay_bins=st.integers(min_value=2, max_value=64),
    pick=st.one_of(
        # An edge (index wrapped onto the grid), or its float neighbour below or above.
        st.tuples(st.integers(min_value=0, max_value=62), st.sampled_from([-1, 0, 1])),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 0.005, -1.0, 10.0001, 1e9, math.inf, -math.inf, math.nan]),
    ),
)
@example(delay_bins=8, pick=0.01)
@example(delay_bins=8, pick=10.0)
def test_delay_bin_matches_searchsorted(delay_bins, pick):
    grid = make_grid(delay_bins=delay_bins)
    edges = np.geomspace(0.01, 10.0, delay_bins - 1)
    assert grid.delay_edges == tuple(edges.tolist())
    if isinstance(pick, tuple):
        edge = edges[pick[0] % len(edges)]
        delay = float(np.nextafter(edge, pick[1] * np.inf) if pick[1] else edge)
    else:
        delay = pick
    expected = int(np.searchsorted(edges, delay, side="right"))
    assert grid.delay_bin(delay) == expected
    assert grid.delay_bin(np.float64(delay)) == expected


def test_fresh_fire_state_key():
    grid = make_grid()
    key = grid.key(make_snapshot())  # fire task, idle fleet, full batteries
    assert key[0] == 0  # task class index
    # Delays fall in low geometric bins; full batteries land in the top bin.
    assert key[1:6] == tuple(grid.delay_bin(d) for d in (0.1, 0.1, 0.1, 0.1, 0.05))
    assert key[6:] == (9, 9, 9, 9)
    assert all(0 < b < grid.delay_bins for b in key[1:6])


def test_same_bin_states_share_a_key():
    # 0.15 and 0.16 sit mid-bin between the 0.1 and 0.316 edges; batteries
    # 0.95 and 0.97 both land in the top tenth.
    grid = make_grid()
    a = make_snapshot(task_type=PEST)._replace(
        unit_delays=(0.15, 0.1, 0.1, 0.1, 0.05), unit_batteries=(0.95, 1.0, 1.0, 1.0, math.inf)
    )
    b = make_snapshot(task_type=PEST)._replace(
        unit_delays=(0.16, 0.1, 0.1, 0.1, 0.05), unit_batteries=(0.97, 1.0, 1.0, 1.0, math.inf)
    )
    assert grid.key(a) == grid.key(b)


def delay_strategy(grid):
    """Delays at and beside each bin edge, 0, above the top edge, inf, or anywhere."""
    edges = grid.delay_edges
    beside_edge = st.tuples(st.sampled_from(edges), st.sampled_from([-1, 0, 1])).map(
        lambda pick: float(np.nextafter(pick[0], pick[1] * np.inf)) if pick[1] else pick[0]
    )
    return st.one_of(
        beside_edge,
        st.sampled_from([0.0, edges[-1] * 1.0001, 1e9, math.inf]),
        st.floats(min_value=0.0, max_value=2.0 * edges[-1]),
    )


@given(data=st.data())
def test_key_matches_the_state_vector_oracle(data):
    num_types = data.draw(st.integers(1, 5), label="num_types")
    num_uavs = data.draw(st.integers(1, 4), label="num_uavs")
    num_units = num_uavs + data.draw(st.integers(1, 2), label="num_mecs")
    grid = DiscretizationGrid(
        num_uavs, num_units, num_types, max_deadline=5.0,
        delay_bins=data.draw(st.integers(2, 16), label="delay_bins"),
    )
    task_type = data.draw(st.integers(0, num_types - 1), label="task_type")
    delays = data.draw(st.lists(delay_strategy(grid), min_size=num_units, max_size=num_units))
    battery = st.one_of(
        st.sampled_from([-0.5, -1e-12, 0.0, 0.1, 0.999, 1.0, 1.0 + 1e-12, 1.5]),
        st.floats(min_value=-1.0, max_value=2.0),
    )
    batteries = data.draw(st.lists(battery, min_size=num_uavs, max_size=num_uavs))
    snap = make_snapshot()._replace(
        task_type=task_type,
        type_code=type_code(task_type, num_types),
        unit_delays=tuple(delays),
        unit_batteries=tuple(batteries) + (math.inf,) * (num_units - num_uavs),  # MEC sentinel
        num_uavs=num_uavs,
    )
    assert grid.key(snap) == reference_key(grid, snap)


def test_training_keys_match_the_state_vector_oracle(desk_cfg, monkeypatch):
    recorded = []
    original = tabular.DiscretizationGrid.key

    def recording_key(grid, snap):
        recorded.append((grid, snap, original(grid, snap)))
        return recorded[-1][2]

    monkeypatch.setattr(tabular.DiscretizationGrid, "key", recording_key)
    train_policy(desk_cfg, "qlearning", episodes=1, master_seed=1)
    assert len(recorded) > 100
    for grid, snap, key in recorded:
        assert key == reference_key(grid, snap)


def test_delay_above_top_edge_clamps_to_last_bin():
    grid = make_grid()
    assert grid.delay_bin(1e9) == grid.delay_bins - 1
    assert grid.delay_bin(10.0001) == grid.delay_bins - 1
    assert grid.delay_bin(0.0) == 0
    assert grid.delay_bin(0.005) == 0


def test_battery_bin_clamps_and_partitions():
    grid = make_grid()
    assert grid.battery_bin(-0.5) == 0
    assert grid.battery_bin(0.0) == 0
    assert grid.battery_bin(0.05) == 0
    assert grid.battery_bin(0.999) == 9
    assert grid.battery_bin(1.0) == 9
    assert grid.battery_bin(2.0) == 9
    # Bins are left-closed tenths.
    assert grid.battery_bin(0.35) == 3


def test_key_width_validation():
    grid = make_grid()  # 4 UAVs + 1 MEC
    with pytest.raises(ValueError):
        grid.key(make_snapshot(backlogs=(0.0,) * 3, batteries=(1.0,) * 2, num_uavs=2))
    with pytest.raises(ValueError):
        grid.key(make_snapshot(backlogs=(0.0,) * 6, batteries=(1.0,) * 4, num_uavs=4))


def test_q_update_single_step_from_empty_table():
    # alpha 0.05, reward 2, unseen successor: Q moves from 0 to 0.1.
    table = {}
    key, nxt = (0, 1, 1), (0, 2, 2)
    got = q_update(table, key, 0, 2.0, nxt, num_actions=5, alpha=0.05, gamma=0.85)
    assert got == pytest.approx(0.1)
    assert table[key][0] == pytest.approx(0.1)
    assert np.count_nonzero(table[key]) == 1


def test_q_update_zero_alpha_changes_nothing():
    table = {(1,): np.array([0.5, -0.25])}
    got = q_update(table, (1,), 1, 10.0, (2,), num_actions=2, alpha=0.0, gamma=0.85)
    assert got == -0.25
    assert table[(1,)].tolist() == [0.5, -0.25]


def test_q_update_decays_toward_discounted_bootstrap():
    # r=0, gamma=0, Q=1, alpha=0.05: new Q = 0.95.
    table = {(1,): np.array([1.0, 0.0])}
    got = q_update(table, (1,), 0, 0.0, (1,), num_actions=2, alpha=0.05, gamma=0.0)
    assert got == pytest.approx(0.95)


def test_q_update_bootstraps_from_next_row_max():
    table = {(2,): np.array([3.0, 7.0])}
    got = q_update(table, (1,), 0, 1.0, (2,), num_actions=2, alpha=1.0, gamma=0.5)
    # alpha 1: Q jumps straight to r + gamma * max(next) = 1 + 3.5.
    assert got == pytest.approx(4.5)


def test_q_update_terminal_ignores_bootstrap():
    table = {(2,): np.array([100.0, 100.0])}
    got = q_update(table, (1,), 0, 1.0, (2,), num_actions=2, alpha=1.0, gamma=0.5, terminal=True)
    assert got == pytest.approx(1.0)


def test_q_values_stay_inside_reward_fixed_point_bounds():
    # Rewards live in [-41, 2]; with discounting the value iteration fixed
    # points are bounded by r / (1 - gamma).
    rng = np.random.default_rng(21)
    gamma, alpha = 0.85, 0.05
    hi, lo = 2.0 / (1 - gamma), -41.0 / (1 - gamma)
    table = {}
    keys = [(i,) for i in range(6)]
    for _ in range(20_000):
        k = keys[rng.integers(0, len(keys))]
        nk = keys[rng.integers(0, len(keys))]
        action = int(rng.integers(0, 3))
        reward = float(rng.uniform(-41.0, 2.0))
        q_update(table, k, action, reward, nk, num_actions=3, alpha=alpha, gamma=gamma)
    for row in table.values():
        assert np.all(row <= hi + 1e-9)
        assert np.all(row >= lo - 1e-9)


def test_agent_ingest_matches_manual_update():
    from uavmec.mdp import Transition

    grid = make_grid()
    rl = RlConfig()
    agent = QlAgent(grid, rl, np.random.default_rng(0))
    # A tabular transition carries keys: the agent keys each state once, at encode.
    key = agent.encode(make_snapshot())
    nxt = agent.encode(make_snapshot(task_type=PEST)._replace(
        unit_delays=(0.2, 0.1, 0.1, 0.1, 0.05), unit_batteries=(0.9, 1.0, 1.0, 1.0, math.inf)
    ))
    agent.ingest(Transition(state=key, action=4, reward=2.0, next_state=nxt, terminal=False))
    assert agent.q_values(key)[4] == pytest.approx(rl.learning_rate_tabular * 2.0)
    # Unseen keys read as zero rows without mutating the table.
    assert agent.q_values((99,) * 10).tolist() == [0.0] * 5
    assert len(agent.table) == 1


def test_dump_load_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    grid = make_grid()
    agents = [QlAgent(grid, RlConfig(), np.random.default_rng(i)) for i in range(2)]
    for agent in agents:
        for _ in range(30):
            key = tuple(int(x) for x in rng.integers(0, 5, size=10))
            agent.table[key] = rng.uniform(-41, 2, size=5)
    path = str(tmp_path / "table.qtab")
    dump_qtable(agents, path, metadata={"policy": "qlearning", "episodes": 10})
    tables, meta = load_qtable(path)
    assert meta == {"policy": "qlearning", "episodes": "10"}
    assert len(tables) == 2
    for agent, table in zip(agents, tables):
        assert set(table) == set(agent.table)
        for key in table:
            assert np.array_equal(table[key], agent.table[key])


def test_load_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.qtab"
    bad.write_text("some other file\n")
    with pytest.raises(ValueError):
        load_qtable(str(bad))


def test_grid_requires_two_delay_bins():
    with pytest.raises(ValueError):
        DiscretizationGrid(4, 5, 3, 5.0, delay_bins=1)
