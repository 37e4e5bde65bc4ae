"""Tabular Q-learning over a discretized snapshot state.

The table is a dict from discrete state keys to one Q-value per unit; absent
keys read as all-zero rows.  Delay entries use geometric bin edges (finer
resolution near zero, where deadlines live), battery entries uniform bins,
and the task type stays exact.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import RlConfig
from .exploration import epsilon_greedy
# encode_state is unused here; bench/tracing.py wraps it under this name.
from .mdp import NetworkSnapshot, Transition, encode_state  # noqa: F401

QTABLE_MAGIC = "uavmec-qtable v1"


class DiscretizationGrid:
    """Maps a decision snapshot to a hashable integer key."""

    def __init__(
        self,
        num_uavs: int,
        num_units: int,
        num_types: int,
        max_deadline: float,
        delay_bins: int = 8,
        delay_floor: float = 0.01,
        battery_bins: int = 10,
    ):
        if delay_bins < 2:
            raise ValueError("delay_bins must be >= 2")
        self.num_uavs = num_uavs
        self.num_units = num_units
        self.num_types = num_types
        self.delay_bins = delay_bins
        self.battery_bins = battery_bins
        # Every key depends on these alone; checkpoints record them.
        self.meta = dict(delay_bins=delay_bins, delay_bin_floor=float(delay_floor),
                         battery_bins=battery_bins, max_deadline=float(max_deadline))
        # Edges span (floor, 2 * max deadline]; anything above the last edge
        # lands in the top bin, anything below the floor in bin 0.  Python
        # floats: bisecting them beats a NumPy call on one scalar.
        self.delay_edges = tuple(
            np.geomspace(delay_floor, 2.0 * max_deadline, delay_bins - 1).tolist()
        )

    @classmethod
    def from_config(cls, num_uavs, num_mecs, num_types, max_deadline, rl: RlConfig):
        return cls(
            num_uavs,
            num_uavs + num_mecs,
            num_types,
            max_deadline,
            delay_bins=rl.delay_bins,
            delay_floor=rl.delay_bin_floor,
            battery_bins=rl.battery_bins,
        )

    def delay_bin(self, delay: float) -> int:
        # The bin np.searchsorted(edges, delay, side="right") gives, NaN included.
        return bisect_right(self.delay_edges, delay)

    def battery_bin(self, fraction: float) -> int:
        clamped = min(max(fraction, 0.0), 1.0)
        return min(int(clamped * self.battery_bins), self.battery_bins - 1)

    def key(self, snap: NetworkSnapshot) -> tuple:
        """(task type, J+ unit delay bins, J UAV battery bins) of a snapshot."""
        if snap.num_uavs != self.num_uavs or len(snap.unit_delays) != self.num_units:
            raise ValueError(
                f"expected a snapshot of {self.num_uavs} UAVs and {self.num_units} units, "
                f"got {snap.num_uavs} and {len(snap.unit_delays)}"
            )
        return (
            snap.task_type,
            *map(self.delay_bin, snap.unit_delays),
            *map(self.battery_bin, snap.unit_batteries[: self.num_uavs]),
        )


def q_update(
    table: dict, key: tuple, action: int, reward: float, next_key: tuple, num_actions: int,
    alpha: float, gamma: float, terminal: bool = False,
) -> float:
    """One temporal-difference step; returns the updated Q(key, action)."""
    row = table.get(key)
    if row is None:
        row = np.zeros(num_actions, dtype=np.float64)
        table[key] = row
    bootstrap = 0.0
    if not terminal:
        next_row = table.get(next_key)
        bootstrap = float(next_row.max()) if next_row is not None else 0.0
    row[action] += alpha * (reward + gamma * bootstrap - row[action])
    return float(row[action])


class QlAgent:
    """One UAV's tabular learner.

    Always keys the base layout's fields (type, delays, UAV batteries): the
    discretized key space is what the table indexes, and transfer-delay
    features would square it for no coverage gain at this fleet size.
    """

    wants_transitions = True

    def __init__(self, grid: DiscretizationGrid, rl: RlConfig, rng: np.random.Generator):
        self.grid = grid
        self.num_actions = grid.num_units
        self.alpha = rl.learning_rate_tabular
        self.gamma = rl.discount
        self.rng = rng
        self.epsilon = 0.0
        self.table: dict[tuple, np.ndarray] = {}
        # What the table is fitted to; a checkpoint records it.
        self.input_meta = {"state_layout": "paper10", **grid.meta}

    def q_values(self, key: tuple) -> np.ndarray:
        row = self.table.get(key)
        return row if row is not None else np.zeros(self.num_actions, dtype=np.float64)

    def encode(self, snap: NetworkSnapshot) -> tuple:
        """The decision's state: its discretized key."""
        return self.grid.key(snap)

    def select(self, key: tuple) -> int:
        return epsilon_greedy(self.q_values(key), self.epsilon, self.rng)

    def ingest(self, t: Transition) -> None:
        q_update(
            self.table,
            t.state,
            t.action,
            t.reward,
            t.next_state,
            self.num_actions,
            self.alpha,
            self.gamma,
            terminal=t.terminal,
        )


def dump_qtable(agents: list[QlAgent], path: str, metadata: dict | None = None) -> None:
    """Write all agents' tables as sorted text: one state key and its Q-row per line."""
    blocks = []
    for agent in agents:
        body = [
            ",".join(str(x) for x in key) + " | "
            + " ".join(format(x, ".17g") for x in agent.table[key])
            for key in sorted(agent.table)
        ]
        blocks.append((f"actions {agent.num_actions} states {len(agent.table)}", body))
    write_checkpoint(path, QTABLE_MAGIC, metadata, blocks)


def _parse_table(header: str, body: list) -> dict:
    """One agent's q-table; every row holds the header's action count."""
    fields = header.split()
    if len(fields) != 4 or fields[0] != "actions" or fields[2] != "states":
        raise ValueError(f"q-table header {header!r}")
    num_actions, num_states = int(fields[1]), int(fields[3])
    if len(body) != num_states:
        raise ValueError(f"q-table declares {num_states} states, holds {len(body)}")
    table: dict = {}
    for line in body:
        fields = line.split(" | ")
        if len(fields) != 2:
            raise ValueError("q-table row without one ' | '")
        key_txt, q_txt = fields
        key = tuple(int(x) for x in key_txt.split(","))
        if key in table:
            raise ValueError(f"q-table repeats state key {key_txt}")
        row = np.array([float(x) for x in q_txt.split()], dtype=np.float64)
        if row.size != num_actions:
            raise ValueError(f"q-table row {key_txt} holds {row.size} of {num_actions} actions")
        table[key] = row
    return table


def load_qtable(path: str) -> tuple[list[dict], dict]:
    """Read a table dump; returns (per-agent dicts, metadata)."""
    meta, tables = read_checkpoint(path, QTABLE_MAGIC, _parse_table)
    return tables, meta
