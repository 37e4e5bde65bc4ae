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

    def __init__(self, num_uavs: int, num_units: int, num_types: int, max_deadline: float,
                 delay_bins: int, delay_floor: float, battery_bins: int):
        if delay_bins < 2:
            raise ValueError("delay_bins must be >= 2")
        self.num_uavs = num_uavs
        self.num_units = num_units
        self.battery_bins = battery_bins
        # A key holds the task type, one delay bin per unit, one battery bin per UAV.
        self.key_width = 1 + num_units + num_uavs
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
        return cls(num_uavs, num_uavs + num_mecs, num_types, max_deadline,
                   rl.delay_bins, rl.delay_bin_floor, rl.battery_bins)

    def key(self, snap: NetworkSnapshot) -> tuple:
        """(task type, J+ unit delay bins, J UAV battery bins) of a snapshot.

        A delay's bin is the one ``np.searchsorted(edges, delay,
        side="right")`` gives, NaN included.  A battery fraction is clamped to
        [0, 1] and cut into left-closed bins, 1.0 falling in the top one; a
        fraction below 1 times the bin count stays below the count in floating
        point, so only 1.0 and above need the cap.  A NaN fraction raises.
        """
        if snap.num_uavs != self.num_uavs or len(snap.unit_delays) != self.num_units:
            raise ValueError(
                f"expected a snapshot of {self.num_uavs} UAVs and {self.num_units} units, "
                f"got {snap.num_uavs} and {len(snap.unit_delays)}"
            )
        edges, bins = self.delay_edges, self.battery_bins
        top = bins - 1
        return (
            snap.task_type,
            *[bisect_right(edges, d) for d in snap.unit_delays],
            *[top if b >= 1.0 else int(max(b, 0.0) * bins)
              for b in snap.unit_batteries[: self.num_uavs]],
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
        if next_row is not None:
            # np.max's value for a row without NaN; rewards are finite, so
            # no row holds one.
            bootstrap = max(next_row.tolist())
    # Python floats are IEEE doubles: the same arithmetic as on the row's items.
    q = row.item(action)
    q += alpha * (reward + gamma * bootstrap - q)
    row[action] = q
    return q


class QlAgent:
    """One UAV's tabular learner.

    Always keys the base layout's fields (type, delays, UAV batteries): the
    discretized key space is what the table indexes, and transfer-delay
    features would square it for no coverage gain at this fleet size.
    """

    wants_transitions = True

    def __init__(self, grid: DiscretizationGrid, rl: RlConfig, rng: np.random.Generator):
        self.grid = grid
        self.alpha = rl.learning_rate_tabular
        self.gamma = rl.discount
        self.rng = rng
        self.epsilon = 0.0
        self.table: dict[tuple, np.ndarray] = {}

    @classmethod
    def frozen(cls, grid: DiscretizationGrid, table: dict) -> "QlAgent":
        """A greedy learner over ``table``: epsilon 0, no stream, nothing to train."""
        agent = cls.__new__(cls)
        agent.grid, agent.table = grid, table
        agent.rng, agent.epsilon, agent.wants_transitions = None, 0.0, False
        return agent

    @property
    def input_meta(self) -> dict:
        """What the table is fitted to; a checkpoint records it."""
        return {"state_layout": "paper10", **self.grid.meta}

    def q_values(self, key: tuple) -> np.ndarray:
        row = self.table.get(key)
        return row if row is not None else np.zeros(self.grid.num_units, dtype=np.float64)

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
            self.grid.num_units,
            self.alpha,
            self.gamma,
            terminal=t.terminal,
        )


def dump_qtable(agents: list[QlAgent], path: str, metadata: dict | None = None) -> None:
    """Write all agents' tables as sorted text: one state key and its Q-row per line."""
    blocks = []
    for agent in agents:
        # One "%" per line, over the grid's key and the row: "%d" of an int
        # is its str, and "%.17g" of a float is format(x, ".17g"), 17 digits
        # that read back exactly.
        line_format = (",".join(["%d"] * agent.grid.key_width) + " | "
                       + " ".join(["%.17g"] * agent.grid.num_units))
        table = agent.table
        body = [line_format % (*key, *table[key].tolist()) for key in sorted(table)]
        blocks.append((f"actions {agent.grid.num_units} states {len(table)}", body))
    write_checkpoint(path, QTABLE_MAGIC, metadata, blocks)


def _parse_table(header: str, body: list) -> dict:
    """One agent's q-table; every row holds the header's action count of
    finite Q-values and every key as many entries as the block's first key.

    Each value is read once, in row order, into one list, and the table's
    rows are the rows of the one array made from it.
    """
    fields = header.split()
    if len(fields) != 4 or fields[0] != "actions" or fields[2] != "states":
        raise ValueError(f"q-table header {header!r}")
    num_actions, num_states = int(fields[1]), int(fields[3])
    if len(body) != num_states:
        raise ValueError(f"q-table declares {num_states} states, holds {len(body)}")
    keys: dict = {}  # insertion-ordered, for the repeat check
    values: list = []
    width = None
    for line in body:
        fields = line.split(" | ")
        if len(fields) != 2:
            raise ValueError("q-table row without one ' | '")
        key_txt, q_txt = fields
        key = tuple(map(int, key_txt.split(",")))
        if width is None:
            width = len(key)
        elif len(key) != width:
            raise ValueError(f"q-table key {key_txt} has {len(key)} entries, "
                             f"the block's first key has {width}")
        if key in keys:
            raise ValueError(f"q-table repeats state key {key_txt}")
        keys[key] = None
        row = q_txt.split()
        values += map(float, row)
        if len(row) != num_actions:
            raise ValueError(f"q-table row {key_txt} holds {len(row)} of {num_actions} actions")
    if not keys:
        return {}
    rows = np.array(values, dtype=np.float64).reshape(len(keys), num_actions)
    finite = np.isfinite(rows)
    if not finite.all():
        key = list(keys)[finite.all(axis=1).argmin()]
        raise ValueError(f"q-table row {','.join(map(str, key))} holds a non-finite Q-value")
    return dict(zip(keys, rows))


def load_qtable(path: str) -> tuple[list[dict], dict]:
    """Read a table dump; returns (per-agent dicts, metadata)."""
    meta, tables = read_checkpoint(path, QTABLE_MAGIC, _parse_table)
    return tables, meta
