"""Decision-time snapshots, state encoding and reward shaping.

The simulator hands each offloading decision a NetworkSnapshot; everything
here is a pure function over that snapshot, so policies and tests can build
them directly without running the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MdpConfig


class NetworkSnapshot(NamedTuple):
    """What the deciding UAV knows at a decision instant.

    Immutable: the kernel shares ``proc_times`` (one tuple per task type) and
    ``transfer_delays`` (one per deciding UAV) across the decisions of an
    episode.  Per-unit tuples are ordered UAVs first (0..J-1) then MECs.
    Battery entries for MECs are the +inf grid-power sentinel; UAV entries
    are raw fractions of capacity (clamping happens only at state encoding).
    ``unit_delays`` already include the candidate task's own service time on
    each unit.
    """

    deciding_uav: int
    task_type: int
    type_code: float
    unit_delays: tuple
    unit_batteries: tuple
    transfer_delays: tuple
    proc_times: tuple
    iot_delay: float
    deadline: float
    busy_frac_per_sec: float
    num_uavs: int

    @property
    def num_units(self) -> int:
        return len(self.unit_delays)

    def is_mec(self, unit: int) -> bool:
        return unit >= self.num_uavs


@dataclass
class Transition:
    """One learner experience: decision state, action, shaped reward, successor.

    A state is the learner's own, what its ``encode`` returned: a key tuple
    for the tabular agent, a vector for the deep one.
    """

    state: tuple | np.ndarray
    action: int
    reward: float
    next_state: tuple | np.ndarray
    terminal: bool


def type_code(type_id: int, num_types: int) -> float:
    """Task class normalized onto [0, 1] (three classes map to 0, 0.5, 1)."""
    if num_types <= 1:
        return 0.0
    return type_id / (num_types - 1)


def encode_state(snap: NetworkSnapshot, layout: str = "paper10") -> np.ndarray:
    """State vector: [type code, per-unit delays, per-UAV battery fractions].

    The ``extended`` layout appends the per-unit transfer delays seen from the
    deciding UAV, which otherwise are invisible to the agent.  Battery entries
    are clamped to [0, 1].
    """
    batteries = [min(max(b, 0.0), 1.0) for b in snap.unit_batteries[: snap.num_uavs]]
    parts = [snap.type_code, *snap.unit_delays, *batteries]
    if layout == "extended":
        parts.extend(snap.transfer_delays)
    elif layout != "paper10":
        raise ValueError(f"unknown state layout: {layout}")
    return np.asarray(parts, dtype=np.float64)


def state_width(num_uavs: int, num_mecs: int, layout: str = "paper10") -> int:
    base = 1 + (num_uavs + num_mecs) + num_uavs
    if layout == "extended":
        return base + num_uavs + num_mecs
    if layout != "paper10":
        raise ValueError(f"unknown state layout: {layout}")
    return base


def counterfactual_violation(snap: NetworkSnapshot, unit: int) -> bool:
    """Would placing the task at ``unit`` be predicted to miss its deadline?

    Uses the decision-time delay estimates: sensor hop + offload hop + queue
    and service at the unit, strictly compared against the class deadline.
    """
    total = snap.iot_delay + snap.transfer_delays[unit] + snap.unit_delays[unit]
    return total > snap.deadline


def battery_tier(snap: NetworkSnapshot, action: int, cfg: MdpConfig) -> float:
    """Tier value for how the chosen unit's expected battery compares to the fleet.

    The expected battery of the chosen UAV is its level after also serving
    this task; every other UAV keeps its current level.  Choosing a MEC never
    taxes any battery and always earns the top tier.
    """
    high, low, mid = cfg.tier_values
    if snap.is_mec(action):
        return high
    expected = list(snap.unit_batteries[: snap.num_uavs])
    expected[action] -= snap.proc_times[action] * snap.busy_frac_per_sec
    diff = expected[action] - max(expected)
    if diff >= -cfg.energy_threshold:
        return high
    if diff <= -2.0 * cfg.energy_threshold:
        return low
    return mid


def violation_penalty(snap: NetworkSnapshot, action: int, cfg: MdpConfig) -> float:
    """Penalty ladder, graded by which alternative would have met the deadline.

    Checked in order: any MEC clean, local (the deciding UAV) clean, any other
    UAV clean (excluding the deciding UAV and the chosen unit), else the miss
    was unavoidable.  Exactly one branch applies.
    """
    for unit in range(snap.num_uavs, snap.num_units):
        if not counterfactual_violation(snap, unit):
            return cfg.penalty_mec
    if not counterfactual_violation(snap, snap.deciding_uav):
        return cfg.penalty_local
    for unit in range(snap.num_uavs):
        if unit in (snap.deciding_uav, action):
            continue
        if not counterfactual_violation(snap, unit):
            return cfg.penalty_other_uav
    return cfg.penalty_unavoidable


def compute_reward_parts(action: int, snap: NetworkSnapshot, cfg: MdpConfig):
    """(tier value, predicted violation flag, penalty) for one decision.

    The penalty is resolved from the decision-time snapshot even when the
    violation indicator is later replaced by the realized outcome (deferred
    mode): counterfactual placements can never be realized.
    """
    tier = battery_tier(snap, action, cfg)
    v_hat = counterfactual_violation(snap, action)
    penalty = violation_penalty(snap, action, cfg)
    return tier, v_hat, penalty


def assemble_reward(tier: float, violated: bool, penalty: float) -> float:
    v = 1.0 if violated else 0.0
    return (tier - 1.0) + (1.0 - v) + penalty * v

