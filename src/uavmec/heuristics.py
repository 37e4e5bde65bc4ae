"""Baseline offloading policies: round robin, highest energy first, queue-aware HEF."""

from __future__ import annotations

import math

import numpy as np

from .mdp import NetworkSnapshot

# Offloading is only worthwhile when the target holds meaningfully more charge
# than the requester; one percentage point of capacity, as a fraction.
ENERGY_GAP_THRESHOLD = 0.01
QUEUE_TIE_TOLERANCE = 1e-12


class RoundRobinPolicy:
    """Cycles one UAV's decisions through every unit in fixed index order.

    It reads nothing of the network, so the kernel builds it no snapshot and
    ``select`` is passed None.
    """

    wants_transitions = False
    wants_snapshot = False

    def __init__(self, num_units: int):
        if num_units < 1:
            raise ValueError("round robin needs at least one unit")
        self.num_units = num_units
        self.counter = 0

    def select(self, snap: NetworkSnapshot | None) -> int:
        choice = self.counter
        self.counter = (self.counter + 1) % self.num_units
        return choice


class HefPolicy:
    """Highest energy first.

    Each MEC wins a 1/J+ roll outright; otherwise the task goes to the UAV
    with the most battery if that beats the deciding UAV's level by more than
    the gap threshold, else it stays local.  The roll uses a single uniform
    draw mapped over unit slots so one decision consumes one stream value.
    """

    wants_transitions = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def select(self, snap: NetworkSnapshot) -> int:
        n = snap.num_units
        num_mecs = n - snap.num_uavs
        if num_mecs > 0:
            u = self.rng.random()
            if u < num_mecs / n:
                return snap.num_uavs + int(u * n)
        batteries = snap.unit_batteries
        # The highest battery among the UAVs; a tie goes to the lowest index.
        best = batteries.index(max(batteries[:snap.num_uavs]))
        if batteries[best] - batteries[snap.deciding_uav] > ENERGY_GAP_THRESHOLD:
            return best
        return snap.deciding_uav


class QhefPolicy:
    """Queue-aware HEF.

    Among the units attaining the minimum predicted delay (within a float
    tolerance), take the one with the most battery; the MEC's infinite
    sentinel wins any tie it is part of.  The winner is only used if it beats
    the deciding UAV's battery by more than the gap threshold, otherwise the
    task stays local.
    """

    wants_transitions = False

    def select(self, snap: NetworkSnapshot) -> int:
        delays, batteries = snap.unit_delays, snap.unit_batteries
        cutoff = min(delays) + QUEUE_TIE_TOLERANCE
        # One pass in index order; the strict test keeps the lowest index
        # among equal batteries.
        best, top, u = -1, -math.inf, 0
        for delay in delays:
            if delay <= cutoff:
                charge = batteries[u]
                if charge > top:
                    best, top = u, charge
            u += 1
        if best == snap.deciding_uav:
            return best
        if top - batteries[snap.deciding_uav] > ENERGY_GAP_THRESHOLD:
            return best
        return snap.deciding_uav
