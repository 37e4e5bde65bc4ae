"""Baseline offloading policies: round robin, highest energy first, queue-aware HEF."""

from __future__ import annotations

import numpy as np

from .mdp import NetworkSnapshot

# Offloading is only worthwhile when the target holds meaningfully more charge
# than the requester; one percentage point of capacity, as a fraction.
ENERGY_GAP_THRESHOLD = 0.01
QUEUE_TIE_TOLERANCE = 1e-12


class RoundRobinPolicy:
    """Cycles one UAV's decisions through every unit in fixed index order."""

    wants_transitions = False

    def __init__(self, num_units: int, start: int = 0):
        if num_units < 1:
            raise ValueError("round robin needs at least one unit")
        self.num_units = num_units
        self.counter = start % num_units

    def select(self, snap: NetworkSnapshot) -> int:
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

    def __init__(self, rng: np.random.Generator, threshold: float = ENERGY_GAP_THRESHOLD):
        self.rng = rng
        self.threshold = threshold

    def select(self, snap: NetworkSnapshot) -> int:
        n = snap.num_units
        num_mecs = n - snap.num_uavs
        if num_mecs > 0:
            u = self.rng.random()
            if u < num_mecs / n:
                return snap.num_uavs + int(u * n)
        batteries = snap.unit_batteries
        # The highest battery among the UAVs; a tie goes to the lowest index.
        best = max(range(snap.num_uavs), key=batteries.__getitem__)
        if batteries[best] - batteries[snap.deciding_uav] > self.threshold:
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

    def __init__(self, threshold: float = ENERGY_GAP_THRESHOLD, queue_tol: float = QUEUE_TIE_TOLERANCE):
        self.threshold = threshold
        self.queue_tol = queue_tol

    def select(self, snap: NetworkSnapshot) -> int:
        delays = snap.unit_delays
        cutoff = min(delays) + self.queue_tol
        candidates = [u for u in range(snap.num_units) if delays[u] <= cutoff]
        best = max(candidates, key=lambda u: (snap.unit_batteries[u], -u))
        if best == snap.deciding_uav:
            return best
        if snap.unit_batteries[best] - snap.unit_batteries[snap.deciding_uav] > self.threshold:
            return best
        return snap.deciding_uav
