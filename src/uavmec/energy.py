"""Per-UAV battery accounting over busy/idle CPU intervals.

Drain is piecewise constant: a fixed floor (hover + antenna + CPU idle) runs
for the whole elapsed mission time, and the CPU adds its busy-minus-idle draw
while a task is in service.  MEC servers are grid powered and have no ledger;
callers represent them with an infinite battery sentinel.
"""

from __future__ import annotations

import math

from .config import EnergyParams

MEC_BATTERY_SENTINEL = math.inf


class EnergyLedger:
    """Busy-time account for one UAV.

    ``elapsed`` tracks mission time and is advanced by the simulator; queries
    add the running total of closed busy intervals to the still-open one up to
    ``elapsed``.
    """

    def __init__(self, params: EnergyParams):
        self.params = params
        # Derived from ``params`` once; their properties recompute on each read.
        self.constant_power_w = params.constant_power_w
        self.busy_extra_power_w = params.busy_extra_power_w
        self.busy_total: float = 0.0
        self.open_start: float | None = None
        self.elapsed: float = 0.0

    def advance(self, now: float) -> None:
        if now < self.elapsed:
            raise ValueError("elapsed time cannot move backwards")
        self.elapsed = now

    def open_busy(self, start: float) -> None:
        if self.open_start is not None:
            raise ValueError("busy interval already open")
        self.open_start = start

    def close_busy(self, end: float) -> None:
        if self.open_start is None:
            raise ValueError("no busy interval open")
        if end < self.open_start:
            raise ValueError("busy interval cannot end before it starts")
        self.busy_total += end - self.open_start
        self.open_start = None

    def busy_seconds(self) -> float:
        total = self.busy_total
        if self.open_start is not None:
            total += max(0.0, self.elapsed - self.open_start)
        return total


def remaining_battery(ledger: EnergyLedger) -> float:
    """Remaining charge in Wh at the ledger's elapsed time (may go negative)."""
    drained = (
        ledger.constant_power_w * ledger.elapsed
        + ledger.busy_extra_power_w * ledger.busy_seconds()
    ) / 3600.0
    return ledger.params.battery_capacity_wh - drained


def remaining_battery_fraction(ledger: EnergyLedger) -> float:
    return remaining_battery(ledger) / ledger.params.battery_capacity_wh

