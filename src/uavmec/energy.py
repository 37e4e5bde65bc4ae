"""UAV battery as a function of mission time and CPU-busy time.

Drain is piecewise constant: a fixed floor (hover + antenna + CPU idle) runs
for the whole elapsed mission time, and the CPU adds its busy-minus-idle draw
while a task is in service.  The battery therefore depends only on the
elapsed time and the UAV's busy seconds up to it, which its service queue
keeps (``queues.busy_seconds``).  A battery is read only as the fraction of
its capacity left.  MEC servers are grid powered and have no battery;
callers represent them with an infinite battery sentinel.
"""

from __future__ import annotations

import math

from .config import EnergyParams

MEC_BATTERY_SENTINEL = math.inf


class BatteryModel:
    """The constants a battery read needs, derived from ``EnergyParams`` once
    (its properties recompute on each read).  The params are fleet-wide, so
    one model serves every UAV."""

    def __init__(self, params: EnergyParams):
        self.battery_capacity_wh = params.battery_capacity_wh
        self.constant_power_w = params.constant_power_w
        self.busy_extra_power_w = params.busy_extra_power_w


def remaining_battery_fractions(model: BatteryModel, elapsed: float, busy_seconds) -> tuple:
    """Fraction of its capacity each UAV has left after ``elapsed`` mission
    seconds, given the seconds of them its CPU was busy.  The fraction may go
    negative."""
    idle = model.constant_power_w * elapsed
    capacity, busy_extra = model.battery_capacity_wh, model.busy_extra_power_w
    return tuple([
        (capacity - (idle + busy_extra * busy) / 3600.0) / capacity for busy in busy_seconds
    ])


def remaining_battery_fraction(model: BatteryModel, elapsed: float, busy_seconds: float) -> float:
    return remaining_battery_fractions(model, elapsed, (busy_seconds,))[0]
