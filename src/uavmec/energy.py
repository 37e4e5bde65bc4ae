"""UAV battery as a function of mission time and CPU-busy time.

Drain is piecewise constant: a fixed floor (hover + antenna + CPU idle) runs
for the whole elapsed mission time, and the CPU adds its busy-minus-idle draw
while a task is in service.  The battery therefore depends only on the
elapsed time and the UAV's busy seconds up to it, which its service queue
keeps (``UnitQueue.busy_seconds``).  MEC servers are grid powered and have
no battery; callers represent them with an infinite battery sentinel.
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


def remaining_battery(model: BatteryModel, elapsed: float, busy_seconds: float) -> float:
    """Remaining charge in Wh after ``elapsed`` mission seconds, ``busy_seconds``
    of them CPU-busy (may go negative)."""
    drained = (model.constant_power_w * elapsed + model.busy_extra_power_w * busy_seconds) / 3600.0
    return model.battery_capacity_wh - drained


def remaining_battery_fraction(model: BatteryModel, elapsed: float, busy_seconds: float) -> float:
    return remaining_battery(model, elapsed, busy_seconds) / model.battery_capacity_wh
