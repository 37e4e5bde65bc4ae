"""UAV battery as a function of mission time and CPU-busy time.

Drain is piecewise constant: a fixed floor (hover + antenna + CPU idle) runs
for the whole elapsed mission time, and the CPU adds its busy-minus-idle draw
while a task is in service.  The battery therefore depends only on the
elapsed time and the UAV's busy seconds up to it: the service time of its
finished tasks, which the kernel adds up at each completion, plus the running
task's time so far.  A battery is read only as the fraction of its capacity
left.  MEC servers are grid powered and have no battery;
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


def remaining_battery_fractions(model: BatteryModel, elapsed: float, busy_done, running) -> tuple:
    """Fraction of its capacity each UAV has left after ``elapsed`` mission
    seconds.  ``busy_done`` holds, per UAV, the seconds its CPU spent on
    finished tasks; ``running`` holds per unit the task in service, or None,
    and is read only as far as ``busy_done`` goes.  A running task adds the
    seconds since its start.  The fraction may go negative."""
    idle = model.constant_power_w * elapsed
    capacity, busy_extra = model.battery_capacity_wh, model.busy_extra_power_w
    return tuple([
        (capacity - (idle + busy_extra * (done if task is None
                                          else done + (elapsed - task.start_time))) / 3600.0)
        / capacity
        for done, task in zip(busy_done, running)
    ])


def remaining_battery_fraction(model: BatteryModel, elapsed: float, busy_done: float,
                               task) -> float:
    """``remaining_battery_fractions`` of one UAV, whose running task is
    ``task`` (None when idle)."""
    return remaining_battery_fractions(model, elapsed, (busy_done,), (task,))[0]
