import math

import numpy as np
import pytest

from uavmec.arrivals import TaskInstance
from uavmec.config import EnergyParams
from uavmec.energy import (
    MEC_BATTERY_SENTINEL,
    BatteryModel,
    remaining_battery,
    remaining_battery_fraction,
)
from uavmec.queues import UnitQueue

MODEL = BatteryModel(EnergyParams())


def busy_of(intervals):
    """Total CPU-busy seconds of closed (start, end) service intervals."""
    return sum(end - start for start, end in intervals)


def test_fresh_ledger_holds_full_capacity():
    assert remaining_battery(MODEL, 0.0, 0.0) == 570.0
    assert remaining_battery_fraction(MODEL, 0.0, 0.0) == 1.0


def test_idle_drain_worked_example():
    # 360 s of pure hover/antenna/idle drain: 570 - (211+17+4320) * 0.1 h.
    expected = 570.0 - (211 + 17 + 4320) * (360.0 / 3600.0)
    assert expected == pytest.approx(115.2, rel=1e-12)
    assert remaining_battery(MODEL, 360.0, 0.0) == pytest.approx(115.2, rel=1e-12)


def test_busy_surcharge_worked_example():
    # Same mission with 36 s of CPU-busy time layered on top:
    # 115.2 - (12960-4320) * 0.01 h.
    expected = 115.2 - (12960 - 4320) * (36.0 / 3600.0)
    assert expected == pytest.approx(28.8, rel=1e-12)
    got = remaining_battery(MODEL, 360.0, busy_of([(100.0, 136.0)]))
    assert got == pytest.approx(28.8, rel=1e-12)


def test_fraction_is_plain_ratio():
    got = remaining_battery_fraction(MODEL, 360.0, busy_of([(100.0, 136.0)]))
    assert got == pytest.approx(28.8 / 570.0, rel=1e-12)


def test_depleted_battery_reports_negative():
    # One hour of the inflated idle drain.
    assert remaining_battery(MODEL, 3600.0, 0.0) < 0
    assert remaining_battery_fraction(MODEL, 3600.0, 0.0) < 0


def test_busy_interval_logged_after_the_fact_charges_only_its_surcharge():
    # Busy time counted once elapsed time has passed it leaves the elapsed
    # drain alone and adds its CPU surcharge: 115.2 - 8640 * 0.01 h.
    q = UnitQueue(unit_id=0)
    assert remaining_battery(MODEL, 360.0, q.busy_seconds(360.0)) == pytest.approx(115.2, rel=1e-12)
    q.busy_total += 136.0 - 100.0
    assert remaining_battery(MODEL, 360.0, q.busy_seconds(360.0)) == pytest.approx(28.8, rel=1e-12)


def test_mec_sentinel_is_positive_infinity():
    assert MEC_BATTERY_SENTINEL == math.inf


def test_open_interval_counts_up_to_elapsed():
    # A task in service since t=10 is charged up to the read at t=25 and no
    # further: 570 - (4548 * 25 + 8640 * 15) / 3600.
    q = UnitQueue(unit_id=0)
    task = TaskInstance(task_id=0, type_id=0, origin_uav=0, emission_time=10.0,
                        arrival_time=10.0, deadline_abs=40.0)
    q.in_service, task.start_time = task, 10.0
    assert q.busy_seconds(25.0) == 15.0
    expected = 570.0 - (4548.0 * 25.0 + 8640.0 * 15.0) / 3600.0
    assert remaining_battery(MODEL, 25.0, q.busy_seconds(25.0)) == pytest.approx(expected, rel=1e-12)
    q.in_service = None
    q.busy_total += 30.0 - task.start_time
    assert q.busy_seconds(30.0) == 20.0
    assert q.busy_seconds(45.0) == 20.0


def test_monotone_in_elapsed_and_busy_time():
    rng = np.random.default_rng(0)
    prev = remaining_battery(MODEL, 0.0, 0.0)
    elapsed = busy = 0.0
    for _ in range(50):
        step = float(rng.uniform(0.1, 5.0))
        elapsed += step
        if rng.random() < 0.5:
            busy += step
        cur = remaining_battery(MODEL, elapsed, busy)
        assert cur <= prev
        prev = cur


def test_layout_invariance_of_equal_busy_totals():
    # Same elapsed, same total busy seconds, different interval layouts.
    one = busy_of([(0.0, 42.0)])
    many = busy_of([(i * 50.0, i * 50.0 + 4.2) for i in range(10)])
    assert remaining_battery(MODEL, 500.0, one) == pytest.approx(
        remaining_battery(MODEL, 500.0, many), rel=1e-12
    )


def test_millisecond_integration_oracle():
    # Busy intervals aligned to the 1 ms grid; summing instantaneous power
    # over 1 ms steps integrates the piecewise-constant drain exactly.
    params = EnergyParams()
    intervals = [(0.125, 2.5), (3.0, 3.75), (7.25, 11.0)]
    elapsed = 20.0

    dt = 0.001
    steps = int(round(elapsed / dt))
    drained = 0.0
    for i in range(steps):
        t = i * dt
        power = params.constant_power_w
        if any(s <= t < e for s, e in intervals):
            power += params.busy_extra_power_w
        drained += power * dt
    oracle = params.battery_capacity_wh - drained / 3600.0
    got = remaining_battery(BatteryModel(params), elapsed, busy_of(intervals))
    assert abs(got - oracle) / abs(oracle) < 1e-9
