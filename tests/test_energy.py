import math

import numpy as np
import pytest

from uavmec.arrivals import TaskInstance
from uavmec.config import EnergyParams
from uavmec.simulation import (
    MEC_BATTERY_SENTINEL,
    BatteryModel,
    remaining_battery_fraction,
    remaining_battery_fractions,
)

MODEL = BatteryModel(EnergyParams())
CAPACITY_WH = 570.0


def busy_of(intervals):
    """Total CPU-busy seconds of closed (start, end) service intervals."""
    return sum(end - start for start, end in intervals)


def test_fresh_ledger_holds_full_capacity():
    assert MODEL.battery_capacity_wh == CAPACITY_WH
    assert remaining_battery_fraction(MODEL, 0.0, 0.0, None) == 1.0


def test_idle_drain_worked_example():
    # 360 s of pure hover/antenna/idle drain: 570 - (211+17+4320) * 0.1 h.
    expected = 570.0 - (211 + 17 + 4320) * (360.0 / 3600.0)
    assert expected == pytest.approx(115.2, rel=1e-12)
    assert remaining_battery_fraction(MODEL, 360.0, 0.0, None) == pytest.approx(
        115.2 / CAPACITY_WH, rel=1e-12
    )


def test_busy_surcharge_worked_example():
    # Same mission with 36 s of CPU-busy time layered on top:
    # 115.2 - (12960-4320) * 0.01 h.
    expected = 115.2 - (12960 - 4320) * (36.0 / 3600.0)
    assert expected == pytest.approx(28.8, rel=1e-12)
    got = remaining_battery_fraction(MODEL, 360.0, busy_of([(100.0, 136.0)]), None)
    assert got == pytest.approx(28.8 / CAPACITY_WH, rel=1e-12)


def test_fraction_is_plain_ratio():
    got = remaining_battery_fraction(MODEL, 360.0, busy_of([(100.0, 136.0)]), None)
    assert got == pytest.approx(28.8 / 570.0, rel=1e-12)


def test_depleted_battery_reports_negative():
    # One hour of the inflated idle drain.
    assert remaining_battery_fraction(MODEL, 3600.0, 0.0, None) < 0


def test_busy_interval_logged_after_the_fact_charges_only_its_surcharge():
    # Busy time counted once elapsed time has passed it leaves the elapsed
    # drain alone and adds its CPU surcharge: 115.2 - 8640 * 0.01 h.
    busy_done, running = [0.0], [None]
    [got] = remaining_battery_fractions(MODEL, 360.0, busy_done, running)
    assert got == pytest.approx(115.2 / CAPACITY_WH, rel=1e-12)
    busy_done[0] += 136.0 - 100.0
    [got] = remaining_battery_fractions(MODEL, 360.0, busy_done, running)
    assert got == pytest.approx(28.8 / CAPACITY_WH, rel=1e-12)


def test_mec_sentinel_is_positive_infinity():
    assert MEC_BATTERY_SENTINEL == math.inf


def test_open_interval_counts_up_to_elapsed():
    # A task in service since t=10 is charged up to the read at t=25 and no
    # further: 570 - (4548 * 25 + 8640 * 15) / 3600.
    task = TaskInstance(task_id=0, type_id=0, origin_uav=0, emission_time=10.0,
                        arrival_time=10.0, deadline_abs=40.0)
    task.start_time = 10.0
    [got] = remaining_battery_fractions(MODEL, 25.0, [0.0], [task])
    assert got == remaining_battery_fraction(MODEL, 25.0, 0.0, task)
    assert got == remaining_battery_fraction(MODEL, 25.0, 15.0, None)
    expected = 570.0 - (4548.0 * 25.0 + 8640.0 * 15.0) / 3600.0
    assert got == pytest.approx(expected / CAPACITY_WH, rel=1e-12)
    # Completed at t=30: its 20 s are finished busy time, charged the same at
    # every later read.
    busy_done = [30.0 - task.start_time]
    for elapsed in (30.0, 45.0):
        [got] = remaining_battery_fractions(MODEL, elapsed, busy_done, [None])
        assert got == remaining_battery_fraction(MODEL, elapsed, 20.0, None)


def test_monotone_in_elapsed_and_busy_time():
    rng = np.random.default_rng(0)
    prev = remaining_battery_fraction(MODEL, 0.0, 0.0, None)
    elapsed = busy = 0.0
    for _ in range(50):
        step = float(rng.uniform(0.1, 5.0))
        elapsed += step
        if rng.random() < 0.5:
            busy += step
        cur = remaining_battery_fraction(MODEL, elapsed, busy, None)
        assert cur <= prev
        prev = cur


def test_layout_invariance_of_equal_busy_totals():
    # Same elapsed, same total busy seconds, different interval layouts.
    one = busy_of([(0.0, 42.0)])
    many = busy_of([(i * 50.0, i * 50.0 + 4.2) for i in range(10)])
    assert remaining_battery_fraction(MODEL, 500.0, one, None) == pytest.approx(
        remaining_battery_fraction(MODEL, 500.0, many, None), rel=1e-12
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
        power = params.hover_power_w + params.antenna_power_w + params.cpu_idle_power_w
        if any(s <= t < e for s, e in intervals):
            power += params.cpu_busy_power_w - params.cpu_idle_power_w
        power *= params.power_scale
        drained += power * dt
    oracle = params.battery_capacity_wh - drained / 3600.0
    got = remaining_battery_fraction(BatteryModel(params), elapsed, busy_of(intervals), None)
    oracle /= params.battery_capacity_wh
    assert abs(got - oracle) / abs(oracle) < 1e-9


def test_fleet_read_matches_one_read_per_uav():
    # Four UAVs, the last one running a task since t=300, and a MEC whose
    # entry in the per-unit ``running`` list is not read.
    busy = [0.0, 12.5, 36.0, 299.0]
    task = TaskInstance(task_id=0, type_id=0, origin_uav=3, emission_time=300.0,
                        arrival_time=300.0, deadline_abs=400.0)
    task.start_time = 300.0
    running = [None, None, None, task, task]
    fractions = remaining_battery_fractions(MODEL, 360.0, busy, running)
    assert isinstance(fractions, tuple)
    assert fractions == tuple(
        remaining_battery_fraction(MODEL, 360.0, b, t) for b, t in zip(busy, running))
    for got, b in zip(fractions, [0.0, 12.5, 36.0, 359.0]):
        assert got == (570.0 - (4548.0 * 360.0 + 8640.0 * b) / 3600.0) / 570.0
