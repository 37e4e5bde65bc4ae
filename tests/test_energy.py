import math

import numpy as np
import pytest

from uavmec.config import EnergyParams
from uavmec.energy import (
    MEC_BATTERY_SENTINEL,
    EnergyLedger,
    remaining_battery,
    remaining_battery_fraction,
)


def make_ledger(elapsed=0.0, busy=()):
    ledger = EnergyLedger(EnergyParams())
    for start, end in busy:
        ledger.open_busy(start)
        ledger.close_busy(end)
    ledger.advance(elapsed)
    return ledger


def test_fresh_ledger_holds_full_capacity():
    assert remaining_battery(make_ledger()) == 570.0
    assert remaining_battery_fraction(make_ledger()) == 1.0


def test_idle_drain_worked_example():
    # 360 s of pure hover/antenna/idle drain: 570 - (211+17+4320) * 0.1 h.
    expected = 570.0 - (211 + 17 + 4320) * (360.0 / 3600.0)
    assert expected == pytest.approx(115.2, rel=1e-12)
    assert remaining_battery(make_ledger(elapsed=360.0)) == pytest.approx(115.2, rel=1e-12)


def test_busy_surcharge_worked_example():
    # Same mission with 36 s of CPU-busy time layered on top:
    # 115.2 - (12960-4320) * 0.01 h.
    expected = 115.2 - (12960 - 4320) * (36.0 / 3600.0)
    assert expected == pytest.approx(28.8, rel=1e-12)
    got = remaining_battery(make_ledger(elapsed=360.0, busy=[(100.0, 136.0)]))
    assert got == pytest.approx(28.8, rel=1e-12)


def test_fraction_is_plain_ratio():
    ledger = make_ledger(elapsed=360.0, busy=[(100.0, 136.0)])
    assert remaining_battery_fraction(ledger) == pytest.approx(28.8 / 570.0, rel=1e-12)


def test_depleted_battery_reports_negative():
    ledger = make_ledger(elapsed=3600.0)  # one hour of the inflated idle drain
    assert remaining_battery(ledger) < 0
    assert remaining_battery_fraction(ledger) < 0


def test_busy_interval_logged_after_the_fact_charges_only_its_surcharge():
    # An interval logged once elapsed time has passed it leaves the elapsed
    # drain alone and adds its CPU surcharge: 115.2 - 8640 * 0.01 h.
    ledger = make_ledger(elapsed=360.0)
    assert remaining_battery(ledger) == pytest.approx(115.2, rel=1e-12)
    ledger.open_busy(100.0)
    ledger.close_busy(136.0)
    assert ledger.elapsed == 360.0
    assert remaining_battery(ledger) == pytest.approx(28.8, rel=1e-12)


def test_mec_sentinel_is_positive_infinity():
    assert MEC_BATTERY_SENTINEL == math.inf


def test_open_interval_counts_up_to_elapsed():
    ledger = EnergyLedger(EnergyParams())
    ledger.open_busy(10.0)
    ledger.advance(25.0)
    assert ledger.busy_seconds() == 15.0
    ledger.close_busy(30.0)
    ledger.advance(30.0)
    assert ledger.busy_seconds() == 20.0


def test_ledger_guards():
    ledger = EnergyLedger(EnergyParams())
    ledger.advance(5.0)
    with pytest.raises(ValueError):
        ledger.advance(4.0)
    ledger.open_busy(5.0)
    with pytest.raises(ValueError):
        ledger.open_busy(6.0)
    with pytest.raises(ValueError):
        ledger.close_busy(4.0)
    ledger.close_busy(6.0)
    with pytest.raises(ValueError):
        ledger.close_busy(7.0)


def test_monotone_in_elapsed_and_busy_time():
    rng = np.random.default_rng(0)
    prev = remaining_battery(make_ledger())
    elapsed = 0.0
    ledger = EnergyLedger(EnergyParams())
    for _ in range(50):
        elapsed += float(rng.uniform(0.1, 5.0))
        if rng.random() < 0.5:
            start = ledger.elapsed
            ledger.advance(elapsed)
            ledger.open_busy(start)
            ledger.close_busy(elapsed)
        else:
            ledger.advance(elapsed)
        cur = remaining_battery(ledger)
        assert cur <= prev
        prev = cur


def test_layout_invariance_of_equal_busy_totals():
    # Same elapsed, same total busy seconds, different interval layouts.
    one = make_ledger(elapsed=500.0, busy=[(0.0, 42.0)])
    many = make_ledger(elapsed=500.0, busy=[(i * 50.0, i * 50.0 + 4.2) for i in range(10)])
    assert remaining_battery(one) == pytest.approx(remaining_battery(many), rel=1e-12)


def test_millisecond_integration_oracle():
    # Busy intervals aligned to the 1 ms grid; summing instantaneous power
    # over 1 ms steps integrates the piecewise-constant drain exactly.
    params = EnergyParams()
    intervals = [(0.125, 2.5), (3.0, 3.75), (7.25, 11.0)]
    elapsed = 20.0
    ledger = EnergyLedger(params)
    for s, e in intervals:
        ledger.open_busy(s)
        ledger.close_busy(e)
    ledger.advance(elapsed)

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
    got = remaining_battery(ledger)
    assert abs(got - oracle) / abs(oracle) < 1e-9
