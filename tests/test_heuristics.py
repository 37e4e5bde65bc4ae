import math

import numpy as np
import pytest

from uavmec.heuristics import ENERGY_GAP_THRESHOLD, HefPolicy, QhefPolicy, RoundRobinPolicy
from uavmec.mdp import NetworkSnapshot, type_code

FIRE, PEST, GROWTH = 0, 1, 2
PROC_UAV = {FIRE: 0.1, PEST: 0.5, GROWTH: 0.1}
PROC_MEC = {FIRE: 0.05, PEST: 0.25, GROWTH: 0.05}
DEADLINE = {FIRE: 0.3, PEST: 0.8, GROWTH: 5.0}


def make_snapshot(
    task_type=FIRE,
    deciding_uav=0,
    backlogs=(0.0, 0.0, 0.0, 0.0, 0.0),
    batteries=(1.0, 1.0, 1.0, 1.0),
    num_uavs=4,
):
    num_units = len(backlogs)
    proc = [
        PROC_MEC[task_type] if u >= num_uavs else PROC_UAV[task_type]
        for u in range(num_units)
    ]
    delays = tuple(b + p for b, p in zip(backlogs, proc))
    return NetworkSnapshot(
        deciding_uav=deciding_uav,
        task_type=task_type,
        type_code=type_code(task_type, 3),
        unit_delays=delays,
        unit_batteries=tuple(batteries) + (math.inf,) * (num_units - num_uavs),
        transfer_delays=tuple(0.0 if u == deciding_uav else 0.015 for u in range(num_units)),
        proc_times=tuple(proc),
        iot_delay=0.01,
        deadline=DEADLINE[task_type],
        busy_frac_per_sec=0.0042105,
        num_uavs=num_uavs,
    )


class FixedRng:
    """Stub stream that replays scripted uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_round_robin_cycles_all_units():
    policy = RoundRobinPolicy(num_units=5)
    snap = make_snapshot()
    picks = [policy.select(snap) for _ in range(12)]
    assert picks == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]


def test_round_robin_start_offset_wraps():
    policy = RoundRobinPolicy(num_units=5, start=3)
    snap = make_snapshot()
    assert [policy.select(snap) for _ in range(4)] == [3, 4, 0, 1]
    assert RoundRobinPolicy(num_units=5, start=7).select(snap) == 2


def test_round_robin_rejects_empty_fleet():
    with pytest.raises(ValueError):
        RoundRobinPolicy(num_units=0)


def test_hef_stays_local_on_equal_batteries():
    policy = HefPolicy(rng=FixedRng([0.9]))  # roll misses the MEC band
    snap = make_snapshot(deciding_uav=2)
    assert policy.select(snap) == 2


def test_hef_small_gap_not_worth_offloading():
    # 0.82 vs 0.80 is a 2 point gap: above the 1 point threshold, offload.
    policy = HefPolicy(rng=FixedRng([0.9, 0.9]))
    snap = make_snapshot(deciding_uav=0, batteries=(0.80, 0.82, 0.79, 0.78))
    assert policy.select(snap) == 1
    # 0.805 vs 0.80 is half a point: stay local.
    snap = make_snapshot(deciding_uav=0, batteries=(0.80, 0.805, 0.79, 0.78))
    assert policy.select(snap) == 0


def test_hef_tie_for_highest_battery_goes_to_lower_index():
    # UAVs 1 and 3 tie at the top, both well above the deciding UAV 2.
    policy = HefPolicy(rng=FixedRng([0.9, 0.9]))
    snap = make_snapshot(deciding_uav=2, batteries=(0.5, 0.9, 0.6, 0.9))
    assert policy.select(snap) == 1
    snap = make_snapshot(deciding_uav=0, batteries=(0.5, 0.7, 0.9, 0.9))
    assert policy.select(snap) == 2


def test_hef_forced_mec_roll():
    # 5 units, 1 MEC: draws below 1/5 select the MEC slot.
    policy = HefPolicy(rng=FixedRng([0.19]))
    snap = make_snapshot(batteries=(0.1, 0.2, 0.3, 0.4))
    assert policy.select(snap) == 4


def test_hef_mec_frequency_matches_roll_band():
    rng = np.random.default_rng(42)
    policy = HefPolicy(rng=rng)
    snap = make_snapshot()
    n = 100_000
    mec = sum(policy.select(snap) == 4 for _ in range(n))
    assert mec / n == pytest.approx(1 / 5, abs=0.005)


def test_hef_one_draw_per_decision():
    policy = FixedRng([0.5])
    hef = HefPolicy(rng=policy)
    hef.select(make_snapshot())
    assert policy.values == []  # exactly one value consumed


def test_qhef_empty_queues_prefer_mec():
    # All queues empty: the MEC attains the minimum predicted delay (faster
    # processor) and its infinite battery wins the gap check.
    policy = QhefPolicy()
    assert policy.select(make_snapshot()) == 4


def test_qhef_equal_delays_stay_local():
    # Backlogs tuned so every unit predicts the same delay: candidates tie,
    # the MEC battery wins, and infinity beats any threshold, so the MEC is
    # still chosen; but when the MEC is slower the local unit wins alone.
    snap = make_snapshot(backlogs=(0.0, 0.0, 0.0, 0.0, 0.05))
    assert QhefPolicy().select(snap) == 4  # ties at 0.1 include the MEC
    snap = make_snapshot(backlogs=(0.0, 0.0, 0.0, 0.0, 0.2))
    assert QhefPolicy().select(snap) == 0  # 0.1 vs 0.25: locals tie, stay local


def test_qhef_local_alone_at_minimum_stays_local():
    snap = make_snapshot(
        deciding_uav=1,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.9, 0.2, 0.9, 0.9),
    )
    assert QhefPolicy().select(snap) == 1


def test_qhef_gap_threshold_blocks_marginal_offload():
    # Remote UAV at the minimum delay but only half a point richer: stay local.
    snap = make_snapshot(
        deciding_uav=0,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.800, 0.805, 0.79, 0.78),
    )
    assert QhefPolicy().select(snap) == 0
    snap = make_snapshot(
        deciding_uav=0,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.800, 0.82, 0.79, 0.78),
    )
    assert QhefPolicy().select(snap) == 1


def test_qhef_never_offloads_to_poorer_uav():
    rng = np.random.default_rng(3)
    policy = QhefPolicy()
    for _ in range(500):
        snap = make_snapshot(
            task_type=int(rng.integers(0, 3)),
            deciding_uav=int(rng.integers(0, 4)),
            backlogs=tuple(float(rng.uniform(0, 2)) for _ in range(5)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        choice = policy.select(snap)
        assert 0 <= choice < 5
        if choice < 4 and choice != snap.deciding_uav:
            gap = snap.unit_batteries[choice] - snap.unit_batteries[snap.deciding_uav]
            assert gap > ENERGY_GAP_THRESHOLD


def test_hef_choices_are_always_valid_units():
    rng = np.random.default_rng(4)
    policy = HefPolicy(rng=np.random.default_rng(5))
    for _ in range(500):
        snap = make_snapshot(
            deciding_uav=int(rng.integers(0, 4)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        assert 0 <= policy.select(snap) < 5
