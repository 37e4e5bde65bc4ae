import pytest

from helpers import (
    FIRE,
    GROWTH,
    PEST,
    ScriptedPlacements,
    assert_fifo_work_conserving,
    run_on_table,
    task_table,
)
from uavmec.arrivals import TaskInstance
from uavmec.config import load_config
from uavmec.simulation import (
    TASK_ARRIVAL,
    TASK_START,
    BatteryModel,
    SimulationError,
    check_violation,
    predicted_delays,
    predicted_unit_delay,
    remaining_battery_fraction,
)

IOT = 0.01
UAV, MEC = 0, 1


@pytest.fixture
def one_uav():
    """One UAV (unit 0) and one MEC (unit 1) over a 10 s horizon, default
    task classes: fire 0.1 s on a UAV and 0.05 s on the MEC, pest 0.5 and
    0.25 s, growth 0.1 and 0.05 s."""
    cfg = load_config()
    cfg.sim.num_uavs, cfg.sim.num_mecs = 1, 1
    cfg.sim.episode_duration = 10.0
    return cfg


def scripted(cfg, arrivals, units, table=None):
    """Run ``arrivals`` (uav, type, time) placed on ``units`` in task order;
    return the result and every decision's snapshot."""
    policy = ScriptedPlacements(units)
    table = task_table(cfg, arrivals) if table is None else table
    return run_on_table(cfg, [policy] * cfg.sim.num_uavs, table), policy.seen


def make_record(**overrides):
    """A decided task; ``overrides`` set its identity, placement and service
    fields (its queue wait is ``start_time - enqueue_time``)."""
    base = dict(
        task_id=0,
        type_id=0,
        origin_uav=0,
        emission_time=0.0,
        arrival_time=0.01,
        deadline_abs=0.3,
        chosen_unit=0,
    )
    base.update(overrides)
    return TaskInstance(**base)


def test_idle_unit_has_zero_backlog(one_uav):
    assert predicted_unit_delay(0.0, 0.0, now=5.0) == 0.0
    # The first decision of an episode finds every unit idle: nothing has
    # started before it, and it sees each unit's service time alone.
    r, seen = scripted(one_uav, [(0, FIRE, 5.0)], [UAV])
    assert r.events[0] == (5.0, TASK_ARRIVAL, 0, 0)
    assert seen[0].unit_delays == seen[0].proc_times == (0.1, 0.05)


def test_backlog_counts_committed_service(one_uav):
    # One fire task (0.3 s on the UAV) enqueued at t=1; decisions at t=1,
    # 1.2 and 2 see 0.3, 0.1 and no seconds of committed work ahead of their
    # own 0.3 s.  They place on the MEC, which leaves the UAV's queue alone.
    one_uav.tasks[FIRE].proc_time_uav = 0.3
    r, seen = scripted(one_uav, [(0, FIRE, 1.0), (0, FIRE, 1.0), (0, FIRE, 1.2), (0, FIRE, 2.0)],
                       [UAV, MEC, MEC, MEC])
    assert r.placements[0].finish_time == 1.3
    assert seen[1].unit_delays[UAV] - 0.3 == pytest.approx(0.3)
    assert seen[2].unit_delays[UAV] - 0.3 == pytest.approx(0.1)
    assert seen[3].unit_delays[UAV] == 0.3


def test_second_arrival_waits_for_the_first(one_uav):
    # Two pest tasks (0.5 s each) enqueued back to back: the second is
    # committed to start 0.5 s after its arrival, and a fire task decided at
    # the same instant sees 1.0 s ahead of its own 0.1 s.
    r, seen = scripted(one_uav, [(0, PEST, 2.0), (0, PEST, 2.0), (0, FIRE, 2.0)], [UAV, UAV, MEC])
    assert r.placements[1].start_time == 2.5
    assert seen[2].unit_delays[UAV] - 0.1 == pytest.approx(1.0)


def test_predicted_delay_on_empty_units(one_uav):
    # Fire processing: 0.1 s on a UAV, 0.05 s on the MEC.
    assert predicted_unit_delay(0.0, 0.1, now=0.0) == pytest.approx(0.1)
    assert predicted_unit_delay(0.0, 0.05, now=0.0) == pytest.approx(0.05)
    _, seen = scripted(one_uav, [(0, FIRE, 0.0)], [MEC])
    assert seen[0].unit_delays == pytest.approx((0.1, 0.05))


def test_predicted_delay_with_residual_and_pending_work(one_uav):
    # Unit busy for another 0.08 s with one pending fire task (0.1 s): a new
    # fire task sees 0.08 + 0.1 + 0.1 = 0.28 s.
    one_uav.tasks[PEST].proc_time_uav = 0.18
    _, seen = scripted(one_uav, [(0, PEST, 0.0), (0, FIRE, 0.10), (0, FIRE, 0.10)],
                       [UAV, UAV, MEC])  # the UAV drains at 0.18, then at 0.28
    now = 0.10
    # Independent recomputation: residual in-service + pending + own service.
    residual = 0.18 - now
    oracle = residual + 0.1 + 0.1
    assert seen[2].unit_delays[UAV] == pytest.approx(oracle)
    assert oracle == pytest.approx(0.28)


def test_local_fire_task_within_deadline():
    rec = make_record(enqueue_time=0.01, start_time=0.01, service_time=0.1)
    # 0.01 + 0 + 0 + 0.1 = 0.11 <= 0.3
    assert check_violation(rec, deadline=0.3, iot_delay=IOT, transfer_delay=0.0) is False


def test_offloaded_pest_task_misses_deadline():
    rec = make_record(
        type_id=1,
        deadline_abs=0.8,
        chosen_unit=4,
        enqueue_time=0.025,
        start_time=0.425,
        service_time=0.5,
    )
    # 0.01 + 0.015 + 0.4 + 0.5 = 0.925 > 0.8
    assert check_violation(rec, deadline=0.8, iot_delay=IOT, transfer_delay=0.015) is True


def test_growth_task_with_loose_deadline():
    rec = make_record(
        type_id=2,
        deadline_abs=5.0,
        chosen_unit=1,
        enqueue_time=0.03,
        start_time=1.53,
        service_time=2.0,
    )
    # 0.01 + 0.02 + 1.5 + 2.0 = 3.53 <= 5.0
    assert check_violation(rec, deadline=5.0, iot_delay=IOT, transfer_delay=0.02) is False


def test_exactly_meeting_the_deadline_is_not_a_violation():
    # Power-of-two components keep the sum exact: 0.25 + ((0.5 - 0.25) + 0.5) = 1.0.
    rec = make_record(enqueue_time=0.25, start_time=0.5, service_time=0.5)
    assert check_violation(rec, deadline=1.0, iot_delay=0.25, transfer_delay=0.0) is False
    assert check_violation(rec, deadline=0.9999, iot_delay=0.25, transfer_delay=0.0) is True


def test_unfinished_task_cannot_be_judged():
    rec = make_record(enqueue_time=None, start_time=None, service_time=None)
    with pytest.raises(ValueError):
        check_violation(rec, deadline=0.3, iot_delay=IOT, transfer_delay=0.0)
    queued = make_record(enqueue_time=0.01, start_time=None, service_time=0.1)
    with pytest.raises(ValueError):
        check_violation(queued, deadline=0.3, iot_delay=IOT, transfer_delay=0.0)
    half = make_record(enqueue_time=0.01, start_time=0.11, service_time=None)
    with pytest.raises(ValueError):
        check_violation(half, deadline=0.3, iot_delay=IOT, transfer_delay=0.0)


def test_enqueue_stamps_the_task(one_uav):
    # A fire task enqueued at t=0.5 behind a pest task that runs until 0.75,
    # with the horizon at 0.625: stamped at its enqueue, never started.
    one_uav.sim.episode_duration = 0.625
    r, _ = scripted(one_uav, [(0, PEST, 0.25), (0, FIRE, 0.5)], [UAV, UAV])
    task = r.placements[1]
    assert (task.enqueue_time, task.service_time) == (0.5, 0.1)
    assert (task.start_time, task.finish_time) == (None, None)
    assert not task.completed
    assert r.tasks_in_queue == 1


def test_duplicate_enqueue_rejected(one_uav):
    # The same task twice in the table, both times kept local: the second
    # enqueue is refused and the first one's stamps stand.
    [task] = task_table(one_uav, [(0, FIRE, 0.5)])
    with pytest.raises(SimulationError, match="task 0 enqueued twice"):
        scripted(one_uav, None, [UAV, UAV], table=[task, task])
    assert (task.enqueue_time, task.start_time, task.service_time) == (0.5, 0.5, 0.1)


def test_enqueue_at_a_second_unit_rejected(one_uav):
    # Kept local at t=0.5, then forwarded to the MEC: its arrival there, one
    # hop later, is refused, and the task keeps the UAV's stamps.
    [task] = task_table(one_uav, [(0, FIRE, 0.5)])
    with pytest.raises(SimulationError, match="unit 1"):
        scripted(one_uav, None, [UAV, MEC], table=[task, task])
    assert (task.enqueue_time, task.start_time, task.service_time) == (0.5, 0.5, 0.1)


def test_fifo_pop_order(one_uav):
    # Three 2.5 s tasks enqueued at t=0, 1 and 2 start in enqueue order, each
    # when the one before it finishes.
    one_uav.tasks[FIRE].proc_time_uav = 2.5
    r, _ = scripted(one_uav, [(0, FIRE, float(i)) for i in range(3)], [UAV] * 3)
    starts = [(task_id, time) for time, kind, task_id, _ in r.events if kind == TASK_START]
    assert starts == [(0, 0.0), (1, 2.5), (2, 5.0)]
    assert_fifo_work_conserving(r)


def test_free_at_never_runs_backwards(one_uav):
    # An arrival after the queue drained restarts from "now", not from the
    # last drain time: a 0.2 s task at t=0, a 0.3 s one at t=5, and a growth
    # task decided at t=5 sees 0.3 s ahead of its own 0.1 s.
    one_uav.tasks[FIRE].proc_time_uav = 0.2
    one_uav.tasks[PEST].proc_time_uav = 0.3
    r, seen = scripted(one_uav, [(0, FIRE, 0.0), (0, PEST, 5.0), (0, GROWTH, 5.0)],
                       [UAV, UAV, MEC])
    assert r.placements[1].start_time == 5.0
    assert seen[2].unit_delays[UAV] == pytest.approx(5.3 - 5.0 + 0.1)


def test_busy_seconds_counts_the_running_task_and_sums_finished_ones(one_uav):
    # Two tasks served back to back on the UAV: the first runs 1.0-1.25, the
    # second 1.25-1.75.  Decisions placed on the MEC read the UAV's battery
    # with the busy seconds below; completions at a decision's instant run
    # before it.
    one_uav.tasks[FIRE].proc_time_uav = 0.25
    one_uav.tasks[PEST].proc_time_uav = 0.5
    reads = [(1.0, 0.0), (1.125, 0.125), (1.25, 0.25), (1.5, 0.25 + 0.25), (1.75, 0.75),
             (9.0, 0.75)]  # idle time after the last completion is not busy time
    r, seen = scripted(one_uav, [(0, FIRE, 1.0), (0, PEST, 1.0)]
                       + [(0, GROWTH, now) for now, _ in reads], [UAV, UAV] + [MEC] * len(reads))
    model = BatteryModel(one_uav.energy)
    for snap, (now, busy) in zip(seen[2:], reads):
        assert snap.unit_batteries[UAV] == remaining_battery_fraction(model, now, busy, None)
    assert r.battery_fraction == [remaining_battery_fraction(model, 10.0, 0.75, None)]


def test_predicted_delays_cover_every_unit_at_once():
    # An idle unit, one drained in the past (at 0.75) and one busy until 1.5:
    # at t=1.0 each predicts its backlog (0, 0, 0.5) plus the candidate's
    # service.
    free_at = [0.0, 0.75, 1.5]
    delays = predicted_delays(free_at, (0.25, 0.125, 0.5), now=1.0)
    assert delays == (0.25, 0.125, 0.5 + 0.5)
    assert [predicted_unit_delay(f, s, now=1.0) for f, s in
            zip(free_at, (0.25, 0.125, 0.5))] == list(delays)
