import pytest

from uavmec.arrivals import TaskInstance
from uavmec.queues import UnitQueue, check_violation, predicted_unit_delay

IOT = 0.01


def make_task(task_id=0, type_id=0, uav=0, emission=0.0, iot=0.01, deadline=0.3):
    return TaskInstance(
        task_id=task_id,
        type_id=type_id,
        origin_uav=uav,
        emission_time=emission,
        arrival_time=emission + iot,
        deadline_abs=emission + deadline,
    )


def make_record(**overrides):
    """A decided task; ``overrides`` set its identity and placement fields."""
    base = dict(
        task_id=0,
        type_id=0,
        origin_uav=0,
        emission_time=0.0,
        arrival_time=0.01,
        deadline_abs=0.3,
        chosen_unit=0,
        transfer_delay=0.0,
        predicted_delay=0.0,
    )
    base.update(overrides)
    return TaskInstance(**base)


def test_idle_unit_has_zero_backlog():
    q = UnitQueue(unit_id=0)
    assert q.backlog(now=5.0) == 0.0
    assert q.in_service is None


def test_backlog_counts_committed_service():
    # One fire task (0.3 s on a UAV) enqueued at t=1; a decision at t=1
    # sees 0.3 s of committed work ahead.
    q = UnitQueue(unit_id=0)
    q.enqueue(make_task(task_id=1), now=1.0, service_time=0.3)
    assert q.free_at == 1.3
    assert q.backlog(now=1.0) == pytest.approx(0.3)
    assert q.backlog(now=1.2) == pytest.approx(0.1)
    assert q.backlog(now=2.0) == 0.0


def test_second_arrival_waits_for_the_first():
    # Two pest tasks (0.5 s each) enqueued back to back: the second is
    # committed to start 0.5 s after its arrival.
    q = UnitQueue(unit_id=0)
    q.enqueue(make_task(task_id=1, type_id=1, deadline=0.8), now=2.0, service_time=0.5)
    q.enqueue(make_task(task_id=2, type_id=1, deadline=0.8), now=2.0, service_time=0.5)
    assert q.free_at == 3.0
    assert q.backlog(now=2.0) == pytest.approx(1.0)


def test_predicted_delay_on_empty_units():
    uav = UnitQueue(unit_id=0)
    mec = UnitQueue(unit_id=4)
    # Fire processing: 0.1 s on a UAV, 0.05 s on the MEC.
    assert predicted_unit_delay(uav, 0.1, now=0.0) == pytest.approx(0.1)
    assert predicted_unit_delay(mec, 0.05, now=0.0) == pytest.approx(0.05)


def test_predicted_delay_with_residual_and_pending_work():
    # Unit busy for another 0.08 s with one pending fire task (0.1 s): a new
    # fire task sees 0.08 + 0.1 + 0.1 = 0.28 s.
    q = UnitQueue(unit_id=1)
    q.enqueue(make_task(task_id=1), now=0.0, service_time=0.18)  # drains at 0.18
    q.enqueue(make_task(task_id=2), now=0.10, service_time=0.1)  # drains at 0.28
    now = 0.10
    # Independent recomputation: residual in-service + pending + own service.
    residual = 0.18 - now
    oracle = residual + 0.1 + 0.1
    assert predicted_unit_delay(q, 0.1, now=now) == pytest.approx(oracle)
    assert oracle == pytest.approx(0.28)


def test_local_fire_task_within_deadline():
    rec = make_record(queue_wait=0.0, service_time=0.1)
    # 0.01 + 0 + 0 + 0.1 = 0.11 <= 0.3
    assert check_violation(rec, deadline=0.3, iot_delay=IOT) is False


def test_offloaded_pest_task_misses_deadline():
    rec = make_record(
        type_id=1,
        deadline_abs=0.8,
        transfer_delay=0.015,
        queue_wait=0.4,
        service_time=0.5,
    )
    # 0.01 + 0.015 + 0.4 + 0.5 = 0.925 > 0.8
    assert check_violation(rec, deadline=0.8, iot_delay=IOT) is True


def test_growth_task_with_loose_deadline():
    rec = make_record(
        type_id=2,
        deadline_abs=5.0,
        transfer_delay=0.02,
        queue_wait=1.5,
        service_time=2.0,
    )
    # 0.01 + 0.02 + 1.5 + 2.0 = 3.53 <= 5.0
    assert check_violation(rec, deadline=5.0, iot_delay=IOT) is False


def test_exactly_meeting_the_deadline_is_not_a_violation():
    # Power-of-two components keep the sum exact: 0.25 + (0.25 + 0.5) = 1.0.
    rec = make_record(transfer_delay=0.0, queue_wait=0.25, service_time=0.5)
    assert check_violation(rec, deadline=1.0, iot_delay=0.25) is False
    assert check_violation(rec, deadline=0.9999, iot_delay=0.25) is True


def test_unfinished_task_cannot_be_judged():
    rec = make_record(queue_wait=None, service_time=None)
    with pytest.raises(ValueError):
        check_violation(rec, deadline=0.3, iot_delay=IOT)
    half = make_record(queue_wait=0.1, service_time=None)
    with pytest.raises(ValueError):
        check_violation(half, deadline=0.3, iot_delay=IOT)


def test_enqueue_stamps_the_task():
    q = UnitQueue(unit_id=0)
    task = make_task(task_id=7)
    q.enqueue(task, now=0.5, service_time=0.1)
    assert (task.enqueue_time, task.service_time) == (0.5, 0.1)
    assert (task.start_time, task.queue_wait, task.finish_time) == (None, None, None)
    assert not task.completed


def test_duplicate_enqueue_rejected():
    q = UnitQueue(unit_id=0)
    task = make_task(task_id=7)
    q.enqueue(task, now=0.0, service_time=0.1)
    with pytest.raises(ValueError, match="task 7 enqueued twice"):
        q.enqueue(task, now=0.5, service_time=0.1)
    assert list(q.pending) == [task]
    assert task.enqueue_time == 0.0


def test_enqueue_at_a_second_unit_rejected():
    first = UnitQueue(unit_id=0)
    second = UnitQueue(unit_id=4)
    task = make_task(task_id=3)
    first.enqueue(task, now=0.0, service_time=0.1)
    with pytest.raises(ValueError, match="unit 4"):
        second.enqueue(task, now=0.02, service_time=0.05)
    assert not second.pending
    assert second.free_at == 0.0


def test_fifo_pop_order():
    q = UnitQueue(unit_id=0)
    for i in range(3):
        q.enqueue(make_task(task_id=i), now=float(i), service_time=0.1)
    assert [task.task_id for task in q.pending] == [0, 1, 2]


def test_free_at_never_runs_backwards():
    q = UnitQueue(unit_id=0)
    q.enqueue(make_task(task_id=1), now=0.0, service_time=0.2)
    # Arrival after the queue drained restarts from "now", not from free_at.
    q.enqueue(make_task(task_id=2), now=5.0, service_time=0.3)
    assert q.free_at == pytest.approx(5.3)


def test_busy_seconds_counts_the_running_task_and_sums_finished_ones():
    # Two tasks served back to back, started and completed as the kernel
    # does: the first runs 1.0-1.25, the second 1.25-1.75.
    def start(now):
        task = q.pending.popleft()
        q.in_service, task.start_time = task, now

    def complete(now):
        task, q.in_service = q.in_service, None
        q.busy_total += now - task.start_time

    q = UnitQueue(unit_id=0)
    q.enqueue(make_task(task_id=1), now=1.0, service_time=0.25)
    q.enqueue(make_task(task_id=2), now=1.0, service_time=0.5)
    assert q.busy_seconds(1.0) == 0.0
    start(1.0)
    assert q.busy_seconds(1.125) == 0.125
    complete(1.25)
    assert q.busy_seconds(1.25) == 0.25
    start(1.25)
    assert q.busy_seconds(1.5) == 0.25 + 0.25
    complete(1.75)
    # Idle time after the last completion is not busy time.
    assert q.busy_seconds(1.75) == q.busy_seconds(9.0) == 0.75
