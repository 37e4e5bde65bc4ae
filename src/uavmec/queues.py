"""FIFO service queues, delay prediction and the deadline predicate."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .arrivals import TaskInstance


def check_violation(task: TaskInstance, deadline: float, iot_delay: float,
                    transfer_delay: float) -> bool:
    """True iff the end-to-end delay strictly exceeds the class deadline.

    Sum of: sensor-to-UAV hop, the offload hop to the chosen unit (0 when
    served locally), queue wait at the serving unit (start minus enqueue),
    and service time.  Exactly meeting the deadline is not a violation.
    """
    if task.start_time is None or task.service_time is None:
        raise ValueError(f"task {task.task_id} has not started service")
    total = iot_delay + transfer_delay + ((task.start_time - task.enqueue_time) + task.service_time)
    return total > deadline


@dataclass
class UnitQueue:
    """Non-preemptive FIFO queue of one processing unit, and its only record
    of service.

    ``pending`` and ``in_service`` hold the tasks themselves; their times live
    on the tasks.  ``free_at`` is the absolute time the unit drains everything
    currently enqueued or in service; it is maintained incrementally so delay
    prediction is O(1) and float-identical to the realized start times.
    ``busy_total`` is the service time of the tasks finished so far, added to
    at each completion; with the running task's time so far it is the busy
    time a UAV's battery is charged for.
    """

    unit_id: int
    pending: deque = field(default_factory=deque)
    in_service: TaskInstance | None = None
    free_at: float = 0.0
    busy_total: float = 0.0

    def enqueue(self, task: TaskInstance, now: float, service_time: float) -> None:
        if task.enqueue_time is not None:
            raise ValueError(f"task {task.task_id} enqueued twice (again at unit {self.unit_id})")
        task.enqueue_time = now
        task.service_time = service_time
        self.pending.append(task)
        self.free_at = max(self.free_at, now) + service_time


def busy_seconds(queues, now: float) -> list:
    """Seconds each unit was in service up to ``now``: its finished tasks plus
    the running one so far."""
    return [
        q.busy_total if q.in_service is None else q.busy_total + (now - q.in_service.start_time)
        for q in queues
    ]


def predicted_delays(queues, service_times, now: float) -> tuple:
    """Per unit, the queue wait plus service it would impose on a task placed
    now, given the task's service time on each unit.

    Remaining in-service time and all pending service times are already folded
    into ``free_at``, so the estimate is the backlog ``free_at - now`` (zero
    on an idle unit) plus the candidate's own service time.
    """
    return tuple([
        (q.free_at - now if q.free_at > now else 0.0) + service
        for q, service in zip(queues, service_times)
    ])


def predicted_unit_delay(queue: UnitQueue, service_time: float, now: float) -> float:
    """``predicted_delays`` of one unit."""
    return predicted_delays((queue,), (service_time,), now)[0]
