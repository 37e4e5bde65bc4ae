"""FIFO service queues, delay prediction and the deadline predicate."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .arrivals import TaskInstance


def check_violation(task: TaskInstance, deadline: float, iot_delay: float) -> bool:
    """True iff the end-to-end delay strictly exceeds the class deadline.

    Sum of: sensor-to-UAV hop, optional offload hop, queue wait at the serving
    unit, and service time.  Exactly meeting the deadline is not a violation.
    """
    if task.queue_wait is None or task.service_time is None:
        raise ValueError(f"task {task.task_id} has not finished service")
    total = iot_delay + task.transfer_delay + (task.queue_wait + task.service_time)
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

    def backlog(self, now: float) -> float:
        """Seconds of work committed ahead of a new arrival at ``now``."""
        return max(self.free_at - now, 0.0)

    def busy_seconds(self, now: float) -> float:
        """Seconds in service up to ``now``: finished tasks plus the running one so far."""
        task = self.in_service
        if task is None:
            return self.busy_total
        return self.busy_total + (now - task.start_time)


def predicted_unit_delay(queue: UnitQueue, service_time: float, now: float) -> float:
    """Queue wait plus service the unit would impose on a task placed now.

    Remaining in-service time and all pending service times are already folded
    into ``free_at``, so the estimate is backlog plus the candidate's own
    service time on this unit class.
    """
    return queue.backlog(now) + service_time
