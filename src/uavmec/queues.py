"""FIFO service queues, delay prediction and the deadline predicate."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .arrivals import TaskInstance


@dataclass
class PlacementRecord:
    """Lifecycle of one task: where it went and every delay component.

    Times are absolute simulation seconds; delay components are relative.
    ``violated`` stays None until the task completes or the horizon forces the
    censoring rule; ``predicted_delay`` is the queue+service estimate for the
    chosen unit at decision time.
    """

    task_id: int
    type_id: int
    origin_uav: int
    chosen_unit: int
    emission_time: float
    arrival_time: float
    deadline_abs: float
    iot_delay: float
    transfer_delay: float
    predicted_delay: float
    enqueue_time: float = 0.0
    start_time: float | None = None
    finish_time: float | None = None
    queue_wait: float | None = None
    service_time: float | None = None
    completed: bool = False
    violated: bool | None = None


def check_violation(record: PlacementRecord, deadline: float) -> bool:
    """True iff the end-to-end delay strictly exceeds the class deadline.

    Sum of: sensor-to-UAV hop, optional offload hop, queue wait at the serving
    unit, and service time.  Exactly meeting the deadline is not a violation.
    """
    if record.queue_wait is None or record.service_time is None:
        raise ValueError(f"task {record.task_id} has not finished service")
    total = record.iot_delay + record.transfer_delay + (record.queue_wait + record.service_time)
    return total > deadline


@dataclass
class UnitQueue:
    """Non-preemptive FIFO queue of one processing unit.

    ``free_at`` is the absolute time the unit drains everything currently
    enqueued or in service; it is maintained incrementally so delay prediction
    is O(1) and float-identical to the realized start times.
    """

    unit_id: int
    is_mec: bool
    pending: deque = field(default_factory=deque)  # (task, enqueue_time, service_time)
    in_service: tuple | None = None  # (task, start_time, finish_time)
    free_at: float = 0.0
    start_scheduled: bool = False
    _seen_ids: set = field(default_factory=set)

    def enqueue(self, task: TaskInstance, now: float, service_time: float) -> None:
        if task.task_id in self._seen_ids:
            raise ValueError(f"task {task.task_id} enqueued twice at unit {self.unit_id}")
        self._seen_ids.add(task.task_id)
        self.pending.append((task, now, service_time))
        self.free_at = max(self.free_at, now) + service_time

    def backlog(self, now: float) -> float:
        """Seconds of work committed ahead of a new arrival at ``now``."""
        return max(self.free_at - now, 0.0)


def predicted_unit_delay(queue: UnitQueue, service_time: float, now: float) -> float:
    """Queue wait plus service the unit would impose on a task placed now.

    Remaining in-service time and all pending service times are already folded
    into ``free_at``, so the estimate is backlog plus the candidate's own
    service time on this unit class.
    """
    return queue.backlog(now) + service_time
