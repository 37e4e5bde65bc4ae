"""Delay prediction over the units' drain times, and the deadline predicate.

The kernel keeps each unit's ``free_at``: the absolute time the unit drains
everything enqueued on it or in service there.  It advances it at each
enqueue, to ``max(free_at, now)`` plus the task's service time, so a
prediction read from it is float-identical to the realized start times.
"""

from __future__ import annotations

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


def predicted_delays(free_at, service_times, now: float) -> tuple:
    """Per unit, the queue wait plus service it would impose on a task placed
    now, given each unit's drain time and the task's service time there.

    Remaining in-service time and all pending service times are already folded
    into ``free_at``, so the estimate is the backlog ``free_at - now`` (zero
    on an idle unit) plus the candidate's own service time.
    """
    return tuple([
        (free - now if free > now else 0.0) + service
        for free, service in zip(free_at, service_times)
    ])


def predicted_unit_delay(free_at: float, service_time: float, now: float) -> float:
    """``predicted_delays`` of one unit."""
    return predicted_delays((free_at,), (service_time,), now)[0]
