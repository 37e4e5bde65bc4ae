"""Task generation: seeded Poisson streams per (UAV, task type)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig, TaskTypeSpec

# Part of every arrival stream's seed sequence; changing it changes every workload.
ARRIVAL_STREAM_TAG = 101


def arrival_rng(seed: int, episode: int, uav: int, type_id: int) -> np.random.Generator:
    """Independent generator for one (UAV, task type) stream of one episode."""
    return np.random.default_rng(
        np.random.SeedSequence((seed, ARRIVAL_STREAM_TAG, episode, uav, type_id))
    )


@dataclass(slots=True)
class TaskInstance:
    """One sensed task and, once the kernel has run it, its whole lifecycle.

    ``emission_time`` is when the IoT sensor produced it; it reaches its origin
    UAV at ``arrival_time``.  ``deadline_abs`` is emission plus the class
    deadline.  Times are absolute simulation seconds, delays relative.  The
    other fields stay None until set: ``chosen_unit``, ``transfer_delay`` to it
    and ``predicted_delay`` (its queue + service estimate) at the decision;
    ``enqueue_time`` and ``service_time`` at the enqueue, so a task still
    queued at the horizon carries its service time; ``start_time`` and
    ``queue_wait`` at the start; ``finish_time`` at the completion; and
    ``violated`` then, or at the horizon by the censoring rule.
    """

    task_id: int
    type_id: int
    origin_uav: int
    emission_time: float
    arrival_time: float
    deadline_abs: float
    chosen_unit: int | None = None
    transfer_delay: float | None = None
    predicted_delay: float | None = None
    enqueue_time: float | None = None
    start_time: float | None = None
    finish_time: float | None = None
    queue_wait: float | None = None
    service_time: float | None = None
    violated: bool | None = None

    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    def __post_init__(self):
        if self.deadline_abs <= self.emission_time:
            raise ValueError(f"task {self.task_id}: deadline_abs must exceed emission_time")


def generate_arrivals(
    spec: TaskTypeSpec,
    type_id: int,
    uav: int,
    horizon: float,
    iot_delay: float,
    rng: np.random.Generator,
    id_start: int = 0,
) -> list[TaskInstance]:
    """Sample one stream of tasks with exponential gaps, stopping at the horizon.

    Emission gaps are i.i.d. Exponential(mean_interarrival); tasks whose UAV
    arrival time would land at or past the horizon are not generated.  Ids are
    sequential from ``id_start`` in emission order.

    The gaps are drawn in bulk and summed with ``np.cumsum``, which adds them
    left to right, so every time equals the one a draw-and-add loop would
    give.  The draw is topped up until it passes the horizon; the surplus
    draws are discarded, which is harmless because each stream has its own
    generator.
    """
    mean = spec.mean_interarrival
    # Four standard deviations above the expected count: a top-up is rare.
    expected = horizon / mean
    gaps = rng.exponential(mean, size=int(expected + 4.0 * math.sqrt(expected)) + 16)
    emissions = np.cumsum(gaps)
    while emissions[-1] + iot_delay < horizon:
        gaps = np.concatenate((gaps, rng.exponential(mean, size=len(gaps))))
        emissions = np.cumsum(gaps)
    arrivals = emissions + iot_delay
    n = int(np.searchsorted(arrivals, horizon))
    return [
        TaskInstance(task_id, type_id, uav, emission, arrival, deadline)
        for task_id, emission, arrival, deadline in zip(
            range(id_start, id_start + n),
            emissions[:n].tolist(),
            arrivals[:n].tolist(),
            (emissions[:n] + spec.deadline).tolist(),
        )
    ]


def build_task_table(
    sim: SimConfig, tasks: list[TaskTypeSpec], seed: int, episode: int
) -> list[TaskInstance]:
    """All streams of one episode merged chronologically, ids renumbered 0..N-1.

    The merge order (arrival time, origin UAV, type) is total because ties in
    continuous arrival times across independent streams do not occur; the UAV
    and type fields make it deterministic anyway.
    """
    all_tasks: list[TaskInstance] = []
    for uav in range(sim.num_uavs):
        for type_id, spec in enumerate(tasks):
            rng = arrival_rng(seed, episode, uav, type_id)
            all_tasks.extend(
                generate_arrivals(spec, type_id, uav, sim.episode_duration, sim.iot_to_uav_delay, rng)
            )
    all_tasks.sort(key=lambda t: (t.arrival_time, t.origin_uav, t.type_id))
    for i, task in enumerate(all_tasks):
        task.task_id = i
    return all_tasks
