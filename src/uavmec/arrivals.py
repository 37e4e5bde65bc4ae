"""Task generation: seeded Poisson streams per (UAV, task type).

A stream is only its emission times; ``build_task_table`` merges an
episode's streams into the task records the kernel walks.
"""

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
    other fields stay None until set: ``chosen_unit`` and ``predicted_delay``
    (its queue + service estimate) at the decision; ``enqueue_time`` and
    ``service_time`` at the enqueue, so a task still queued at the horizon
    carries its service time; ``start_time`` at the start; ``finish_time`` at
    the completion; and ``violated`` then, or at the horizon by the censoring
    rule.  What follows from these is not stored: the queue wait is
    ``start_time - enqueue_time``, and the transfer delay to the chosen unit
    comes from the config.  ``build_task_table`` is the only producer and
    checks every deadline.
    """

    task_id: int
    type_id: int
    origin_uav: int
    emission_time: float
    arrival_time: float
    deadline_abs: float
    chosen_unit: int | None = None
    predicted_delay: float | None = None
    enqueue_time: float | None = None
    start_time: float | None = None
    finish_time: float | None = None
    service_time: float | None = None
    violated: bool | None = None

    @property
    def completed(self) -> bool:
        return self.finish_time is not None


def generate_arrivals(
    spec: TaskTypeSpec, horizon: float, iot_delay: float, rng: np.random.Generator
) -> np.ndarray:
    """Emission times of one stream, cut where the UAV arrival reaches the horizon.

    Emission gaps are i.i.d. Exponential(mean_interarrival); the times of tasks
    whose arrival (emission plus ``iot_delay``) would land at or past the
    horizon are not returned.

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
    return emissions[: np.searchsorted(emissions + iot_delay, horizon)]


def build_task_table(
    sim: SimConfig, tasks: list[TaskTypeSpec], seed: int, episode: int
) -> list[TaskInstance]:
    """All streams of one episode merged chronologically, ids 0..N-1 in order.

    The merge order (arrival time, origin UAV, type) is total because ties in
    continuous arrival times across independent streams do not occur; the UAV
    and type fields make it deterministic anyway.  The streams are joined in
    (UAV, type) order, so one stable sort on arrival time gives that order,
    and each task is built once, at its final position.
    """
    num_types = len(tasks)
    horizon, iot_delay = sim.episode_duration, sim.iot_to_uav_delay
    streams = [
        generate_arrivals(spec, horizon, iot_delay, arrival_rng(seed, episode, uav, type_id))
        for uav in range(sim.num_uavs)
        for type_id, spec in enumerate(tasks)
    ]
    # Stream k belongs to (UAV, type) = divmod(k, num_types).
    stream = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
    emissions = np.concatenate(streams)
    arrivals = emissions + iot_delay
    order = np.argsort(arrivals, kind="stable")
    emissions, arrivals = emissions[order], arrivals[order]
    uavs, types = np.divmod(stream[order], num_types)
    deadlines = emissions + np.array([spec.deadline for spec in tasks])[types]
    if (deadlines <= emissions).any():
        raise ValueError("every task's deadline_abs must exceed its emission_time")
    return list(map(
        TaskInstance, range(len(order)), types.tolist(), uavs.tolist(),
        emissions.tolist(), arrivals.tolist(), deadlines.tolist(),
    ))
