"""Event-driven simulation kernel: one episode of task offloading.

Continuous time, deterministic ordering.  Events are arrivals, completions
and the horizon, ordered by the key (time, kind, task id), where a kind's
number is its priority: at equal timestamps completions free servers before
arrivals are admitted, and the horizon marker runs last; remaining ties break
on task id, which is unique among pending events since a task has at most one
event pending at a time.

Two sources are merged in that order.  The sensed arrivals come straight
from the task table, which is sorted by arrival time with ids equal to
positions, so it is walked with one index.  A heap holds the rest:
completions, arrivals forwarded to another unit, and the horizon marker.

Unit state lives in flat lists owned by the episode, indexed by unit:
``waiting`` (a FIFO deque of enqueued tasks), ``running`` (the task in
service, or None) and ``free_at`` (when the unit drains all of them).  Per
UAV, ``busy_done`` adds up the service time of the finished tasks.  No code
reads a MEC's busy time, so none is kept.  A decision reads two things from
these lists:

- **Delay.**  An enqueue advances ``free_at`` to ``max(free_at, now)`` plus
  the task's service time, so a prediction read from it (the backlog
  ``free_at - now`` plus the candidate's service time) is float-identical to
  the realized start times.
- **Battery.**  Drain is piecewise constant: a fixed floor (hover + antenna
  + CPU idle) runs for the whole elapsed mission time, and the CPU adds its
  busy-minus-idle draw while a task is in service.  So a UAV's battery, read
  as the fraction of its capacity left, depends only on the elapsed time,
  its ``busy_done`` and its running task's time so far.  MEC servers are
  grid powered and have no battery; a snapshot gives them an infinite
  sentinel.

A unit never idles with work waiting: an enqueue starts its task at once on
an idle unit, and a completion starts the next waiting task.  The start is
logged right after the event that caused it.  No later event of equal time
could see the difference: an arrival runs after every equal-time event that
touches its unit, and the other completions of equal time touch only their
own units.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .arrivals import TaskInstance, build_task_table
from .config import AppConfig, EnergyParams
from .mdp import (
    NetworkSnapshot,
    Transition,
    assemble_reward,
    compute_reward_parts,
    encode_state,  # noqa: F401  unused here; bench/tracing.py wraps it under this name
    type_code,
)

# Event names in the log.
TASK_COMPLETE = "complete"
TASK_START = "start"  # logged only; starts are not heap events
TASK_ARRIVAL = "arrival"
EPISODE_END = "end"

# Heap event kinds; each is its own priority among events of equal time.
_COMPLETE, _ARRIVAL, _END = 0, 1, 2

MEC_BATTERY_SENTINEL = math.inf


class SimulationError(RuntimeError):
    """A policy or kernel invariant was broken during an episode."""


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


class BatteryModel:
    """The drain constants a battery read needs, derived once from the
    published rates of ``EnergyParams`` times its ``power_scale``.  The
    params are fleet-wide, so one model serves every UAV."""

    def __init__(self, params: EnergyParams):
        scale = params.power_scale
        self.battery_capacity_wh = params.battery_capacity_wh
        self.constant_power_w = (
            params.hover_power_w + params.antenna_power_w + params.cpu_idle_power_w) * scale
        self.busy_extra_power_w = (params.cpu_busy_power_w - params.cpu_idle_power_w) * scale
        # Battery fraction drained per second of CPU-busy time (beyond idle).
        self.busy_frac_per_sec = self.busy_extra_power_w / 3600.0 / self.battery_capacity_wh


def remaining_battery_fractions(model: BatteryModel, elapsed: float, busy_done, running) -> tuple:
    """Fraction of its capacity each UAV has left after ``elapsed`` mission
    seconds.  ``busy_done`` holds, per UAV, the seconds its CPU spent on
    finished tasks; ``running`` holds per unit the task in service, or None,
    and is read only as far as ``busy_done`` goes.  A running task adds the
    seconds since its start.  The fraction may go negative."""
    idle = model.constant_power_w * elapsed
    capacity, busy_extra = model.battery_capacity_wh, model.busy_extra_power_w
    return tuple([
        (capacity - (idle + busy_extra * (done if task is None
                                          else done + (elapsed - task.start_time))) / 3600.0)
        / capacity
        for done, task in zip(busy_done, running)
    ])


def remaining_battery_fraction(model: BatteryModel, elapsed: float, busy_done: float,
                               task) -> float:
    """``remaining_battery_fractions`` of one UAV, whose running task is
    ``task`` (None when idle)."""
    return remaining_battery_fractions(model, elapsed, (busy_done,), (task,))[0]


class _AgentPipeline:
    """Turns one learner's decision stream into ordered transitions.

    A decision's state is the policy's own, what its ``encode`` returned; the
    pipeline never looks inside it.  Each decision is queued at once as the
    ``Transition`` it will ingest.  Its successor state is the state of the
    same agent's next decision; its reward is set at once, or in deferred
    mode when its task resolves.  Transitions are ingested in decision order.
    """

    def __init__(self, policy, mdp_cfg, terminal_on_end: bool):
        self.policy = policy
        self.cfg = mdp_cfg
        self.deferred = mdp_cfg.deferred_reward
        self.terminal_on_end = terminal_on_end
        # Queued transitions, and in deferred mode each unresolved task's
        # transition with its tier and penalty.
        self.pending: deque = deque()
        self.by_task: dict[int, tuple] = {}
        self.cumulative_reward = 0.0

    def on_decision(self, snap: NetworkSnapshot, state, action: int, task_id: int) -> None:
        tier, v_hat, penalty = compute_reward_parts(action, snap, self.cfg)
        t = Transition(state, action, None, None, False)
        if self.deferred:
            self.by_task[task_id] = (t, tier, penalty)
        else:
            t.reward = assemble_reward(tier, v_hat, penalty)
            self.cumulative_reward += t.reward
        if self.pending and self.pending[-1].next_state is None:
            self.pending[-1].next_state = state
        self.pending.append(t)
        self._flush()

    def on_task_resolved(self, task_id: int, violated: bool) -> None:
        t, tier, penalty = self.by_task.pop(task_id)
        t.reward = assemble_reward(tier, violated, penalty)
        self.cumulative_reward += t.reward
        self._flush()

    def finish(self) -> None:
        """Ingest the last decision as terminal, with itself as successor,
        under ``terminal_on_end``; else drop it: without a successor there is
        nothing to bootstrap from, and its reward has already counted."""
        if self.by_task:
            raise SimulationError("unresolved deferred rewards at episode end")
        if self.pending and self.pending[-1].next_state is None:
            tail = self.pending[-1]
            if self.terminal_on_end:
                tail.next_state = tail.state
                tail.terminal = True
            else:
                self.pending.pop()
        self._flush()

    def _flush(self) -> None:
        pending = self.pending
        while pending and pending[0].reward is not None and pending[0].next_state is not None:
            self.policy.ingest(pending.popleft())


@dataclass
class EpisodeResult:
    """End-of-episode accounting.

    ``tasks_in_queue`` includes tasks still propagating to their chosen unit
    at the horizon (committed but not yet enqueued), so generated ==
    completed + in_queue + in_service always holds.  ``battery_fraction`` is
    each UAV's remaining charge as a fraction of its capacity.
    ``placements`` is the episode's task list in id order, every task decided.
    Only learners are scored: ``cumulative_reward`` is None for an agent that
    does not learn.  ``events`` is None unless the episode was run with
    ``collect_events``.
    """

    duration: float
    tasks_generated: int
    tasks_completed: int
    tasks_in_queue: int
    tasks_in_service: int
    battery_fraction: list
    violations_by_unit: list
    violations_total: int
    cumulative_reward: list
    placements: list
    events: list | None = None


def run_episode(
    cfg: AppConfig,
    policies: list,
    arrival_seed: int,
    episode_index: int = 0,
    collect_events: bool = False,
) -> EpisodeResult:
    """Simulate one episode and return its accounting.

    ``policies`` holds one decision object per UAV.  Each decision's state is
    ``encode(snapshot)`` for a policy that has one, else the snapshot; it goes
    to ``select`` and into the learner's transitions.  A policy whose
    ``wants_snapshot`` is False (a missing attribute counts as True) reads
    nothing of the network: no snapshot is built for it and ``select`` gets
    None, so it may neither encode nor learn.  Arrival streams depend only on
    (arrival_seed, episode_index), so different policies can be compared on
    identical workloads.
    """
    sim, energy_params = cfg.sim, cfg.energy
    num_uavs, num_units = sim.num_uavs, sim.num_units
    if len(policies) != num_uavs:
        raise SimulationError(f"need one policy per UAV ({num_uavs}), got {len(policies)}")

    tasks = build_task_table(sim, cfg.tasks, arrival_seed, episode_index)
    waiting = [deque() for _ in range(num_units)]
    running: list = [None] * num_units
    free_at = [0.0] * num_units
    busy_done = [0.0] * num_uavs
    battery = BatteryModel(energy_params)
    pipelines = [_AgentPipeline(p, cfg.mdp, cfg.rl.terminal_on_episode_end)
                 if getattr(p, "wants_transitions", False) else None for p in policies]
    encoders = [getattr(p, "encode", None) for p in policies]
    wants_snapshot = [getattr(p, "wants_snapshot", True) for p in policies]
    for uav in range(num_uavs):
        if not wants_snapshot[uav] and (encoders[uav] is not None or pipelines[uav]):
            raise SimulationError(f"policy for uav{uav} sets wants_snapshot = False but "
                                  "encodes or learns, which reads the snapshot")
    # Each log site tests ``collect_events`` first, so an episode that keeps
    # no log builds no event tuples.
    events: list | None = [] if collect_events else None

    # What a decision reads but no event changes, built once per episode:
    # per task type its processing time on each unit, code and deadline; per
    # UAV the transfer delays it sees; the MECs' battery entries.
    num_types = len(cfg.tasks)
    proc_tables = [
        tuple([spec.proc_time(sim.unit_is_mec(u)) for u in range(num_units)]) for spec in cfg.tasks
    ]
    type_codes = [type_code(t, num_types) for t in range(num_types)]
    deadlines = [spec.deadline for spec in cfg.tasks]
    transfer_tables = [
        tuple([sim.transfer_delay(uav, u) for u in range(num_units)]) for uav in range(num_uavs)
    ]
    mec_batteries = (MEC_BATTERY_SENTINEL,) * sim.num_mecs
    iot_delay = sim.iot_to_uav_delay
    busy_frac_per_sec = battery.busy_frac_per_sec
    deferred = cfg.mdp.deferred_reward

    # Entries are (time, kind, task_id, task, unit); the horizon marker is
    # the one entry without a task.
    heap: list = [(sim.episode_duration, _END, -1, None, -1)]
    heappush, heappop = heapq.heappush, heapq.heappop

    def enqueue(task, unit, now):
        """Stamp ``task`` into the queue of ``unit``; start it if the unit is idle."""
        if task.enqueue_time is not None:
            raise SimulationError(f"task {task.task_id} enqueued twice (again at unit {unit})")
        service = proc_tables[task.type_id][unit]
        task.enqueue_time = now
        task.service_time = service
        free = free_at[unit]
        free_at[unit] = (now if now > free else free) + service
        if running[unit] is not None:
            waiting[unit].append(task)
            return
        running[unit] = task
        task.start_time = now
        if collect_events:
            events.append((now, TASK_START, task.task_id, unit))
        heappush(heap, (now + service, _COMPLETE, task.task_id, task, unit))

    def decide(task, now):
        uav = task.origin_uav
        transfers = transfer_tables[uav]
        if wants_snapshot[uav]:
            type_id = task.type_id
            proc_times = proc_tables[type_id]
            delays = predicted_delays(free_at, proc_times, now)
            batteries = remaining_battery_fractions(battery, now, busy_done, running)
            # One tuple of the fields in order, made a NetworkSnapshot without
            # the namedtuple's own __new__ frame; keywords would be ~3x slower.
            snap = tuple.__new__(NetworkSnapshot, (
                uav, type_id, type_codes[type_id], delays, batteries + mec_batteries, transfers,
                proc_times, iot_delay, deadlines[type_id], busy_frac_per_sec, num_uavs,
            ))
            encode = encoders[uav]
            state = snap if encode is None else encode(snap)
        else:
            state = None
        action = policies[uav].select(state)
        # A plain int passes the type test at once; a bool is an int to
        # isinstance, but no unit.
        if ((type(action) is not int
             and (type(action) is bool or not isinstance(action, (int, np.integer))))
                or not 0 <= action < num_units):
            raise SimulationError(f"policy for uav{uav} chose nonexistent unit {action!r}")
        if type(action) is not int:
            action = int(action)
        task.chosen_unit = action
        if pipelines[uav]:
            pipelines[uav].on_decision(snap, state, action, task.task_id)
        if action == uav:
            enqueue(task, uav, now)
        else:
            heappush(heap, (now + transfers[action], _ARRIVAL, task.task_id, task, action))

    # Sensed arrivals run in table order, each once no heap key is smaller
    # than its own; no heap key equals it (the task ids differ).  The key
    # tuple is built only when the times tie.  The heap keeps the horizon
    # marker until the loop ends.
    num_tasks = len(tasks)
    i = 0
    while True:
        if i < num_tasks:
            sensed = tasks[i]
            now = sensed.arrival_time
            top = heap[0]
            if now < top[0] or (now == top[0] and top > (now, _ARRIVAL, sensed.task_id)):
                if collect_events:
                    events.append((now, TASK_ARRIVAL, sensed.task_id, sensed.origin_uav))
                decide(sensed, now)
                i += 1
                continue
        now, kind, _, task, unit = heappop(heap)
        if kind == _END:
            if collect_events:
                events.append((now, EPISODE_END, -1, -1))
            break
        if kind == _ARRIVAL:
            # Only forwarded tasks arrive through the heap, already decided.
            if collect_events:
                events.append((now, TASK_ARRIVAL, task.task_id, unit))
            enqueue(task, unit, now)
        else:  # _COMPLETE
            if running[unit] is not task:
                raise SimulationError(f"completion for task {task.task_id} without matching service")
            if unit < num_uavs:
                busy_done[unit] += now - task.start_time
            task.finish_time = now
            task.violated = check_violation(task, deadlines[task.type_id], iot_delay,
                                            transfer_tables[task.origin_uav][unit])
            if collect_events:
                events.append((now, TASK_COMPLETE, task.task_id, unit))
            if deferred and pipelines[task.origin_uav]:
                pipelines[task.origin_uav].on_task_resolved(task.task_id, task.violated)
            queue = waiting[unit]
            if queue:
                task = running[unit] = queue.popleft()
                task.start_time = now
                if collect_events:
                    events.append((now, TASK_START, task.task_id, unit))
                heappush(heap, (now + task.service_time, _COMPLETE, task.task_id, task, unit))
            else:
                running[unit] = None

    end_time = sim.episode_duration

    in_service = 0
    in_queue = 0
    violations_by_unit = [0] * num_units
    for task in tasks:
        if task.finish_time is None:
            if task.start_time is not None:
                in_service += 1
                # Finish is already committed; compare it against the deadline.
                task.violated = task.start_time + task.service_time > task.deadline_abs
            else:
                in_queue += 1
                # Still queued or in transit: violated iff the deadline has passed.
                task.violated = task.deadline_abs <= end_time
            if deferred and pipelines[task.origin_uav]:
                pipelines[task.origin_uav].on_task_resolved(task.task_id, task.violated)
        violations_by_unit[task.chosen_unit] += task.violated
    for pipe in filter(None, pipelines):
        pipe.finish()

    return EpisodeResult(
        duration=end_time,
        tasks_generated=len(tasks),
        tasks_completed=len(tasks) - in_queue - in_service,
        tasks_in_queue=in_queue,
        tasks_in_service=in_service,
        battery_fraction=[remaining_battery_fraction(battery, end_time, busy_done[uav],
                                                     running[uav]) for uav in range(num_uavs)],
        violations_by_unit=violations_by_unit,
        violations_total=sum(violations_by_unit),
        cumulative_reward=[pipe.cumulative_reward if pipe else None for pipe in pipelines],
        placements=tasks,
        events=events,
    )
