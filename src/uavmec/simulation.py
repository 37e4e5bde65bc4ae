"""Event-driven simulation kernel: one episode of task offloading.

Continuous time, three heap events (arrival, completion, horizon),
deterministic ordering.  At equal timestamps completions free servers before
arrivals are admitted, and the horizon marker runs last; remaining ties break
on task id, which is unique among queued events since a task has at most one
event queued at a time.

A unit starts its head task as soon as it is idle with pending work, inside
the handler of the enqueue that fed it or of the completion that freed it, and
logs the start right after that event.  No later event of equal time could see
the difference: an arrival runs after every equal-time event that touches its
unit, and the other completions of equal time touch only their own units.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .arrivals import build_task_table
from .config import AppConfig
from .energy import (
    MEC_BATTERY_SENTINEL,
    BatteryModel,
    remaining_battery,
    remaining_battery_fraction,
)
from .mdp import (
    NetworkSnapshot,
    Transition,
    assemble_reward,
    compute_reward_parts,
    encode_state,  # noqa: F401  unused here; bench/tracing.py wraps it under this name
    type_code,
)
from .queues import UnitQueue, check_violation, predicted_unit_delay

TASK_COMPLETE = "complete"
TASK_START = "start"  # logged only; starts are not heap events
TASK_ARRIVAL = "arrival"
EPISODE_END = "end"

_PRIORITY = {TASK_COMPLETE: 0, TASK_ARRIVAL: 1, EPISODE_END: 2}


class SimulationError(RuntimeError):
    """A policy or kernel invariant was broken during an episode."""


class _AgentPipeline:
    """Turns one learner's decision stream into ordered transitions.

    A decision's state is the policy's own, what its ``encode`` returned; the
    pipeline never looks inside it.  Each decision is queued once, as the
    ``Transition`` it will ingest.  Its successor state is the state of the
    same agent's next decision; its reward is known at once, or in deferred
    mode when the task resolves.  Transitions are released in decision order.
    """

    def __init__(self, policy, mdp_cfg, terminal_on_end: bool):
        self.policy = policy
        self.cfg = mdp_cfg
        self.terminal_on_end = terminal_on_end
        self.pending: deque = deque()
        self.by_task: dict[int, tuple] = {}
        self.cumulative_reward = 0.0

    def on_decision(self, snap: NetworkSnapshot, state, action: int, task_id: int) -> None:
        tier, v_hat, penalty = compute_reward_parts(action, snap, self.cfg)
        t = Transition(state, action, None, None, False)
        if self.cfg.deferred_reward:
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
        if self.by_task:
            raise SimulationError("unresolved deferred rewards at episode end")
        if self.pending and self.pending[-1].next_state is None:
            tail = self.pending[-1]
            if self.terminal_on_end:
                tail.next_state = tail.state
                tail.terminal = True
            else:
                # No successor to bootstrap from; the reward already
                # counted, the experience is dropped.
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
    completed + in_queue + in_service always holds.  ``placements`` is the
    episode's task list in id order, every task decided.  Only learners are
    scored: ``cumulative_reward`` is None for an agent that does not learn.
    """

    duration: float
    tasks_generated: int
    tasks_completed: int
    tasks_in_queue: int
    tasks_in_service: int
    battery_wh: list
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
    to ``select`` and into the learner's transitions.  Arrival streams depend
    only on (arrival_seed, episode_index), so different policies can be
    compared on identical workloads.
    """
    sim, energy_params = cfg.sim, cfg.energy
    num_uavs, num_units = sim.num_uavs, sim.num_units
    if len(policies) != num_uavs:
        raise SimulationError(f"need one policy per UAV ({num_uavs}), got {len(policies)}")

    tasks = build_task_table(sim, cfg.tasks, arrival_seed, episode_index)
    queues = [UnitQueue(u) for u in range(num_units)]
    uav_queues = queues[:num_uavs]
    battery = BatteryModel(energy_params)
    pipelines = [_AgentPipeline(p, cfg.mdp, cfg.rl.terminal_on_episode_end)
                 if getattr(p, "wants_transitions", False) else None for p in policies]
    encoders = [getattr(p, "encode", None) for p in policies]
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
    busy_frac_per_sec = energy_params.busy_frac_per_sec

    heap: list = []

    def push(time, kind, task, unit):
        tid = task.task_id if task is not None else -1
        heapq.heappush(heap, (time, _PRIORITY[kind], tid, kind, task, unit))

    def log(time, kind, task, unit):
        if events is not None:
            events.append((time, kind, task.task_id if task is not None else -1, unit))

    def kick(unit, now):
        """Start the head task of ``unit`` if it is idle with pending work."""
        q = queues[unit]
        if q.in_service is not None or not q.pending:
            return
        task = q.pending.popleft()
        q.in_service = task
        task.start_time = now
        task.queue_wait = now - task.enqueue_time
        log(now, TASK_START, task, unit)
        push(now + task.service_time, TASK_COMPLETE, task, unit)

    def enqueue(task, unit, now):
        queues[unit].enqueue(task, now, proc_tables[task.type_id][unit])
        kick(unit, now)

    def decide(task, now):
        uav, type_id = task.origin_uav, task.type_id
        proc_times = proc_tables[type_id]
        transfers = transfer_tables[uav]
        delays = tuple([
            predicted_unit_delay(q, proc, now) for q, proc in zip(queues, proc_times)
        ])
        batteries = tuple([
            remaining_battery_fraction(battery, now, q.busy_seconds(now)) for q in uav_queues
        ])
        # Positional, in field order: keywords make the build ~3x slower.
        snap = NetworkSnapshot(
            uav, type_id, type_codes[type_id], delays, batteries + mec_batteries, transfers,
            proc_times, iot_delay, deadlines[type_id], busy_frac_per_sec, num_uavs,
        )
        encode = encoders[uav]
        state = snap if encode is None else encode(snap)
        action = policies[uav].select(state)
        if not isinstance(action, (int, np.integer)) or not 0 <= action < num_units:
            raise SimulationError(f"policy for uav{uav} chose nonexistent unit {action!r}")
        action = int(action)
        task.chosen_unit = action
        task.transfer_delay = transfers[action]
        task.predicted_delay = delays[action]
        if pipelines[uav]:
            pipelines[uav].on_decision(snap, state, action, task.task_id)
        if action == uav:
            enqueue(task, uav, now)
        else:
            push(now + transfers[action], TASK_ARRIVAL, task, action)

    for task in tasks:
        push(task.arrival_time, TASK_ARRIVAL, task, task.origin_uav)
    push(sim.episode_duration, EPISODE_END, None, -1)

    while heap:
        now, _, _, kind, task, unit = heapq.heappop(heap)
        if kind == EPISODE_END:
            log(now, kind, None, -1)
            break
        if kind == TASK_ARRIVAL:
            log(now, kind, task, unit)
            if task.chosen_unit is None:
                decide(task, now)
            else:
                enqueue(task, unit, now)
        elif kind == TASK_COMPLETE:
            q = queues[unit]
            if q.in_service is not task:
                raise SimulationError(f"completion for task {task.task_id} without matching service")
            q.in_service = None
            q.busy_total += now - task.start_time
            task.finish_time = now
            task.violated = check_violation(task, deadlines[task.type_id], iot_delay)
            log(now, kind, task, unit)
            if cfg.mdp.deferred_reward and pipelines[task.origin_uav]:
                pipelines[task.origin_uav].on_task_resolved(task.task_id, task.violated)
            kick(unit, now)

    end_time = sim.episode_duration
    busy = [q.busy_seconds(end_time) for q in uav_queues]

    in_service = 0
    in_queue = 0
    violations_by_unit = [0] * num_units
    for task in tasks:
        if not task.completed:
            if task.start_time is not None:
                in_service += 1
                # Finish is already committed; compare it against the deadline.
                task.violated = task.start_time + task.service_time > task.deadline_abs
            else:
                in_queue += 1
                # Still queued or in transit: violated iff the deadline has passed.
                task.violated = task.deadline_abs <= end_time
            if cfg.mdp.deferred_reward and pipelines[task.origin_uav]:
                pipelines[task.origin_uav].on_task_resolved(task.task_id, task.violated)
        violations_by_unit[task.chosen_unit] += task.violated
    for pipe in filter(None, pipelines):
        pipe.finish()

    return EpisodeResult(
        duration=end_time,
        tasks_generated=len(tasks),
        tasks_completed=sum(1 for task in tasks if task.completed),
        tasks_in_queue=in_queue,
        tasks_in_service=in_service,
        battery_wh=[remaining_battery(battery, end_time, b) for b in busy],
        battery_fraction=[remaining_battery_fraction(battery, end_time, b) for b in busy],
        violations_by_unit=violations_by_unit,
        violations_total=sum(violations_by_unit),
        cumulative_reward=[pipe.cumulative_reward if pipe else None for pipe in pipelines],
        placements=tasks,
        events=events,
    )
