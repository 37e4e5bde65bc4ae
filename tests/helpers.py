"""Independent oracles for the kernel and the deep learner.

The event-log replay recomputes every completed task's end-to-end latency and
every UAV's busy seconds from the raw (time, kind, task_id, unit) event tuples
alone, without touching the kernel's incremental bookkeeping.  It is the
oracle for the violation flags and the battery levels.

``ReplayBuffer`` and ``train_batch`` below are the original object-list
replay memory and batch step, kept unchanged: a list of ``Transition``
objects, batches assembled with ``np.stack`` and list comprehensions.  They
are the oracle for the column-array ring in ``uavmec.deep``.
"""

import numpy as np

from uavmec.config import AppConfig
from uavmec.mdp import Transition
from uavmec.nnet import AdamState, MlpNetwork, adam_step, forward, loss_and_grads
from uavmec.simulation import EpisodeResult, TASK_ARRIVAL, TASK_COMPLETE, TASK_START


def replay_delays(cfg: AppConfig, result: EpisodeResult) -> dict:
    """Per completed task: recomputed (queue_wait, service, transfer, violated)."""
    by_task = {r.task_id: r for r in result.placements}
    # Enqueue moment at the serving unit: the last arrival event of the task
    # (the only one for local placements, the post-transfer one for offloads).
    enqueue_at: dict[int, float] = {}
    starts: dict[int, float] = {}
    finishes: dict[int, float] = {}
    for time, kind, task_id, unit in result.events:
        if kind == TASK_ARRIVAL:
            enqueue_at[task_id] = time
        elif kind == TASK_START:
            starts[task_id] = time
        elif kind == TASK_COMPLETE:
            finishes[task_id] = time

    out = {}
    for task_id, finish in finishes.items():
        rec = by_task[task_id]
        start = starts[task_id]
        wait = start - enqueue_at[task_id]
        service = finish - start
        transfer = (
            0.0
            if rec.chosen_unit == rec.origin_uav
            else cfg.sim.transfer_delay(rec.origin_uav, rec.chosen_unit)
        )
        total = cfg.sim.iot_to_uav_delay + transfer + wait + service
        violated = total > cfg.tasks[rec.type_id].deadline
        out[task_id] = (wait, service, transfer, violated)
    return out


def replay_battery(cfg: AppConfig, result: EpisodeResult) -> list:
    """Per-UAV remaining Wh recomputed from start/complete events alone."""
    by_task = {r.task_id: r for r in result.placements}
    busy = [0.0] * cfg.sim.num_uavs
    open_since: dict[int, tuple] = {}
    for time, kind, task_id, unit in result.events:
        if kind == TASK_START and unit < cfg.sim.num_uavs:
            open_since[task_id] = (unit, time)
        elif kind == TASK_COMPLETE and unit < cfg.sim.num_uavs:
            u, started = open_since.pop(task_id)
            busy[u] += time - started
    for task_id, (u, started) in open_since.items():
        busy[u] += result.duration - started
    p = cfg.energy
    const = (p.hover_power_w + p.antenna_power_w + p.cpu_idle_power_w) * p.power_scale
    extra = (p.cpu_busy_power_w - p.cpu_idle_power_w) * p.power_scale
    return [
        p.battery_capacity_wh - (const * result.duration + extra * busy[u]) / 3600.0
        for u in range(cfg.sim.num_uavs)
    ]


def assert_fifo_work_conserving(result: EpisodeResult) -> None:
    """Per unit: services run FIFO in enqueue order and start as early as
    allowed (max of enqueue time and the previous finish on that unit)."""
    per_unit_enqueues: dict[int, list] = {}
    starts: dict[int, tuple] = {}
    finishes: dict[int, float] = {}
    chosen = {r.task_id: r.chosen_unit for r in result.placements}
    for time, kind, task_id, unit in result.events:
        if kind == TASK_ARRIVAL and unit == chosen[task_id]:
            per_unit_enqueues.setdefault(unit, []).append((time, task_id))
        elif kind == TASK_START:
            starts[task_id] = (unit, time)
        elif kind == TASK_COMPLETE:
            finishes[task_id] = time

    for unit, enqueues in per_unit_enqueues.items():
        prev_finish = 0.0
        served = [(t, tid) for (t, tid) in enqueues if tid in starts]
        for enq_time, task_id in served:
            s_unit, s_time = starts[task_id]
            assert s_unit == unit
            expected = max(enq_time, prev_finish)
            assert s_time == expected, (
                f"task {task_id} started {s_time}, expected {expected}"
            )
            if task_id in finishes:
                prev_finish = finishes[task_id]
            else:
                break  # still in service at the horizon; nothing follows


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.items: list[Transition] = []
        self.cursor = 0

    def push(self, t: Transition) -> None:
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.cursor] = t
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sample without replacement."""
        if n > len(self.items):
            raise ValueError(f"cannot sample {n} from buffer of {len(self.items)}")
        idx = rng.choice(len(self.items), size=n, replace=False)
        return [self.items[i] for i in idx]

    def __len__(self) -> int:
        return len(self.items)


def train_batch(
    net: MlpNetwork,
    adam: AdamState,
    batch: list,
    gamma: float,
    target_net: MlpNetwork | None = None,
) -> float:
    """One gradient step on a batch of transitions; returns the pre-step loss.

    Targets: r + gamma * max_a Q(s', a), zero bootstrap on terminals.  The
    bootstrap uses ``target_net`` when given, else the online network.
    """
    states = np.stack([t.state for t in batch])
    next_states = np.stack([t.next_state for t in batch])
    actions = np.array([t.action for t in batch], dtype=np.intp)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    live = np.array([0.0 if t.terminal else 1.0 for t in batch], dtype=np.float64)

    bootstrap_net = target_net if target_net is not None else net
    next_q = forward(bootstrap_net, next_states)
    targets = rewards + gamma * live * next_q.max(axis=1)

    loss, grads = loss_and_grads(net, states, actions, targets)
    adam_step(adam, net.parameters(), grads)
    return loss
