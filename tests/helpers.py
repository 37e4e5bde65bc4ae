"""Independent oracles for the kernel and the deep learner.

The event-log replay recomputes every completed task's end-to-end latency and
every UAV's busy seconds from the raw (time, kind, task_id, unit) event tuples
alone, without touching the kernel's incremental bookkeeping.  It is the
oracle for the violation flags and the battery levels.

``ReplayBuffer`` and ``train_batch`` below are the original object-list
replay memory and batch step, kept unchanged: a list of ``Transition``
objects, batches assembled with ``np.stack`` and list comprehensions.  They
are the oracle for the one-table ring in ``uavmec.deep``.

``ReferenceAdamState``, ``reference_forward_cached``,
``reference_loss_and_grads`` and ``reference_adam_step`` are the original
network step, kept unchanged: every temporary is a fresh array and Adam runs
per parameter array.  With ``reference_train_step`` they are the oracle for
the shared workspaces, the flat parameter and gradient vectors and the flat
Adam update in ``uavmec.nnet``.

``reference_snapshots`` rebuilds every decision snapshot of an episode from
the config and the event log, each field on its own at each decision.  It is
the oracle for the kernel's per-episode decision tables.

``reference_key`` is the tabular key by way of the deep agent's state
vector (``encode_state``, then slicing it by position), as the learner once
computed it.  It is the oracle for ``DiscretizationGrid.key``, which cuts the
key straight from the snapshot's fields.

``snapshot_is_sane`` and ``plateau_threshold`` are structural and
convergence oracles that only tests use; ``make_snapshot`` builds a
hand-made decision snapshot of the default 4 UAV + 1 MEC fleet.
"""

import math

import numpy as np

from uavmec.config import AppConfig
from uavmec.mdp import NetworkSnapshot, Transition, encode_state, type_code
from uavmec.nnet import AdamState, MlpNetwork, adam_step, forward, loss_and_grads
from uavmec.simulation import EpisodeResult, TASK_ARRIVAL, TASK_COMPLETE, TASK_START
from uavmec.tabular import DiscretizationGrid

FIRE, PEST, GROWTH = 0, 1, 2
PROC_UAV = {FIRE: 0.1, PEST: 0.5, GROWTH: 0.1}
PROC_MEC = {FIRE: 0.05, PEST: 0.25, GROWTH: 0.05}
DEADLINE = {FIRE: 0.3, PEST: 0.8, GROWTH: 5.0}


def make_snapshot(
    task_type=FIRE,
    deciding_uav=0,
    backlogs=(0.0, 0.0, 0.0, 0.0, 0.0),
    batteries=(1.0, 1.0, 1.0, 1.0),
    num_uavs=4,
    iot_delay=0.01,
    transfer=0.015,
    busy_frac_per_sec=0.0042105,
):
    num_units = len(backlogs)
    proc = [
        PROC_MEC[task_type] if u >= num_uavs else PROC_UAV[task_type]
        for u in range(num_units)
    ]
    delays = tuple(b + p for b, p in zip(backlogs, proc))
    transfers = tuple(
        0.0 if u == deciding_uav else transfer for u in range(num_units)
    )
    return NetworkSnapshot(
        deciding_uav=deciding_uav,
        task_type=task_type,
        type_code=type_code(task_type, 3),
        unit_delays=delays,
        unit_batteries=tuple(batteries) + (math.inf,) * (num_units - num_uavs),
        transfer_delays=transfers,
        proc_times=tuple(proc),
        iot_delay=iot_delay,
        deadline=DEADLINE[task_type],
        busy_frac_per_sec=busy_frac_per_sec,
        num_uavs=num_uavs,
    )


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


class ReferenceAdamState:
    """First/second moment accumulators with bias correction."""

    def __init__(self, params: list, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def reference_forward_cached(net: MlpNetwork, x: np.ndarray):
    """Batch forward keeping post-activation values per layer for backprop."""
    activations = [np.asarray(x, dtype=np.float64)]
    last = net.num_layers - 1
    a = activations[0]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if layer != last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    return activations


def reference_loss_and_grads(net: MlpNetwork, states: np.ndarray, actions: np.ndarray,
                             targets: np.ndarray):
    """MSE over the taken actions' Q-values, with gradients for every parameter.

    loss = mean_i (Q(s_i)[a_i] - y_i)^2.  Returns (loss, grads) with grads
    ordered like net.parameters().
    """
    batch = states.shape[0]
    activations = reference_forward_cached(net, states)
    q = activations[-1]
    idx = np.arange(batch)
    taken = q[idx, actions]
    err = taken - targets
    loss = float(np.mean(err**2))

    delta = np.zeros_like(q)
    delta[idx, actions] = 2.0 * err / batch
    grads_w = [None] * net.num_layers
    grads_b = [None] * net.num_layers
    for layer in range(net.num_layers - 1, -1, -1):
        a_prev = activations[layer]
        grads_w[layer] = a_prev.T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (activations[layer] > 0.0)
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend((gw, gb))
    return loss, grads


def reference_adam_step(adam: ReferenceAdamState, params: list, grads: list) -> None:
    """One in-place update of every parameter."""
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    bias1 = 1.0 - b1**adam.t
    bias2 = 1.0 - b2**adam.t
    for p, g, m, v in zip(params, grads, adam.m, adam.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= adam.lr * (m / bias1) / (np.sqrt(v / bias2) + adam.eps)


def reference_train_step(net: MlpNetwork, adam: ReferenceAdamState, batch, gamma: float,
                         target_net: MlpNetwork | None = None) -> float:
    """``uavmec.deep.train_batch`` on a ``TransitionBatch`` by the reference path."""
    live = np.where(batch.terminals, 0.0, 1.0)
    bootstrap_net = target_net if target_net is not None else net
    next_q = reference_forward_cached(bootstrap_net, batch.next_states)[-1]
    targets = batch.rewards + gamma * live * next_q.max(axis=1)

    loss, grads = reference_loss_and_grads(net, batch.states, batch.actions, targets)
    reference_adam_step(adam, net.parameters(), grads)
    return loss


def reference_snapshots(cfg: AppConfig, result: EpisodeResult) -> list:
    """Every decision snapshot of a logged episode, in decision order.

    A task's first arrival is its decision.  Processing times, transfer
    delays, type code, deadline and the energy constant are read from
    ``cfg`` afresh for each decision.  Predicted delays replay each unit's
    drain time over the enqueues logged before the decision; battery
    fractions replay the busy intervals logged before it.
    """
    sim, p = cfg.sim, cfg.energy
    num_uavs, num_units = sim.num_uavs, sim.num_units
    by_task = {r.task_id: r for r in result.placements}
    const = (p.hover_power_w + p.antenna_power_w + p.cpu_idle_power_w) * p.power_scale
    extra = (p.cpu_busy_power_w - p.cpu_idle_power_w) * p.power_scale
    free_at = [0.0] * num_units
    busy = [0.0] * num_uavs
    open_since: list = [None] * num_uavs
    decided: set = set()
    snaps = []
    for time, kind, task_id, unit in result.events:
        if kind == TASK_START and unit < num_uavs:
            open_since[unit] = time
        elif kind == TASK_COMPLETE and unit < num_uavs:
            busy[unit] += time - open_since[unit]
            open_since[unit] = None
        if kind != TASK_ARRIVAL:
            continue
        task = by_task[task_id]
        spec = cfg.tasks[task.type_id]
        if task_id not in decided:
            decided.add(task_id)
            proc_times = tuple(spec.proc_time(sim.unit_is_mec(u)) for u in range(num_units))
            batteries = []
            for u in range(num_uavs):
                busy_now = busy[u]
                if open_since[u] is not None:
                    busy_now += max(0.0, time - open_since[u])
                drained = (const * time + extra * busy_now) / 3600.0
                batteries.append((p.battery_capacity_wh - drained) / p.battery_capacity_wh)
            snaps.append(NetworkSnapshot(
                deciding_uav=task.origin_uav,
                task_type=task.type_id,
                type_code=task.type_id / (len(cfg.tasks) - 1) if len(cfg.tasks) > 1 else 0.0,
                unit_delays=tuple(
                    max(free_at[u] - time, 0.0) + proc_times[u] for u in range(num_units)
                ),
                unit_batteries=tuple(batteries) + (math.inf,) * sim.num_mecs,
                transfer_delays=tuple(
                    sim.transfer_delay(task.origin_uav, u) for u in range(num_units)
                ),
                proc_times=proc_times,
                iot_delay=sim.iot_to_uav_delay,
                deadline=spec.deadline,
                busy_frac_per_sec=extra / 3600.0 / p.battery_capacity_wh,
                num_uavs=num_uavs,
            ))
        if unit == task.chosen_unit:
            free_at[unit] = max(free_at[unit], time) + spec.proc_time(sim.unit_is_mec(unit))
    return snaps


def snapshot_is_sane(snap: NetworkSnapshot) -> bool:
    """Structural check of a decision snapshot: per-unit tuples agree in
    length, the deciding UAV is a UAV with no transfer delay to itself, delays
    are non-negative and every MEC carries the infinite battery sentinel."""
    n = snap.num_units
    if not (len(snap.unit_batteries) == len(snap.transfer_delays) == len(snap.proc_times) == n):
        return False
    if not 0 <= snap.deciding_uav < snap.num_uavs <= n:
        return False
    if snap.transfer_delays[snap.deciding_uav] != 0.0:
        return False
    if any(d < 0 for d in snap.unit_delays):
        return False
    return all(math.isinf(snap.unit_batteries[u]) for u in range(snap.num_uavs, n))


def plateau_threshold(smoothed, fraction: float = 0.9, tail_fraction: float = 0.1) -> float:
    """Threshold at ``fraction`` of the climb from the initial level to the
    final plateau (mean of the last ``tail_fraction`` of points)."""
    if not smoothed:
        raise ValueError("empty series")
    tail = max(1, int(len(smoothed) * tail_fraction))
    plateau = float(np.mean(smoothed[-tail:]))
    start = float(smoothed[0])
    return start + fraction * (plateau - start)


def reference_key(grid: DiscretizationGrid, snap: NetworkSnapshot) -> tuple:
    """Discretize the base-layout vector [type, J+ delays, J batteries] of ``snap``."""
    state = encode_state(snap)
    expected = 1 + grid.num_units + grid.num_uavs
    if len(state) != expected:
        raise ValueError(f"expected base-layout state of width {expected}, got {len(state)}")
    type_idx = int(round(state[0] * (grid.num_types - 1))) if grid.num_types > 1 else 0
    delays = tuple(grid.delay_bin(d) for d in state[1 : 1 + grid.num_units])
    batteries = tuple(
        grid.battery_bin(b) for b in state[1 + grid.num_units : 1 + grid.num_units + grid.num_uavs]
    )
    return (type_idx, *delays, *batteries)
