"""Independent oracles for the kernel and the deep learner.

The event-log replay recomputes every completed task's end-to-end latency and
every UAV's busy seconds from the raw (time, kind, task_id, unit) event tuples
alone, without touching the kernel's incremental bookkeeping.  It is the
oracle for the violation flags and the battery levels.

``ReplayBuffer`` and ``train_batch`` below are the original object-list
replay memory and batch step: a list of ``Transition`` objects, batches
assembled with ``np.stack`` and list comprehensions, kept unchanged but for
handing Adam the flat vectors behind the parameter and gradient views.  They
are the oracle for the one-table ring in ``uavmec.deep``.

``ReferenceAdamState``, ``reference_forward_cached``,
``reference_loss_and_grads`` and ``reference_adam_step`` are the network step
with every temporary a fresh array and Adam run per parameter array.  Each
layer is the folded product ``[a | 1] @ [W ; b]`` built with ``np.hstack``
and ``np.vstack``, and each bias gradient is the last row of ``[a | 1].T @
delta``.  With ``reference_train_step`` they are the oracle for the shared
workspaces, the folded layer blocks, the flat parameter and gradient vectors
and the flat Adam update in ``uavmec.nnet``.  ``reference_unfolded_train_step``
is the same step in the original arithmetic, ``a @ W + b`` and column sums
for the bias gradients; it bounds how far the folding moved the rounding.

``reference_snapshots`` rebuilds every decision snapshot of an episode from
the config and the event log, each field on its own at each decision.  It is
the oracle for the kernel's per-episode decision tables.

``reference_key`` is the tabular key by way of the deep agent's state
vector (``encode_state``, then slicing it by position), as the learner once
computed it, each delay binned by ``np.searchsorted``.  It is the oracle for
``DiscretizationGrid.key``, which cuts the key straight from the snapshot's
fields and bins each field with one comprehension.

``reference_generate_arrivals`` is the original one-draw-per-task stream
sampler, a scalar ``rng.exponential`` and a running sum per task.  It is the
oracle for the bulk draws and ``np.cumsum`` in ``uavmec.arrivals``.
``reference_build_task_table`` is the original merge: each stream's records
from it, one keyed sort of the joined list, then a pass renumbering the ids.
It is the oracle for the array merge in ``uavmec.arrivals.build_task_table``.

``reference_epsilon_greedy`` (``np.asarray`` and ``np.argmax`` on every
call), ``reference_q_update`` (the in-place ``row[action] += ...`` step on
NumPy scalars) and ``reference_qtable_body`` / ``reference_parse_qtable_row``
(per-value ``format(x, ".17g")`` and per-line ``float()``) are the original
learner path, kept unchanged.  They are the oracles for the fast paths in
``uavmec.exploration`` and ``uavmec.tabular``; ``reference_tensor_line`` is the
same text oracle for ``uavmec.nnet.save_mlp``.

``ReferenceAgentPipeline`` is the original decision pipeline, kept
unchanged: every decision is queued as a ``Transition`` in a deque, which a
flush loop releases once its reward and successor are known.  It is the
oracle for ``uavmec.simulation._AgentPipeline``, which has the same
one-queue design in both reward modes and reads the mode once per pipeline.

``reference_battery_tier`` is the original tier rule, which copies the
UAV batteries into a list, charges the chosen one and compares it against
the list's maximum.  It is the oracle for ``uavmec.mdp.battery_tier``.

``ReferenceHefPolicy`` and ``ReferenceQhefPolicy`` are the original
heuristic selects: HEF finds its best-charged UAV with ``max`` over the UAV
indices keyed by battery, and QHEF lists the units within the tie tolerance
of the minimum delay and takes ``max`` of them keyed by ``(battery, -unit)``.
They are the oracles for the one-pass selects in ``uavmec.heuristics``.

``task_table``, ``run_on_table`` and ``ScriptedPlacements`` run the kernel
on a hand-made task table, with exact (dyadic) times where a test needs
ties, in place of the drawn one.  ``assert_tie_rule`` checks an event log
against the kernel's order of equal-time events.

``snapshot_is_sane`` and ``plateau_threshold`` are structural and
convergence oracles that only tests use; ``make_snapshot`` builds a
hand-made decision snapshot of the default 4 UAV + 1 MEC fleet, and
``zero_net`` a network of zeros.  ``CONFIGS`` is the directory of the shipped
configs; ``desk_config()`` loads its ``desk.yaml`` for every desk-scale test.
"""

import math
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np

from uavmec import simulation
from uavmec.arrivals import TaskInstance, arrival_rng
from uavmec.config import AppConfig, load_config
from uavmec.heuristics import ENERGY_GAP_THRESHOLD, QUEUE_TIE_TOLERANCE, HefPolicy, QhefPolicy
from uavmec.mdp import (
    NetworkSnapshot, Transition, assemble_reward, compute_reward_parts, encode_state, type_code,
)
from uavmec.nnet import AdamState, MlpNetwork, adam_step, forward, loss_and_grads
from uavmec.simulation import (
    EPISODE_END, EpisodeResult, SimulationError, TASK_ARRIVAL, TASK_COMPLETE, TASK_START,
)
from uavmec.tabular import DiscretizationGrid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def desk_config() -> AppConfig:
    return load_config(CONFIGS / "desk.yaml")


def zero_net(dims) -> MlpNetwork:
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    return MlpNetwork(dims, weights, biases)


def replay_delays(cfg: AppConfig, result: EpisodeResult) -> dict:
    """Per completed task: recomputed (queue_wait, service, elapsed, transfer,
    violated).  ``service`` is the configured service time on the serving
    unit, which the violation flag counts; ``elapsed`` is finish minus start
    in the log, which off a dyadic grid can differ from it in its last bit."""
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
        service = cfg.tasks[rec.type_id].proc_time(cfg.sim.unit_is_mec(rec.chosen_unit))
        transfer = (
            0.0
            if rec.chosen_unit == rec.origin_uav
            else cfg.sim.transfer_delay(rec.origin_uav, rec.chosen_unit)
        )
        total = cfg.sim.iot_to_uav_delay + transfer + wait + service
        violated = total > cfg.tasks[rec.type_id].deadline
        out[task_id] = (wait, service, finish - start, transfer, violated)
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


def task_table(cfg: AppConfig, arrivals) -> list:
    """A task table from ``(uav, type_id, arrival_time)`` triples in arrival
    order: ids by position, each emitted one sensor hop before its arrival
    and due its class deadline after its emission."""
    iot = cfg.sim.iot_to_uav_delay
    return [
        TaskInstance(i, type_id, uav, arrival - iot, arrival,
                     (arrival - iot) + cfg.tasks[type_id].deadline)
        for i, (uav, type_id, arrival) in enumerate(arrivals)
    ]


def run_on_table(cfg: AppConfig, policies: list, table: list,
                 collect_events: bool = True) -> EpisodeResult:
    """``run_episode`` over ``table`` in place of the drawn task table."""
    with mock.patch.object(simulation, "build_task_table", lambda *args: table):
        return simulation.run_episode(cfg, policies, arrival_seed=0,
                                      collect_events=collect_events)


class ScriptedPlacements:
    """Places the tasks on the given units in decision order, which on a
    fixed table is task-id order, and keeps every decision's snapshot.  One
    object serves every UAV."""

    wants_transitions = False

    def __init__(self, units):
        self.units = list(units)
        self.seen = []

    def select(self, snap):
        self.seen.append(snap)
        return self.units[len(self.seen) - 1]


_TIE_RANK = {TASK_COMPLETE: 0, TASK_ARRIVAL: 1, EPISODE_END: 2}


def assert_tie_rule(events: list) -> None:
    """Events of one instant run completions first, then arrivals by task id,
    then the end marker, which closes the log; each start comes right after
    the completion or arrival at its unit that fed it."""
    assert events and events[-1][1] == EPISODE_END
    last_key = None
    prev = None
    for event in events:
        time, kind, task_id, unit = event
        if kind == TASK_START:
            assert prev is not None and prev[0] == time and prev[3] == unit, (
                f"start {event} does not follow an event at its unit: {prev}")
            assert prev[1] == TASK_COMPLETE or (prev[1] == TASK_ARRIVAL and prev[2] == task_id), (
                f"start {event} follows {prev}")
        else:
            key = (time, _TIE_RANK[kind], task_id)
            assert last_key is None or key >= last_key, f"{event} logged after {last_key}"
            last_key = key
        prev = event


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
    adam_step(adam, net.flat, grads[0].base)
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


def _with_ones(a: np.ndarray) -> np.ndarray:
    return np.hstack([a, np.ones((a.shape[0], 1))])


def reference_forward_cached(net: MlpNetwork, x: np.ndarray, folded: bool = True):
    """Batch forward keeping post-activation values per layer for backprop.

    ``folded`` computes each layer as ``[a | 1] @ [W ; b]``, else as
    ``a @ W + b``.
    """
    activations = [np.asarray(x, dtype=np.float64)]
    last = net.num_layers - 1
    a = activations[0]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = _with_ones(a) @ np.vstack([w, b]) if folded else a @ w + b
        if layer != last:
            a = np.maximum(a, 0.0)
        activations.append(a)
    return activations


def reference_loss_and_grads(net: MlpNetwork, states: np.ndarray, actions: np.ndarray,
                             targets: np.ndarray, folded: bool = True):
    """MSE over the taken actions' Q-values, with gradients for every parameter.

    loss = mean_i (Q(s_i)[a_i] - y_i)^2.  Returns (loss, grads) with grads
    ordered like net.parameters().  ``folded`` takes each layer's weight and
    bias gradients from one product ``[a | 1].T @ delta``, else the bias
    gradient is ``delta``'s column sums.
    """
    batch = states.shape[0]
    activations = reference_forward_cached(net, states, folded)
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
        if folded:
            both = _with_ones(a_prev).T @ delta
            grads_w[layer], grads_b[layer] = both[:-1], both[-1]
        else:
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
                         target_net: MlpNetwork | None = None, folded: bool = True) -> float:
    """``uavmec.deep.train_batch`` on a ``TransitionBatch`` by the reference path."""
    live = np.where(batch.terminals, 0.0, 1.0)
    bootstrap_net = target_net if target_net is not None else net
    next_q = reference_forward_cached(bootstrap_net, batch.next_states, folded)[-1]
    targets = batch.rewards + gamma * live * next_q.max(axis=1)

    loss, grads = reference_loss_and_grads(net, batch.states, batch.actions, targets, folded)
    reference_adam_step(adam, net.parameters(), grads)
    return loss


def reference_unfolded_train_step(net: MlpNetwork, adam: ReferenceAdamState, batch, gamma: float,
                                  target_net: MlpNetwork | None = None) -> float:
    """The reference step with each layer as ``a @ W + b`` and each bias
    gradient a column sum, as the network computed before its layers were
    folded."""
    return reference_train_step(net, adam, batch, gamma, target_net, folded=False)


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


def reference_key(grid: DiscretizationGrid, snap: NetworkSnapshot, num_types: int) -> tuple:
    """Discretize the base-layout vector [type, J+ delays, J batteries] of
    ``snap``, one of ``num_types`` task types."""
    state = encode_state(snap)
    if len(state) != grid.key_width:
        raise ValueError(f"expected base-layout state of width {grid.key_width}, got {len(state)}")
    type_idx = int(round(state[0] * (num_types - 1))) if num_types > 1 else 0
    edges = np.asarray(grid.delay_edges)
    delays = tuple(
        int(np.searchsorted(edges, d, side="right")) for d in state[1 : 1 + grid.num_units]
    )
    # encode_state has clamped the fractions to [0, 1]; 1.0 joins the top bin.
    bins = grid.battery_bins
    batteries = tuple(
        min(int(b * bins), bins - 1)
        for b in state[1 + grid.num_units :]
    )
    return (type_idx, *delays, *batteries)


def reference_generate_arrivals(spec, type_id, uav, horizon, iot_delay, rng, id_start=0):
    """One stream of tasks, one exponential draw per task, up to the horizon."""
    tasks = []
    t = 0.0
    next_id = id_start
    while True:
        t += rng.exponential(spec.mean_interarrival)
        arrival = t + iot_delay
        if arrival >= horizon:
            break
        tasks.append(
            TaskInstance(
                task_id=next_id,
                type_id=type_id,
                origin_uav=uav,
                emission_time=t,
                arrival_time=arrival,
                deadline_abs=t + spec.deadline,
            )
        )
        next_id += 1
    return tasks


def reference_build_task_table(sim, tasks, seed, episode, rng_for=arrival_rng):
    """All streams of one episode, sorted by (arrival, UAV, type), ids renumbered.

    ``rng_for(seed, episode, uav, type_id)`` gives each stream's generator.
    """
    table = []
    for uav in range(sim.num_uavs):
        for type_id, spec in enumerate(tasks):
            rng = rng_for(seed, episode, uav, type_id)
            table.extend(
                reference_generate_arrivals(
                    spec, type_id, uav, sim.episode_duration, sim.iot_to_uav_delay, rng
                )
            )
    table.sort(key=lambda t: (t.arrival_time, t.origin_uav, t.type_id))
    for i, task in enumerate(table):
        task.task_id = i
    return table


def reference_epsilon_greedy(q_values, epsilon: float, rng: np.random.Generator) -> int:
    """Pick uniformly with probability epsilon, else the greedy action."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    q = np.asarray(q_values, dtype=np.float64)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("q_values must be a non-empty vector")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.size))
    return int(np.argmax(q))


def reference_q_update(
    table: dict, key: tuple, action: int, reward: float, next_key: tuple, num_actions: int,
    alpha: float, gamma: float, terminal: bool = False,
) -> float:
    """One temporal-difference step; returns the updated Q(key, action)."""
    row = table.get(key)
    if row is None:
        row = np.zeros(num_actions, dtype=np.float64)
        table[key] = row
    bootstrap = 0.0
    if not terminal:
        next_row = table.get(next_key)
        bootstrap = float(next_row.max()) if next_row is not None else 0.0
    row[action] += alpha * (reward + gamma * bootstrap - row[action])
    return float(row[action])


def reference_qtable_body(table: dict) -> list:
    """One agent's q-table as body lines: a sorted state key and its Q-row each."""
    return [
        ",".join(str(x) for x in key) + " | " + " ".join(format(x, ".17g") for x in table[key])
        for key in sorted(table)
    ]


def reference_parse_qtable_row(line: str) -> tuple:
    """(state key, Q-row) of one body line."""
    key_txt, q_txt = line.split(" | ")
    key = tuple(int(x) for x in key_txt.split(","))
    return key, np.array([float(x) for x in q_txt.split()], dtype=np.float64)


def reference_tensor_line(name: str, tensor: np.ndarray) -> str:
    shape = "x".join(str(s) for s in tensor.shape)
    values = " ".join(format(v, ".17g") for v in tensor.reshape(-1))
    return f"tensor {name} {shape} {values}"


class ReferenceAgentPipeline:
    """Turns one learner's decision stream into ordered transitions.

    Each decision is queued once, as the ``Transition`` it will ingest.  Its
    successor state is the state of the same agent's next decision; its
    reward is known at once, or in deferred mode when the task resolves.
    Transitions are released in decision order.
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
                self.pending.pop()
        self._flush()

    def _flush(self) -> None:
        pending = self.pending
        while pending and pending[0].reward is not None and pending[0].next_state is not None:
            self.policy.ingest(pending.popleft())


def reference_battery_tier(snap: NetworkSnapshot, action: int, cfg) -> float:
    """Tier value for how the chosen unit's expected battery compares to the fleet."""
    high, low, mid = cfg.tier_values
    if action >= snap.num_uavs:
        return high
    expected = list(snap.unit_batteries[: snap.num_uavs])
    expected[action] -= snap.proc_times[action] * snap.busy_frac_per_sec
    diff = expected[action] - max(expected)
    if diff >= -cfg.energy_threshold:
        return high
    if diff <= -2.0 * cfg.energy_threshold:
        return low
    return mid


class ReferenceHefPolicy(HefPolicy):
    """Highest energy first, the best UAV found by a keyed ``max``."""

    def select(self, snap: NetworkSnapshot) -> int:
        n = snap.num_units
        num_mecs = n - snap.num_uavs
        if num_mecs > 0:
            u = self.rng.random()
            if u < num_mecs / n:
                return snap.num_uavs + int(u * n)
        batteries = snap.unit_batteries
        best = max(range(snap.num_uavs), key=batteries.__getitem__)
        if batteries[best] - batteries[snap.deciding_uav] > ENERGY_GAP_THRESHOLD:
            return best
        return snap.deciding_uav


class ReferenceQhefPolicy(QhefPolicy):
    """Queue-aware HEF, the winner taken by ``max`` over a candidate list."""

    def select(self, snap: NetworkSnapshot) -> int:
        delays = snap.unit_delays
        cutoff = min(delays) + QUEUE_TIE_TOLERANCE
        candidates = [u for u in range(snap.num_units) if delays[u] <= cutoff]
        best = max(candidates, key=lambda u: (snap.unit_batteries[u], -u))
        if best == snap.deciding_uav:
            return best
        if snap.unit_batteries[best] - snap.unit_batteries[snap.deciding_uav] > ENERGY_GAP_THRESHOLD:
            return best
        return snap.deciding_uav
