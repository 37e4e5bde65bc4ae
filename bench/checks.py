"""Output checks of the benchmark, computed apart from the program.

Each check raises ``CheckFailed`` with a message naming what disagreed.  The
replay reads only the raw ``(time, kind, task_id, unit)`` event log and the
configuration; it shares no bookkeeping with the kernel.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

ARRIVAL, START, COMPLETE = "arrival", "start", "complete"
BATTERY_TOL = 1e-9
CSV_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- episodes: brute-force replay of the event log ---------------------------


def _transfer_delay(sim, origin: int, unit: int) -> float:
    if unit == origin:
        return 0.0
    return sim.uav_to_mec_delay if unit >= sim.num_uavs else sim.uav_to_uav_delay


def _service_time(cfg, type_id: int, unit: int) -> float:
    spec = cfg.tasks[type_id]
    return spec.proc_time_mec if unit >= cfg.sim.num_uavs else spec.proc_time_uav


def check_episode_replay(cfg, result) -> None:
    """Violation flags, per-unit violation counts, battery and task
    conservation of one episode, recomputed from its event log."""
    require(result.events is not None, "episode was run without its event log")
    sim, power = cfg.sim, cfg.energy
    placements = {rec.task_id: rec for rec in result.placements}
    enqueue_at, start_at, finish_at, start_unit = {}, {}, {}, {}
    for time, kind, task_id, unit in result.events:
        if kind == ARRIVAL:
            enqueue_at[task_id] = time  # the last arrival is the one at the serving unit
        elif kind == START:
            start_at[task_id], start_unit[task_id] = time, unit
        elif kind == COMPLETE:
            finish_at[task_id] = time

    violations = [0] * sim.num_units
    busy = [0.0] * sim.num_uavs
    for time, kind, task_id, unit in result.events:
        if kind == COMPLETE and unit < sim.num_uavs:
            busy[unit] += time - start_at[task_id]
    for task_id, started in start_at.items():
        unit = start_unit[task_id]
        if task_id not in finish_at and unit < sim.num_uavs:
            busy[unit] += result.duration - started

    for task_id, rec in placements.items():
        deadline = cfg.tasks[rec.type_id].deadline
        require(rec.deadline_abs == rec.emission_time + deadline,
                f"task {task_id}: absolute deadline is not emission + class deadline")
        if task_id in finish_at:
            unit = start_unit[task_id]
            require(unit == rec.chosen_unit, f"task {task_id} served away from its chosen unit")
            service = _service_time(cfg, rec.type_id, unit)
            require(abs((finish_at[task_id] - start_at[task_id]) - service) <= 1e-9,
                    f"task {task_id}: service lasted {finish_at[task_id] - start_at[task_id]}")
            wait = start_at[task_id] - enqueue_at[task_id]
            total = sim.iot_to_uav_delay + _transfer_delay(sim, rec.origin_uav, unit) + (wait + service)
            violated = total > deadline
            require(rec.violated == violated,
                    f"task {task_id}: violation flag {rec.violated}, replay says {violated}")
        elif task_id in start_at:
            service = _service_time(cfg, rec.type_id, rec.chosen_unit)
            violated = start_at[task_id] + service > rec.deadline_abs
        else:
            violated = rec.deadline_abs <= result.duration
        violations[rec.chosen_unit] += violated
    require(list(result.violations_by_unit) == violations,
            f"violations by unit {result.violations_by_unit}, replay says {violations}")
    require(result.violations_total == sum(violations), "violation total is not the sum by unit")

    constant_w = (power.hover_power_w + power.antenna_power_w + power.cpu_idle_power_w) * power.power_scale
    extra_w = (power.cpu_busy_power_w - power.cpu_idle_power_w) * power.power_scale
    for uav in range(sim.num_uavs):
        wh = power.battery_capacity_wh - (constant_w * result.duration + extra_w * busy[uav]) / 3600.0
        expected = wh / power.battery_capacity_wh
        require(abs(result.battery_fraction[uav] - expected) <= BATTERY_TOL,
                f"uav{uav}: battery {result.battery_fraction[uav]!r}, closed form {expected!r}")

    completed = len(finish_at)
    in_service = len(start_at) - completed
    in_queue = len(placements) - len(start_at)
    require(result.tasks_generated == len(placements), "not every generated task was placed")
    require(
        (result.tasks_completed, result.tasks_in_service, result.tasks_in_queue)
        == (completed, in_service, in_queue),
        f"completed/in service/queued {result.tasks_completed}/{result.tasks_in_service}/"
        f"{result.tasks_in_queue}, replay says {completed}/{in_service}/{in_queue}",
    )
    require(result.tasks_generated == completed + in_service + in_queue,
            "generated tasks != completed + queued + in service")


def check_round_robin_balance(result, num_units: int) -> None:
    """Under round robin each UAV's placements per unit differ by at most one."""
    per_origin: dict[int, Counter] = {}
    for rec in result.placements:
        per_origin.setdefault(rec.origin_uav, Counter())[rec.chosen_unit] += 1
    for origin, counts in per_origin.items():
        spread = [counts.get(u, 0) for u in range(num_units)]
        require(max(spread) - min(spread) <= 1, f"uav{origin} round robin placements {spread}")


# --- deep learner ------------------------------------------------------------


def _forward(weights, biases, states):
    a = states
    for layer, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if layer < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def _hidden_margin(weights, biases, states):
    """Smallest |pre-activation| of every hidden unit, per sample."""
    margin = np.full(states.shape[0], np.inf)
    a = states
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        margin = np.minimum(margin, np.abs(z).min(axis=1))
        a = np.maximum(z, 0.0)
    return margin


def clear_rows(net, states, margin: float = 1e-2):
    """Indices of samples whose hidden pre-activations all stay ``margin`` away
    from the ReLU kink, so a finite difference never straddles it."""
    return np.flatnonzero(_hidden_margin(net.weights, net.biases, states) > margin)


def check_gradients(net, states, actions, targets, loss_and_grads, h: float = 1e-5) -> None:
    """``loss_and_grads`` against central differences of an independent loss.

    For one weight at a time a ReLU network's output is piecewise linear, so
    the squared loss is piecewise quadratic and central differences are exact
    away from kinks; only rounding (~eps * loss / h) remains.
    """
    idx = np.arange(len(actions))

    def loss(weights, biases):
        q = _forward(weights, biases, states)
        return float(np.mean((q[idx, actions] - targets) ** 2))

    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    base_loss, grads = loss_and_grads(net, states, actions, targets)
    require(math.isfinite(base_loss), f"loss {base_loss} is not finite")
    require(abs(base_loss - loss(weights, biases)) <= 1e-9 * max(1.0, abs(base_loss)),
            "loss differs from the independent forward pass")
    params = [p for pair in zip(weights, biases) for p in pair]
    require(len(grads) == len(params), "one gradient per parameter expected")
    atol = 1e-7 * max(1.0, base_loss)
    for number, (param, grad) in enumerate(zip(params, grads)):
        require(grad.shape == param.shape, f"gradient {number} has shape {grad.shape}")
        flat = param.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss(weights, biases)
            flat[i] = orig - h
            lo = loss(weights, biases)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2 * h)
        err = np.abs(grad.reshape(-1) - numeric)
        worst = int(np.argmax(err - 1e-5 * np.abs(numeric)))
        require(err[worst] <= atol + 1e-5 * abs(numeric[worst]),
                f"gradient {number}[{worst}]: analytic {grad.reshape(-1)[worst]!r}, "
                f"finite difference {numeric[worst]!r}")


def check_train_steps(agents, ingested: list) -> None:
    """Each agent trains once per ingested transition once its batch is full."""
    for i, (agent, count) in enumerate(zip(agents, ingested)):
        expected = max(0, count - agent.batch_size + 1)
        require(agent.train_steps == expected,
                f"agent {i}: {agent.train_steps} train steps after {count} transitions, "
                f"expected {expected}")
        require(len(agent.buffer) == min(count, agent.buffer.capacity),
                f"agent {i}: replay holds {len(agent.buffer)} of {count} ingested transitions")


def check_finite_training(agents, losses: list) -> None:
    """Every recorded loss and every parameter is finite.  A non-finite loss
    at any step would have made Adam's moments, and so the weights, non-finite
    for good, so finite weights at the end cover the steps not recorded."""
    require(all(math.isfinite(x) for x in losses), f"non-finite loss among {losses}")
    for i, agent in enumerate(agents):
        for p in agent.net.parameters():
            require(bool(np.isfinite(p).all()), f"agent {i}: non-finite weights")


def check_same_q_values(nets_a, nets_b, states) -> None:
    """Two sets of networks give exactly the same Q-values."""
    require(len(nets_a) == len(nets_b), "agent counts differ")
    for i, (a, b) in enumerate(zip(nets_a, nets_b)):
        qa = _forward(a.weights, a.biases, states)
        qb = _forward(b.weights, b.biases, states)
        require(np.array_equal(qa, qb), f"agent {i}: reloaded Q-values differ")


# --- compare reports ---------------------------------------------------------


def read_csv_rows(path) -> tuple[dict, list]:
    """(metadata, rows as dicts) of a report with ``# key: value`` header lines."""
    meta, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                meta[key] = value
            else:
                body.append(line)
    return meta, list(csv.DictReader(body))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_TOL * max(1.0, abs(a), abs(b))


def check_summary(out_dir, w: float, policies, seeds: int) -> None:
    """summary.csv recomputed from battery.csv and violations.csv."""
    out = Path(out_dir)
    _, battery = read_csv_rows(out / "battery.csv")
    _, violations = read_csv_rows(out / "violations.csv")
    _, summary = read_csv_rows(out / "summary.csv")
    min_battery: dict = {}
    for row in battery:
        key = (row["policy"], int(row["seed"]))
        value = float(row["battery_fraction"])
        min_battery[key] = min(min_battery.get(key, value), value)
    pct: dict = {}
    for row in violations:
        key = (row["policy"], int(row["seed"]))
        pct[key] = pct.get(key, 0.0) + float(row["violation_pct"])
    expected_keys = {(p, s) for p in policies for s in range(seeds)}
    require(set(min_battery) == expected_keys, f"battery.csv covers {sorted(min_battery)}")
    require(set(pct) == expected_keys, f"violations.csv covers {sorted(pct)}")
    require(sorted(r["policy"] for r in summary) == sorted(policies),
            "summary.csv does not list every policy exactly once")

    def mean_std(values):
        return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0

    for row in summary:
        keys = [(row["policy"], s) for s in range(seeds)]
        bat = [min_battery[k] for k in keys]
        vio = [pct[k] for k in keys]
        obj = [w * b - (1.0 - w) * v / 100.0 for b, v in zip(bat, vio)]
        for column, values in (("min_battery", bat), ("violation_pct", vio), ("objective", obj)):
            mean, std = mean_std(values)
            for stat, value in (("mean", mean), ("std", std)):
                got = float(row[f"{column}_{stat}"])
                require(_close(got, value),
                        f"summary {row['policy']} {column}_{stat} {got!r}, recomputed {value!r}")
    ranked = [(-float(r["objective_mean"]), r["policy"]) for r in summary]
    require(ranked == sorted(ranked), "summary.csv is not ranked by objective")


def reward_bounds(mdp) -> tuple[float, float]:
    """Smallest and largest one-step reward of any tier and penalty branch."""
    rewards = [tier for tier in mdp.tier_values]
    penalties = (mdp.penalty_mec, mdp.penalty_local, mdp.penalty_other_uav, mdp.penalty_unavoidable)
    rewards += [tier - 1.0 + p for tier in mdp.tier_values for p in penalties]
    return min(rewards), max(rewards)


def read_qtable_values(path) -> list:
    """Every Q-value in a q-table checkpoint, read without the program's parser."""
    values = []
    with open(path) as fh:
        for line in fh:
            if " | " in line:
                values.extend(float(x) for x in line.split(" | ", 1)[1].split())
    return values


def check_qtable_bounds(path, mdp, discount: float) -> None:
    """Q-learning keeps every value within [r_min, r_max] / (1 - gamma): each
    update is a convex combination of the old value and a target that the
    bound maps into itself."""
    r_min, r_max = reward_bounds(mdp)
    lo, hi = min(0.0, r_min) / (1.0 - discount), max(0.0, r_max) / (1.0 - discount)
    values = read_qtable_values(path)
    require(bool(values), f"{path} holds no Q-values")
    slack = 1e-9 * max(abs(lo), abs(hi))
    worst_lo, worst_hi = min(values), max(values)
    require(lo - slack <= worst_lo and worst_hi <= hi + slack,
            f"Q-values span [{worst_lo!r}, {worst_hi!r}] outside [{lo!r}, {hi!r}]")


def read_outputs(out_dir) -> dict:
    """Name -> bytes of every file a run left in ``out_dir``."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def check_same_outputs(first: dict, again: dict, what: str) -> None:
    require(sorted(first) == sorted(again), f"{what}: files {sorted(again)}, first run {sorted(first)}")
    for name in first:
        require(first[name] == again[name], f"{what}: {name} differs from the first run")
