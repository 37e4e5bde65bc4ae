"""Run metrics, convergence analysis and CSV reports.

Every CSV starts with a ``#`` metadata comment block (tool version, config
hash, seed info; never wall-clock timestamps, so reruns are byte-identical),
then a header row, then data rows.  Floats are written with repr so they
round-trip exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checkpoint import write_atomic
from .simulation import EpisodeResult


@dataclass
class RunMetrics:
    """Aggregated outcome of one evaluation run (one seed, >= 1 episodes)."""

    policy: str
    seed_index: int
    battery_fraction: list  # per UAV, averaged over the seed's episodes
    violations_by_unit: list  # summed over episodes
    total_tasks: int
    total_completed: int
    cumulative_reward: list | None = None  # unused; bench/test_checks.py still passes one

    @property
    def min_battery_fraction(self) -> float:
        return min(self.battery_fraction)

    @property
    def total_violations(self) -> int:
        return int(sum(self.violations_by_unit))


def objective_value(min_battery_fraction: float, total_violations: int, theta: float, w: float) -> float:
    """Weighted objective: w * worst battery fraction - (1-w)/theta * violations.

    theta <= 0 (an empty run) degenerates to the battery term alone.
    """
    if theta <= 0:
        return w * min_battery_fraction
    return w * min_battery_fraction - (1.0 - w) / theta * total_violations


def run_objective(m: RunMetrics, w: float, theta_mode="total_tasks") -> float:
    theta = float(m.total_tasks) if theta_mode == "total_tasks" else float(theta_mode)
    return objective_value(m.min_battery_fraction, m.total_violations, theta, w)


def violation_distribution(violations_by_unit, total_tasks: int) -> list:
    """Per-unit violation percentages of all generated tasks (0s when no tasks)."""
    if total_tasks <= 0:
        return [0.0 for _ in violations_by_unit]
    return [100.0 * v / total_tasks for v in violations_by_unit]


def metrics_from_episodes(policy: str, seed_index: int, episodes: list) -> RunMetrics:
    """Collapse one seed's episodes into a RunMetrics."""
    if not episodes:
        raise ValueError("need at least one episode")
    num_units = len(episodes[0].violations_by_unit)
    battery = np.mean([ep.battery_fraction for ep in episodes], axis=0)
    violations = np.zeros(num_units, dtype=int)
    for ep in episodes:
        violations += np.asarray(ep.violations_by_unit, dtype=int)
    return RunMetrics(
        policy=policy,
        seed_index=seed_index,
        battery_fraction=list(map(float, battery)),
        violations_by_unit=[int(v) for v in violations],
        total_tasks=sum(ep.tasks_generated for ep in episodes),
        total_completed=sum(ep.tasks_completed for ep in episodes),
    )


def moving_average(series, window: int):
    """Trailing moving average with a min/max band over the same window.

    Prefix positions average whatever history exists, so the output has the
    input's length.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = list(map(float, series))
    smoothed, lo, hi = [], [], []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        start = max(0, i - window + 1)
        span = values[start : i + 1]
        smoothed.append(acc / (i - start + 1))
        lo.append(min(span))
        hi.append(max(span))
    return smoothed, lo, hi


def convergence_episode(smoothed, threshold: float, patience: int) -> int | None:
    """First index from which the smoothed series holds >= threshold for
    ``patience`` consecutive points; None if that never happens."""
    if patience < 1:
        raise ValueError("patience must be >= 1")
    run = 0
    for i, v in enumerate(smoothed):
        if v >= threshold:
            run += 1
            if run >= patience:
                return i - patience + 1
        else:
            run = 0
    return None


def convergence_summary(per_agent_rewards, window: int, threshold: float, patience: int):
    """Convergence episode of the agent-mean smoothed curve at an absolute
    threshold; None when the curve never holds the threshold."""
    if not per_agent_rewards:
        return None
    mean_series = list(np.mean(np.asarray(per_agent_rewards, dtype=np.float64), axis=0))
    smoothed, _, _ = moving_average(mean_series, window)
    return convergence_episode(smoothed, threshold, patience)


# --- CSV emission ---------------------------------------------------------


def metadata_block(meta: dict) -> list:
    lines = [f"# uavmec {__version__}"]
    for k, v in meta.items():
        lines.append(f"# {k}: {v}")
    return lines


def write_csv(path, meta: dict, header: list, rows: list) -> None:
    buf = io.StringIO()
    for line in metadata_block(meta):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    write_atomic(path, buf.getvalue())


def write_convergence_csv(path, meta: dict, per_agent_rewards: list, window: int) -> None:
    """Training curves: one row per (agent, episode) with reward, trailing
    mean and min/max band; plus aggregate rows with agent='mean'."""
    rows = []
    for agent, series in enumerate(per_agent_rewards):
        smoothed, lo, hi = moving_average(series, window)
        for ep, r in enumerate(series):
            rows.append([str(agent), ep, float(r), smoothed[ep], lo[ep], hi[ep]])
    if per_agent_rewards:
        mean_series = list(np.mean(np.asarray(per_agent_rewards, dtype=np.float64), axis=0))
        smoothed, lo, hi = moving_average(mean_series, window)
        for ep, r in enumerate(mean_series):
            rows.append(["mean", ep, float(r), smoothed[ep], lo[ep], hi[ep]])
    meta = dict(meta)
    meta["smoothing_window"] = window
    meta["band"] = "min/max of raw reward over the trailing window"
    write_csv(path, meta, ["agent", "episode", "reward", "smoothed", "band_lo", "band_hi"], rows)


def write_battery_csv(path, meta: dict, runs: list, unit_names) -> None:
    """One row per (policy, seed, UAV) with the remaining battery fraction."""
    rows = []
    for m in runs:
        for uav, frac in enumerate(m.battery_fraction):
            rows.append([m.policy, m.seed_index, unit_names[uav], float(frac)])
    write_csv(path, meta, ["policy", "seed", "uav", "battery_fraction"], rows)


def write_violations_csv(path, meta: dict, runs: list, unit_names) -> None:
    """One row per (policy, seed, unit) with the violation percentage of all
    tasks generated in that run."""
    rows = []
    for m in runs:
        pct = violation_distribution(m.violations_by_unit, m.total_tasks)
        for unit, p in enumerate(pct):
            rows.append([m.policy, m.seed_index, unit_names[unit], float(p), m.violations_by_unit[unit]])
    write_csv(
        path, meta, ["policy", "seed", "unit", "violation_pct", "violation_count"], rows
    )


def write_summary_csv(path, meta: dict, runs: list, w: float, theta_mode="total_tasks") -> None:
    """Per-policy mean/std of min battery, violation percentage and objective,
    ranked by mean objective (best first).  Std is the sample standard
    deviation across seeds (0 for a single seed)."""
    by_policy: dict[str, list[RunMetrics]] = {}
    for m in runs:
        by_policy.setdefault(m.policy, []).append(m)

    def _std(xs):
        return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0

    entries = []
    for policy, ms in by_policy.items():
        min_bat = [m.min_battery_fraction for m in ms]
        viol_pct = [
            100.0 * m.total_violations / m.total_tasks if m.total_tasks else 0.0 for m in ms
        ]
        objective = [run_objective(m, w, theta_mode) for m in ms]
        entries.append(
            [
                policy,
                float(np.mean(min_bat)),
                _std(min_bat),
                float(np.mean(viol_pct)),
                _std(viol_pct),
                float(np.mean(objective)),
                _std(objective),
            ]
        )
    entries.sort(key=lambda e: (-e[5], e[0]))
    write_csv(
        path,
        meta,
        [
            "policy",
            "min_battery_mean",
            "min_battery_std",
            "violation_pct_mean",
            "violation_pct_std",
            "objective_mean",
            "objective_std",
        ],
        entries,
    )


def write_placements_csv(path, meta: dict, result: EpisodeResult, unit_names) -> None:
    """Per-task event log of one episode."""
    rows = []
    for r in result.placements:
        rows.append(
            [
                r.task_id,
                r.type_id,
                unit_names[r.origin_uav],
                unit_names[r.chosen_unit],
                float(r.arrival_time),
                "" if r.start_time is None else float(r.start_time),
                "" if r.finish_time is None else float(r.finish_time),
                float(r.deadline_abs),
                "" if r.violated is None else int(r.violated),
            ]
        )
    write_csv(
        path,
        meta,
        ["task_id", "type", "origin", "unit", "arrival", "start", "finish", "deadline_abs", "violated"],
        rows,
    )
