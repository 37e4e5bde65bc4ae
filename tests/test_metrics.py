import errno
import os

import numpy as np
import pytest

from helpers import plateau_threshold
from uavmec import checkpoint
from uavmec.metrics import (
    RunMetrics,
    convergence_episode,
    convergence_summary,
    metrics_from_episodes,
    moving_average,
    objective_value,
    run_objective,
    violation_distribution,
    write_battery_csv,
    write_convergence_csv,
    write_csv,
    write_summary_csv,
    write_violations_csv,
)


def make_metrics(policy="rr", seed_index=0, battery=(0.9, 0.8, 0.85, 0.95),
                 violations=(1, 0, 2, 0, 3), tasks=100, completed=90):
    return RunMetrics(
        policy=policy,
        seed_index=seed_index,
        battery_fraction=list(battery),
        violations_by_unit=list(violations),
        total_tasks=tasks,
        total_completed=completed,
    )


def test_objective_battery_only_at_full_weight():
    assert objective_value(0.8, 50, theta=100, w=1.0) == pytest.approx(0.8)


def test_objective_violations_only_at_zero_weight():
    # w=0, 10 violations, theta=100: -(1/100) * 10 = -0.1.
    assert objective_value(0.9, 10, theta=100, w=0.0) == pytest.approx(-0.1)


def test_objective_balanced():
    # w=0.5, no violations: 0.5 * 0.8 = 0.4.
    assert objective_value(0.8, 0, theta=100, w=0.5) == pytest.approx(0.4)


def test_objective_empty_run_degenerates_to_battery_term():
    assert objective_value(0.7, 0, theta=0, w=0.5) == pytest.approx(0.35)
    assert objective_value(0.7, 0, theta=-3, w=0.5) == pytest.approx(0.35)


def test_objective_monotone_in_both_terms():
    base = objective_value(0.8, 10, theta=100, w=0.5)
    assert objective_value(0.9, 10, theta=100, w=0.5) > base
    assert objective_value(0.8, 20, theta=100, w=0.5) < base


def test_run_objective_uses_task_count_as_theta():
    m = make_metrics(violations=(10, 0, 0, 0, 0), tasks=200)
    expected = objective_value(m.min_battery_fraction, 10, theta=200, w=0.5)
    assert run_objective(m, w=0.5) == pytest.approx(expected)
    # Fixed theta mode.
    expected_fixed = objective_value(m.min_battery_fraction, 10, theta=50.0, w=0.5)
    assert run_objective(m, w=0.5, theta_mode=50.0) == pytest.approx(expected_fixed)


def test_metrics_properties():
    m = make_metrics()
    assert m.min_battery_fraction == 0.8
    assert m.total_violations == 6


def test_violation_distribution():
    assert violation_distribution([0, 0, 0], 0) == [0.0, 0.0, 0.0]
    assert violation_distribution([1, 0, 3], 100) == [1.0, 0.0, 3.0]
    # Percentages partition the total violation percentage.
    dist = violation_distribution([2, 5, 3], 200)
    assert sum(dist) == pytest.approx(100.0 * 10 / 200)


def test_moving_average_window_one_is_identity():
    series = [3.0, -1.0, 4.0, 1.5]
    smoothed, lo, hi = moving_average(series, 1)
    assert smoothed == series
    assert lo == series
    assert hi == series


def test_moving_average_constant_series():
    smoothed, lo, hi = moving_average([2.0] * 10, 4)
    assert smoothed == [2.0] * 10
    assert lo == [2.0] * 10
    assert hi == [2.0] * 10


def test_moving_average_window_two():
    smoothed, lo, hi = moving_average([0.0, 10.0], 2)
    assert smoothed == [0.0, 5.0]
    assert lo == [0.0, 0.0]
    assert hi == [0.0, 10.0]


def test_moving_average_prefix_grows_into_window():
    series = [1.0, 2.0, 3.0, 4.0, 5.0]
    smoothed, _, _ = moving_average(series, 3)
    assert smoothed[0] == 1.0
    assert smoothed[1] == pytest.approx(1.5)
    assert smoothed[2] == pytest.approx(2.0)
    assert smoothed[3] == pytest.approx(3.0)
    assert smoothed[4] == pytest.approx(4.0)


def test_moving_average_rejects_bad_window():
    with pytest.raises(ValueError):
        moving_average([1.0], 0)


def test_convergence_episode_cases():
    # Never reaches the threshold.
    assert convergence_episode([0.0, 1.0, 2.0], threshold=5.0, patience=2) is None
    # Holds from the start.
    assert convergence_episode([5.0, 5.0, 5.0], threshold=5.0, patience=2) == 0
    # Dips reset the run: holds only from index 3.
    series = [5.0, 5.0, 1.0, 5.0, 5.0, 5.0]
    assert convergence_episode(series, threshold=5.0, patience=3) == 3
    # A tail shorter than patience does not count.
    assert convergence_episode([0.0, 5.0], threshold=5.0, patience=2) is None
    with pytest.raises(ValueError):
        convergence_episode([1.0], 5.0, patience=0)


def test_plateau_threshold_arithmetic():
    # Start 0, tail mean 10 (last 10% of 20 points = last 2 points).
    series = [0.0] + [5.0] * 17 + [10.0, 10.0]
    got = plateau_threshold(series, fraction=0.9, tail_fraction=0.1)
    assert got == pytest.approx(0.0 + 0.9 * (10.0 - 0.0))
    with pytest.raises(ValueError):
        plateau_threshold([])


def test_plateau_threshold_flat_series():
    assert plateau_threshold([4.0] * 10) == pytest.approx(4.0)


def test_convergence_summary_uses_agent_mean():
    # Two agents whose mean crosses 1.0 at episode 4 and holds.
    a = [0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 2.0]
    b = [0.0] * 8
    got = convergence_summary([a, b], window=1, threshold=1.0, patience=3)
    assert got == 4
    assert convergence_summary([a, b], window=1, threshold=5.0, patience=3) is None
    assert convergence_summary([], window=1, threshold=1.0, patience=3) is None


def test_metrics_from_episodes_aggregates():
    from uavmec.simulation import EpisodeResult

    def make_ep(battery, violations, generated, completed):
        return EpisodeResult(
            duration=60.0,
            tasks_generated=generated,
            tasks_completed=completed,
            tasks_in_queue=0,
            tasks_in_service=0,
            battery_fraction=list(battery),
            violations_by_unit=list(violations),
            violations_total=sum(violations),
            cumulative_reward=[None, None],
            placements=[],
            events=[],
        )

    eps = [
        make_ep([0.9, 0.8], [1, 0, 2], 50, 45),
        make_ep([0.7, 0.6], [0, 1, 1], 40, 38),
    ]
    m = metrics_from_episodes("rr", 3, eps)
    assert m.policy == "rr"
    assert m.seed_index == 3
    assert m.battery_fraction == pytest.approx([0.8, 0.7])
    assert m.violations_by_unit == [1, 1, 3]
    assert m.total_tasks == 90
    assert m.total_completed == 83
    with pytest.raises(ValueError):
        metrics_from_episodes("rr", 0, [])


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_write_csv_layout_and_float_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    value = 0.1 + 0.2  # classic non-representable sum
    write_csv(str(path), {"config": "abc123"}, ["name", "x"], [["a", value]])
    lines = read_lines(path)
    assert lines[0].startswith("# uavmec ")
    assert lines[1] == "# config: abc123"
    assert lines[2] == "name,x"
    name, text = lines[3].split(",")
    assert float(text) == value  # repr round-trips exactly


def test_write_csv_is_deterministic(tmp_path):
    rows = [["a", 1.0 / 3.0], ["b", 2.5]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), {"seed": 1}, ["k", "v"], rows)
    write_csv(str(p2), {"seed": 1}, ["k", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("write", [
    lambda path, tag: write_csv(path, {"tag": tag}, ["k", "v"], [["a", 0.5]] * 50),
    lambda path, tag: checkpoint.write_checkpoint(path, "m v1", {"tag": tag}, [("h", ["1"] * 50)]),
], ids=["csv", "checkpoint"])
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.txt"
    write(path, "earlier")
    earlier = path.read_bytes()

    class DiskFull:
        """A file that takes half of what it is given, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path, "later")
    assert path.read_bytes() == earlier
    assert os.listdir(tmp_path) == ["out.txt"]
    monkeypatch.undo()
    write(path, "later")
    assert b"later" in path.read_bytes()
    assert os.listdir(tmp_path) == ["out.txt"]
    # The mode a plain open gives a new file, not a private temporary's.
    (tmp_path / "plain.txt").write_text("")
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain.txt").st_mode


def test_convergence_csv_rows(tmp_path):
    path = tmp_path / "conv.csv"
    rewards = [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]
    write_convergence_csv(str(path), {}, rewards, window=2)
    lines = read_lines(path)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "agent,episode,reward,smoothed,band_lo,band_hi"
    data = [l.split(",") for l in lines[header_at + 1 :]]
    # 2 agents x 3 episodes + 3 mean rows.
    assert len(data) == 9
    assert [d[0] for d in data] == ["0"] * 3 + ["1"] * 3 + ["mean"] * 3
    mean_rows = [d for d in data if d[0] == "mean"]
    assert [float(d[2]) for d in mean_rows] == [2.0, 3.0, 4.0]
    # Smoothed value of the mean curve at the last episode: (3 + 4) / 2.
    assert float(mean_rows[2][3]) == pytest.approx(3.5)


def test_battery_and_violation_csvs(tmp_path):
    runs = [
        make_metrics(policy="rr", seed_index=0),
        make_metrics(policy="rr", seed_index=1, battery=(0.5, 0.6, 0.7, 0.8)),
    ]
    units = ["uav0", "uav1", "uav2", "uav3", "mec0"]
    bpath = tmp_path / "battery.csv"
    write_battery_csv(str(bpath), {}, runs, units)
    lines = read_lines(bpath)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "policy,seed,uav,battery_fraction"
    assert len(lines) - header_at - 1 == 8  # 2 runs x 4 UAVs

    vpath = tmp_path / "violations.csv"
    write_violations_csv(str(vpath), {}, runs, units)
    lines = read_lines(vpath)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "policy,seed,unit,violation_pct,violation_count"
    data = [l.split(",") for l in lines[header_at + 1 :]]
    assert len(data) == 10  # 2 runs x 5 units
    first = data[0]
    assert first[2] == "uav0"
    assert float(first[3]) == pytest.approx(1.0)  # 1 violation of 100 tasks
    assert first[4] == "1"


def test_summary_csv_ranks_by_objective(tmp_path):
    # qlearning dominates rr on both terms, so it must rank first.
    runs = [
        make_metrics(policy="rr", seed_index=0, battery=(0.5, 0.6, 0.7, 0.8),
                     violations=(5, 5, 5, 5, 5), tasks=100),
        make_metrics(policy="rr", seed_index=1, battery=(0.55, 0.6, 0.7, 0.8),
                     violations=(5, 5, 5, 5, 0), tasks=100),
        make_metrics(policy="qlearning", seed_index=0, battery=(0.9, 0.9, 0.9, 0.9),
                     violations=(1, 0, 0, 0, 0), tasks=100),
        make_metrics(policy="qlearning", seed_index=1, battery=(0.92, 0.9, 0.9, 0.9),
                     violations=(0, 0, 0, 1, 0), tasks=100),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), {}, runs, w=0.5)
    lines = read_lines(path)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    header = lines[header_at].split(",")
    assert header == [
        "policy",
        "min_battery_mean",
        "min_battery_std",
        "violation_pct_mean",
        "violation_pct_std",
        "objective_mean",
        "objective_std",
    ]
    data = [l.split(",") for l in lines[header_at + 1 :]]
    assert [d[0] for d in data] == ["qlearning", "rr"]
    # Spot-check the aggregate arithmetic for qlearning.
    q = data[0]
    assert float(q[1]) == pytest.approx(0.9)  # mean of min fractions 0.9, 0.9
    assert float(q[3]) == pytest.approx(1.0)  # 1 violation per 100 tasks
    # Objective mean recomputed independently.
    expected = np.mean([
        objective_value(0.9, 1, theta=100, w=0.5),
        objective_value(0.9, 1, theta=100, w=0.5),
    ])
    assert float(q[5]) == pytest.approx(float(expected))


def test_single_seed_summary_has_zero_std(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), {}, [make_metrics()], w=0.5)
    lines = read_lines(path)
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    row = lines[header_at + 1].split(",")
    assert float(row[2]) == 0.0
    assert float(row[4]) == 0.0
    assert float(row[6]) == 0.0
