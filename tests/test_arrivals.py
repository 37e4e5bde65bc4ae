from pathlib import Path

import numpy as np
import pytest

from helpers import reference_build_task_table, reference_generate_arrivals
from uavmec import arrivals
from uavmec.arrivals import arrival_rng, build_task_table, generate_arrivals
from uavmec.config import TaskTypeSpec, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIRE = TaskTypeSpec("fire_detection", 0.25, 0.3, 0.1, 0.05)


def test_zero_horizon_generates_nothing():
    rng = arrival_rng(1, 0, 0, 0)
    emissions = generate_arrivals(FIRE, horizon=0.0, iot_delay=0.01, rng=rng)
    assert emissions.dtype == np.float64
    assert emissions.size == 0


def test_sample_mean_gap_matches_configured_rate():
    # One long stream; the empirical mean gap must sit within 3% of 0.25 s.
    rng = arrival_rng(7, 0, 0, 0)
    emissions = generate_arrivals(FIRE, horizon=10_000.0, iot_delay=0.01, rng=rng)
    gaps = np.diff(np.concatenate([[0.0], emissions]))
    assert len(gaps) > 30_000
    assert abs(gaps.mean() - 0.25) / 0.25 < 0.03


def test_same_seed_is_deterministic():
    a = generate_arrivals(FIRE, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 1, 2, 0))
    b = generate_arrivals(FIRE, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 1, 2, 0))
    assert a.size > 0
    assert a.tolist() == b.tolist()


def test_streams_differ_across_episode_uav_and_type():
    base = generate_arrivals(FIRE, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 0, 0, 0))
    for args in ((3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1)):
        other = generate_arrivals(FIRE, horizon=50.0, iot_delay=0.01, rng=arrival_rng(*args))
        assert other.tolist() != base.tolist()


def test_arrival_times_and_deadlines_are_consistent():
    cfg = load_config()
    cfg.sim.episode_duration = 30.0
    iot_delay = cfg.sim.iot_to_uav_delay
    tasks = build_task_table(cfg.sim, cfg.tasks, seed=11, episode=0)
    assert tasks
    for t in tasks:
        assert t.arrival_time < 30.0
        assert t.arrival_time == t.emission_time + iot_delay
        assert t.deadline_abs == t.emission_time + cfg.tasks[t.type_id].deadline
    # The (UAV 3, type 1) tasks are that stream's emissions, in order.
    stream = generate_arrivals(cfg.tasks[1], 30.0, iot_delay, arrival_rng(11, 0, 3, 1))
    assert stream.size > 0
    picked = [t.emission_time for t in tasks if t.origin_uav == 3 and t.type_id == 1]
    assert picked == stream.tolist()
    assert [t.task_id for t in tasks] == list(range(len(tasks)))


def test_build_task_table_rejects_impossible_deadline():
    # A 1e-300 s class deadline vanishes when added to any emission time, so
    # each such task's deadline_abs equals its emission_time.
    cfg = load_config()
    cfg.sim.episode_duration = 5.0
    cfg.tasks[1] = TaskTypeSpec("instant", 0.25, 1e-300, 0.1, 0.05)
    with pytest.raises(ValueError, match="deadline_abs must exceed"):
        build_task_table(cfg.sim, cfg.tasks, seed=1, episode=0)
    # The same table with the class deadline restored is accepted.
    cfg.tasks[1] = TaskTypeSpec("instant", 0.25, 0.8, 0.1, 0.05)
    assert build_task_table(cfg.sim, cfg.tasks, seed=1, episode=0)


def test_build_task_table_merges_and_renumbers():
    cfg = load_config()
    cfg.sim.episode_duration = 5.0
    tasks = build_task_table(cfg.sim, cfg.tasks, seed=1, episode=0)
    assert tasks
    arrivals = [t.arrival_time for t in tasks]
    assert arrivals == sorted(arrivals)
    assert [t.task_id for t in tasks] == list(range(len(tasks)))
    assert {t.origin_uav for t in tasks} == set(range(cfg.sim.num_uavs))
    assert {t.type_id for t in tasks} == {0, 1, 2}


def test_build_task_table_varies_with_episode_index():
    cfg = load_config()
    cfg.sim.episode_duration = 5.0
    ep0 = build_task_table(cfg.sim, cfg.tasks, seed=1, episode=0)
    ep1 = build_task_table(cfg.sim, cfg.tasks, seed=1, episode=1)
    assert [t.arrival_time for t in ep0] != [t.arrival_time for t in ep1]


def times(tasks):
    return [(t.emission_time.hex(), t.arrival_time.hex(), t.deadline_abs.hex()) for t in tasks]


def rows(tasks):
    """Every field a fresh table sets, floats as their exact bits."""
    return [(t.task_id, t.origin_uav, t.type_id, *bits) for t, bits in zip(tasks, times(tasks))]


@pytest.mark.parametrize("mean", [0.1, 0.25, 0.5, 3.0])
def test_bulk_draws_equal_one_draw_per_task(mean):
    spec = TaskTypeSpec("probe", mean, 0.8, 0.1, 0.05)
    compared = 0
    for seed in range(40):
        first_gap = arrival_rng(seed, 0, 1, 2).exponential(mean)
        horizons = [0.0, first_gap / 2, 60.0] + ([10_000.0] if seed == 0 else [])
        for horizon in horizons:
            got = generate_arrivals(spec, horizon, 0.01, arrival_rng(seed, 0, 1, 2))
            want = reference_generate_arrivals(spec, 2, 1, horizon, 0.01, arrival_rng(seed, 0, 1, 2))
            assert [e.hex() for e in got.tolist()] == [t.emission_time.hex() for t in want], (
                seed, horizon,
            )
            compared += len(want)
    assert compared > 40 * 60.0 / mean


class ShortGaps:
    """A generator whose gaps average a twentieth of the requested mean, so
    the first bulk draw ends far short of the horizon."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def exponential(self, scale, size=None):
        self.draws += 1
        return self.rng.exponential(scale / 20.0, size)


def test_short_first_draw_is_topped_up():
    spec = TaskTypeSpec("probe", 0.25, 0.8, 0.1, 0.05)
    bulk = ShortGaps(5)
    got = generate_arrivals(spec, 60.0, 0.01, bulk)
    want = reference_generate_arrivals(spec, 0, 0, 60.0, 0.01, ShortGaps(5))
    assert bulk.draws > 1
    assert len(want) > 20 * 60.0 / 0.25 * 0.9
    assert [e.hex() for e in got.tolist()] == [t.emission_time.hex() for t in want]


@pytest.mark.parametrize("name", ["paper", "desk"])
def test_table_equals_the_keyed_sort_of_per_stream_records(name):
    cfg = load_config(str(CONFIGS / f"{name}.yaml"), env={})
    compared = 0
    for seed in range(20):
        for episode in range(3):
            got = build_task_table(cfg.sim, cfg.tasks, seed, episode)
            want = reference_build_task_table(cfg.sim, cfg.tasks, seed, episode)
            assert rows(got) == rows(want), (seed, episode)
            compared += len(want)
    assert compared > 60 * 100


@pytest.mark.parametrize("fraction", [0.0, 0.5], ids=["zero-horizon", "before-every-first-gap"])
def test_table_is_empty_when_no_task_arrives_in_time(fraction):
    cfg = load_config()
    first_gaps = [
        arrival_rng(4, 0, uav, type_id).exponential(spec.mean_interarrival)
        for uav in range(cfg.sim.num_uavs)
        for type_id, spec in enumerate(cfg.tasks)
    ]
    cfg.sim.episode_duration = fraction * min(first_gaps)
    assert build_task_table(cfg.sim, cfg.tasks, 4, 0) == []
    assert reference_build_task_table(cfg.sim, cfg.tasks, 4, 0) == []


def test_table_with_topped_up_streams_equals_the_reference(monkeypatch):
    cfg = load_config()
    cfg.sim.episode_duration = 20.0
    made = []

    def short_gaps(seed, episode, uav, type_id):
        made.append(ShortGaps((seed, episode, uav, type_id)))
        return made[-1]

    monkeypatch.setattr(arrivals, "arrival_rng", short_gaps)
    got = build_task_table(cfg.sim, cfg.tasks, 2, 1)
    assert made and all(rng.draws > 1 for rng in made)
    want = reference_build_task_table(cfg.sim, cfg.tasks, 2, 1, rng_for=short_gaps)
    assert rows(got) == rows(want)


def test_equal_arrivals_keep_the_uav_then_type_order(monkeypatch):
    # Every stream draws the same gaps and two types share a mean, so each
    # arrival time is shared by every UAV and by both types.
    cfg = load_config()
    cfg.sim.episode_duration = 10.0
    tasks = [TaskTypeSpec("twin", 0.5, 0.9, 0.1, 0.05), TaskTypeSpec("twin_b", 0.5, 1.7, 0.1, 0.05)]

    def same_stream(*key):
        return np.random.default_rng(0)

    monkeypatch.setattr(arrivals, "arrival_rng", same_stream)
    got = build_task_table(cfg.sim, tasks, 0, 0)
    want = reference_build_task_table(cfg.sim, tasks, 0, 0, rng_for=same_stream)
    group = 2 * cfg.sim.num_uavs
    assert len(got) % group == 0 and len(got) > group
    assert [(t.origin_uav, t.type_id) for t in got[:group]] == [
        (uav, type_id) for uav in range(cfg.sim.num_uavs) for type_id in range(2)
    ]
    assert rows(got) == rows(want)
