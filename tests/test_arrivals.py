import numpy as np
import pytest

from helpers import reference_generate_arrivals
from uavmec.arrivals import TaskInstance, arrival_rng, build_task_table, generate_arrivals
from uavmec.config import TaskTypeSpec, load_config

FIRE = TaskTypeSpec("fire_detection", 0.25, 0.3, 0.1, 0.05)


def test_zero_horizon_generates_nothing():
    rng = arrival_rng(1, 0, 0, 0)
    assert generate_arrivals(FIRE, 0, 0, horizon=0.0, iot_delay=0.01, rng=rng) == []


def test_sample_mean_gap_matches_configured_rate():
    # One long stream; the empirical mean gap must sit within 3% of 0.25 s.
    rng = arrival_rng(7, 0, 0, 0)
    tasks = generate_arrivals(FIRE, 0, 0, horizon=10_000.0, iot_delay=0.01, rng=rng)
    emissions = np.array([t.emission_time for t in tasks])
    gaps = np.diff(np.concatenate([[0.0], emissions]))
    assert len(gaps) > 30_000
    assert abs(gaps.mean() - 0.25) / 0.25 < 0.03


def test_same_seed_is_deterministic():
    a = generate_arrivals(FIRE, 0, 2, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 1, 2, 0))
    b = generate_arrivals(FIRE, 0, 2, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 1, 2, 0))
    assert a == b


def test_streams_differ_across_episode_uav_and_type():
    base = generate_arrivals(FIRE, 0, 0, horizon=50.0, iot_delay=0.01, rng=arrival_rng(3, 0, 0, 0))
    for args in ((3, 1, 0, 0), (3, 0, 1, 0), (3, 0, 0, 1)):
        other = generate_arrivals(FIRE, 0, 0, horizon=50.0, iot_delay=0.01, rng=arrival_rng(*args))
        assert [t.emission_time for t in other] != [t.emission_time for t in base]


def test_arrival_times_and_deadlines_are_consistent():
    rng = arrival_rng(11, 0, 3, 1)
    tasks = generate_arrivals(FIRE, 1, 3, horizon=30.0, iot_delay=0.01, rng=rng)
    assert tasks
    for t in tasks:
        assert t.arrival_time < 30.0
        assert t.arrival_time == t.emission_time + 0.01
        assert t.deadline_abs == t.emission_time + FIRE.deadline
        assert t.origin_uav == 3 and t.type_id == 1
    ids = [t.task_id for t in tasks]
    assert ids == list(range(len(ids)))


def test_task_instance_rejects_impossible_deadline():
    with pytest.raises(ValueError):
        TaskInstance(0, 0, 0, emission_time=1.0, arrival_time=1.01, deadline_abs=0.5)


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


@pytest.mark.parametrize("mean", [0.1, 0.25, 0.5, 3.0])
def test_bulk_draws_equal_one_draw_per_task(mean):
    spec = TaskTypeSpec("probe", mean, 0.8, 0.1, 0.05)
    compared = 0
    for seed in range(40):
        first_gap = arrival_rng(seed, 0, 1, 2).exponential(mean)
        horizons = [0.0, first_gap / 2, 60.0] + ([10_000.0] if seed == 0 else [])
        for horizon in horizons:
            args = (spec, 2, 1, horizon, 0.01)
            got = generate_arrivals(*args, rng=arrival_rng(seed, 0, 1, 2), id_start=7)
            want = reference_generate_arrivals(*args, arrival_rng(seed, 0, 1, 2), id_start=7)
            assert times(got) == times(want), (seed, horizon)
            assert got == want
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
    got = generate_arrivals(spec, 0, 0, 60.0, 0.01, bulk)
    want = reference_generate_arrivals(spec, 0, 0, 60.0, 0.01, ShortGaps(5))
    assert bulk.draws > 1
    assert len(want) > 20 * 60.0 / 0.25 * 0.9
    assert times(got) == times(want)
    assert got == want
