from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CONFIGS, ReferenceHefPolicy, ReferenceQhefPolicy, make_snapshot
from uavmec import harness
from uavmec.config import load_config
from uavmec.harness import arrival_seed, make_policies
from uavmec.heuristics import (
    ENERGY_GAP_THRESHOLD,
    QUEUE_TIE_TOLERANCE,
    HefPolicy,
    QhefPolicy,
    RoundRobinPolicy,
)
from uavmec.simulation import run_episode


class ScriptedUniforms:
    """A uniform stream: ``values``, then a seeded generator's draws, served
    one at a time by ``random()`` or ``n`` at a time by ``random(n)``."""

    def __init__(self, values):
        self.values = np.concatenate([values, np.random.default_rng(0).random(1024)])
        self.used = 0

    def random(self, size=None):
        start, self.used = self.used, self.used + (1 if size is None else size)
        return float(self.values[start]) if size is None else self.values[start:self.used]


def test_round_robin_cycles_all_units():
    policy = RoundRobinPolicy(num_units=5)
    snap = make_snapshot()
    picks = [policy.select(snap) for _ in range(12)]
    assert picks == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]


@pytest.mark.parametrize("num_units", [1, 2, 5])
def test_round_robin_reads_no_snapshot(num_units):
    policy = RoundRobinPolicy(num_units)
    assert policy.wants_snapshot is False
    assert [policy.select(None) for _ in range(2 * num_units)] == list(range(num_units)) * 2


def test_round_robin_rejects_empty_fleet():
    with pytest.raises(ValueError):
        RoundRobinPolicy(num_units=0)


def test_hef_stays_local_on_equal_batteries():
    policy = HefPolicy(rng=ScriptedUniforms([0.9]))  # roll misses the MEC band
    snap = make_snapshot(deciding_uav=2)
    assert policy.select(snap) == 2


def test_hef_small_gap_not_worth_offloading():
    # 0.82 vs 0.80 is a 2 point gap: above the 1 point threshold, offload.
    policy = HefPolicy(rng=ScriptedUniforms([0.9, 0.9]))
    snap = make_snapshot(deciding_uav=0, batteries=(0.80, 0.82, 0.79, 0.78))
    assert policy.select(snap) == 1
    # 0.805 vs 0.80 is half a point: stay local.
    snap = make_snapshot(deciding_uav=0, batteries=(0.80, 0.805, 0.79, 0.78))
    assert policy.select(snap) == 0


def test_hef_tie_for_highest_battery_goes_to_lower_index():
    # UAVs 1 and 3 tie at the top, both well above the deciding UAV 2.
    policy = HefPolicy(rng=ScriptedUniforms([0.9, 0.9]))
    snap = make_snapshot(deciding_uav=2, batteries=(0.5, 0.9, 0.6, 0.9))
    assert policy.select(snap) == 1
    snap = make_snapshot(deciding_uav=0, batteries=(0.5, 0.7, 0.9, 0.9))
    assert policy.select(snap) == 2


def test_hef_forced_mec_roll():
    # 5 units, 1 MEC: draws below 1/5 select the MEC slot.
    policy = HefPolicy(rng=ScriptedUniforms([0.19]))
    snap = make_snapshot(batteries=(0.1, 0.2, 0.3, 0.4))
    assert policy.select(snap) == 4


def test_hef_mec_frequency_matches_roll_band():
    rng = np.random.default_rng(42)
    policy = HefPolicy(rng=rng)
    snap = make_snapshot()
    n = 100_000
    mec = sum(policy.select(snap) == 4 for _ in range(n))
    assert mec / n == pytest.approx(1 / 5, abs=0.005)


def test_hef_one_draw_per_decision():
    # Decision k rolls the k-th uniform of the policy's stream.  With 4 UAVs
    # and 2 MECs a roll under 2/6 picks MEC 4 + int(6 * roll); any other roll
    # offloads to UAV 1, the best charged.
    rolls = np.random.default_rng(9).random(300)
    policy = HefPolicy(rng=np.random.default_rng(9))
    snap = make_snapshot(backlogs=(0.0,) * 6, batteries=(0.5, 0.9, 0.6, 0.7))
    assert [policy.select(snap) for _ in rolls] == [
        4 + int(6 * u) if u < 2 / 6 else 1 for u in rolls]


def test_qhef_empty_queues_prefer_mec():
    # All queues empty: the MEC attains the minimum predicted delay (faster
    # processor) and its infinite battery wins the gap check.
    policy = QhefPolicy()
    assert policy.select(make_snapshot()) == 4


def test_qhef_equal_delays_stay_local():
    # Backlogs tuned so every unit predicts the same delay: candidates tie,
    # the MEC battery wins, and infinity beats any threshold, so the MEC is
    # still chosen; but when the MEC is slower the local unit wins alone.
    snap = make_snapshot(backlogs=(0.0, 0.0, 0.0, 0.0, 0.05))
    assert QhefPolicy().select(snap) == 4  # ties at 0.1 include the MEC
    snap = make_snapshot(backlogs=(0.0, 0.0, 0.0, 0.0, 0.2))
    assert QhefPolicy().select(snap) == 0  # 0.1 vs 0.25: locals tie, stay local


def test_qhef_local_alone_at_minimum_stays_local():
    snap = make_snapshot(
        deciding_uav=1,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.9, 0.2, 0.9, 0.9),
    )
    assert QhefPolicy().select(snap) == 1


def test_qhef_gap_threshold_blocks_marginal_offload():
    # Remote UAV at the minimum delay but only half a point richer: stay local.
    snap = make_snapshot(
        deciding_uav=0,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.800, 0.805, 0.79, 0.78),
    )
    assert QhefPolicy().select(snap) == 0
    snap = make_snapshot(
        deciding_uav=0,
        backlogs=(0.5, 0.0, 0.5, 0.5, 0.5),
        batteries=(0.800, 0.82, 0.79, 0.78),
    )
    assert QhefPolicy().select(snap) == 1


def test_qhef_never_offloads_to_poorer_uav():
    rng = np.random.default_rng(3)
    policy = QhefPolicy()
    for _ in range(500):
        snap = make_snapshot(
            task_type=int(rng.integers(0, 3)),
            deciding_uav=int(rng.integers(0, 4)),
            backlogs=tuple(float(rng.uniform(0, 2)) for _ in range(5)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        choice = policy.select(snap)
        assert 0 <= choice < 5
        if choice < 4 and choice != snap.deciding_uav:
            gap = snap.unit_batteries[choice] - snap.unit_batteries[snap.deciding_uav]
            assert gap > ENERGY_GAP_THRESHOLD


def test_hef_choices_are_always_valid_units():
    rng = np.random.default_rng(4)
    policy = HefPolicy(rng=np.random.default_rng(5))
    for _ in range(500):
        snap = make_snapshot(
            deciding_uav=int(rng.integers(0, 4)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        assert 0 <= policy.select(snap) < 5


@st.composite
def tie_snapshots(draw):
    """Snapshots of 1-4 UAVs and 0-2 MECs whose delays tie exactly, tie within
    the tolerance or just miss it, with negative and tied battery fractions."""
    num_uavs, num_mecs = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    base = draw(st.sampled_from([0.0, 0.05, 0.35, 12.5]))
    offsets = st.sampled_from([0.0, 0.0, 0.5 * QUEUE_TIE_TOLERANCE, QUEUE_TIE_TOLERANCE,
                               1.5 * QUEUE_TIE_TOLERANCE, 3 * QUEUE_TIE_TOLERANCE, 0.01, 0.4])
    delays = tuple(base + draw(offsets) for _ in range(num_uavs + num_mecs))
    charge = st.one_of(st.sampled_from([1.0, 0.5, 0.505, 0.52, 0.0, -0.05, -0.2]),
                       st.floats(-0.5, 1.0))
    batteries = tuple(draw(charge) for _ in range(num_uavs))
    snap = make_snapshot(deciding_uav=draw(st.integers(0, num_uavs - 1)),
                         backlogs=delays, batteries=batteries, num_uavs=num_uavs)
    return snap._replace(unit_delays=delays)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(snap=tie_snapshots(), roll=st.one_of(st.sampled_from([0.0, 0.3, 0.999]),
                                            st.floats(0.0, 1.0, exclude_max=True)))
def test_one_pass_selects_pick_the_reference_unit(snap, roll):
    assert QhefPolicy().select(snap) == ReferenceQhefPolicy().select(snap)
    # Decision k of the one-pass HEF picks what the reference picks on the
    # stream's k-th uniform.
    hef = HefPolicy(ScriptedUniforms([roll]))
    picks = [hef.select(snap) for _ in range(4)]
    rolls = ScriptedUniforms([roll]).random(4)
    assert picks == [ReferenceHefPolicy(ScriptedUniforms([u])).select(snap) for u in rolls]


@pytest.mark.parametrize("policy, name, reference", [
    ("hef", "HefPolicy", ReferenceHefPolicy),
    ("qhef", "QhefPolicy", ReferenceQhefPolicy),
])
def test_paper_episodes_match_the_reference_policies(policy, name, reference):
    cfg = load_config(CONFIGS / "paper.yaml")
    for seed_index in (0, 1):
        seed = arrival_seed(cfg.sim.seed, seed_index)
        result = run_episode(cfg, make_policies(policy, cfg, cfg.sim.seed, seed_index), seed)
        with mock.patch.object(harness, name, reference):
            oracle = make_policies(policy, cfg, cfg.sim.seed, seed_index)
        assert all(type(p) is reference for p in oracle)
        expected = run_episode(cfg, oracle, seed)
        assert [astuple(t) for t in result.placements] == [astuple(t) for t in expected.placements]
        assert result.battery_fraction == expected.battery_fraction
        assert result.violations_by_unit == expected.violations_by_unit
        assert len({t.chosen_unit for t in result.placements}) == cfg.sim.num_units
