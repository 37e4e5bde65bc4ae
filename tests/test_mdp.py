import numpy as np
import pytest

from uavmec.config import MdpConfig
from helpers import FIRE, GROWTH, PEST, make_snapshot, snapshot_is_sane
from uavmec.mdp import (
    assemble_reward,
    battery_tier,
    compute_reward_parts,
    counterfactual_violation,
    encode_state,
    state_width,
    type_code,
    violation_penalty,
)

CFG = MdpConfig()


def reward(action, snap):
    """The shaped reward of one decision, as the kernel assembles it."""
    return assemble_reward(*compute_reward_parts(action, snap, CFG))


def test_type_code_values():
    assert type_code(FIRE, 3) == 0.0
    assert type_code(PEST, 3) == 0.5
    assert type_code(GROWTH, 3) == 1.0
    assert type_code(0, 1) == 0.0


def test_fresh_fire_state_vector():
    snap = make_snapshot()
    vec = encode_state(snap)
    expected = np.array([0.0, 0.1, 0.1, 0.1, 0.1, 0.05, 1.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(vec, expected, rtol=0, atol=0)
    assert vec.shape == (state_width(4, 1),)


def test_identical_snapshots_encode_identically():
    a = encode_state(make_snapshot(task_type=PEST, backlogs=(0.2, 0.0, 0.1, 0.0, 0.3)))
    b = encode_state(make_snapshot(task_type=PEST, backlogs=(0.2, 0.0, 0.1, 0.0, 0.3)))
    assert np.array_equal(a, b)


def test_growth_type_maps_to_one():
    vec = encode_state(make_snapshot(task_type=GROWTH))
    assert vec[0] == 1.0


def test_extended_layout_appends_transfer_delays():
    snap = make_snapshot()
    vec = encode_state(snap, layout="extended")
    assert vec.shape == (state_width(4, 1, "extended"),)
    np.testing.assert_allclose(vec[-5:], snap.transfer_delays)
    assert state_width(4, 1, "extended") == state_width(4, 1) + 5


def test_unknown_layout_rejected():
    with pytest.raises(ValueError):
        encode_state(make_snapshot(), layout="wide")
    with pytest.raises(ValueError):
        state_width(4, 1, "wide")


def test_battery_entries_clamped_to_unit_interval():
    snap = make_snapshot(batteries=(1.2, -0.3, 0.5, 0.0))
    vec = encode_state(snap)
    np.testing.assert_allclose(vec[6:], [1.0, 0.0, 0.5, 0.0])


def test_counterfactual_empty_mec_meets_fire_deadline():
    snap = make_snapshot()
    # 0.01 + 0.015 + 0.05 = 0.075 <= 0.3
    assert counterfactual_violation(snap, 4) is False


def test_counterfactual_backlogged_remote_uav_misses_pest_deadline():
    snap = make_snapshot(task_type=PEST, backlogs=(0.0, 0.5, 0.0, 0.0, 0.0))
    # 0.01 + 0.015 + (0.5 + 0.5) = 1.025 > 0.8
    assert counterfactual_violation(snap, 1) is True
    # local stays clean: 0.01 + 0 + 0.5 = 0.51 <= 0.8
    assert counterfactual_violation(snap, 0) is False


def test_counterfactual_growth_deadline_is_loose():
    snap = make_snapshot(task_type=GROWTH, backlogs=(2.0, 2.0, 2.0, 2.0, 2.0))
    assert not any(counterfactual_violation(snap, u) for u in range(5))


def test_reward_clean_local_on_full_battery():
    snap = make_snapshot()
    # Local placement, everyone at 1.0: expected battery dips only by the
    # service surcharge, within the threshold, so top tier; no violation.
    assert reward(0, snap) == pytest.approx(2.0)


def test_reward_mec_clean_but_violated_choice():
    # Deciding UAV picks a drowned remote UAV while the MEC was clean.
    snap = make_snapshot(task_type=FIRE, backlogs=(0.0, 5.0, 0.0, 0.0, 0.0))
    tier, v_hat, penalty = compute_reward_parts(1, snap, CFG)
    assert v_hat is True
    assert penalty == -40.0
    got = reward(1, snap)
    assert got == assemble_reward(tier, v_hat, penalty)
    # tier is top (all batteries equal): (2-1) + 0 + (-40) = -39
    assert got == pytest.approx(-39.0)


def test_reward_unavoidable_miss_on_lowest_battery():
    # Every unit predicted to miss; chosen UAV is strictly the weakest.
    snap = make_snapshot(
        task_type=FIRE,
        backlogs=(5.0, 5.0, 5.0, 5.0, 5.0),
        batteries=(0.2, 0.9, 0.9, 0.9),
    )
    tier, v_hat, penalty = compute_reward_parts(0, snap, CFG)
    assert tier == 0.0
    assert v_hat is True
    assert penalty == -1.0
    assert reward(0, snap) == pytest.approx(-2.0)


def test_reward_range_under_random_snapshots():
    rng = np.random.default_rng(7)
    lo, hi = -41.0, 2.0
    for _ in range(300):
        task_type = int(rng.integers(0, 3))
        snap = make_snapshot(
            task_type=task_type,
            deciding_uav=int(rng.integers(0, 4)),
            backlogs=tuple(float(rng.uniform(0, 6)) for _ in range(5)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        for action in range(5):
            r = reward(action, snap)
            assert lo <= r <= hi


def test_penalty_branches_are_exclusive_and_gated():
    rng = np.random.default_rng(11)
    for _ in range(300):
        task_type = int(rng.integers(0, 3))
        snap = make_snapshot(
            task_type=task_type,
            deciding_uav=int(rng.integers(0, 4)),
            backlogs=tuple(float(rng.uniform(0, 6)) for _ in range(5)),
            batteries=tuple(float(rng.uniform(0, 1)) for _ in range(4)),
        )
        action = int(rng.integers(0, 5))
        tier, v_hat, penalty = compute_reward_parts(action, snap, CFG)
        # The penalty only enters the reward when the placement is predicted
        # to violate.
        if not v_hat:
            assert reward(action, snap) == pytest.approx(tier)
        # Exactly one ladder branch fires: rebuild it independently.
        mec_clean = any(
            not counterfactual_violation(snap, u) for u in range(4, 5)
        )
        local_clean = not counterfactual_violation(snap, snap.deciding_uav)
        other_clean = any(
            not counterfactual_violation(snap, u)
            for u in range(4)
            if u not in (snap.deciding_uav, action)
        )
        if mec_clean:
            assert penalty == -40.0
        elif local_clean:
            assert penalty == -20.0
        elif other_clean:
            assert penalty == -10.0
        else:
            assert penalty == -1.0


def test_mec_action_never_rewarded_below_clean_local():
    # With empty queues nothing violates, so reward reduces to the tier, and
    # the MEC always earns the top tier.
    for batteries in [(1.0, 1.0, 1.0, 1.0), (0.3, 0.9, 0.5, 0.7)]:
        snap = make_snapshot(batteries=batteries)
        r_mec = reward(4, snap)
        assert r_mec == pytest.approx(2.0)
        for action in range(4):
            assert reward(action, snap) <= r_mec + 1e-12


def test_battery_tier_default_threshold_regions():
    e = CFG.energy_threshold
    busy = 0.0  # isolate the comparison from the service surcharge
    # Well inside each region of the default threshold.
    snap = make_snapshot(batteries=(1.0 - 0.5 * e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, CFG) == 2.0
    snap = make_snapshot(batteries=(1.0 - 1.5 * e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, CFG) == 1.0
    snap = make_snapshot(batteries=(1.0 - 3.0 * e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, CFG) == 0.0
    # MEC: top tier regardless.
    snap = make_snapshot(batteries=(0.1, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 4, CFG) == 2.0


def test_battery_tier_boundaries_are_inclusive():
    # A power-of-two threshold keeps the boundary differences exact in floats,
    # so the inclusive comparisons can be pinned down.
    e = 0.03125
    cfg = MdpConfig(energy_threshold=e)
    busy = 0.0
    # diff exactly -e: still top tier.
    snap = make_snapshot(batteries=(1.0 - e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, cfg) == 2.0
    # exactly -2e: bottom tier.
    snap = make_snapshot(batteries=(1.0 - 2 * e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, cfg) == 0.0
    # strictly between: middle tier.
    snap = make_snapshot(batteries=(1.0 - 1.5 * e, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, cfg) == 1.0


def test_battery_tier_charges_expected_service_drain():
    # Batteries equal, but serving the task locally costs proc * busy_frac,
    # which alone can push the chosen UAV below the threshold.
    busy = 0.05  # 0.1 s of fire service drains 0.005 = 5 * threshold
    snap = make_snapshot(batteries=(1.0, 1.0, 1.0, 1.0), busy_frac_per_sec=busy)
    assert battery_tier(snap, 0, CFG) == 0.0


def test_violation_penalty_excludes_chosen_and_deciding_from_other_branch():
    # MEC and local both miss; the only clean unit is the chosen one, which
    # does not count as an alternative, so the miss is unavoidable.
    snap = make_snapshot(task_type=FIRE, backlogs=(5.0, 0.1, 5.0, 5.0, 5.0))
    # unit 1: 0.01 + 0.015 + (0.1 + 0.1) = 0.225 <= 0.3, clean
    assert counterfactual_violation(snap, 1) is False
    assert violation_penalty(snap, 1, CFG) == -1.0
    # A different violated action sees unit 1 as a clean other-UAV alternative.
    assert violation_penalty(snap, 2, CFG) == -10.0


def test_snapshot_sanity_checks():
    good = make_snapshot()
    assert snapshot_is_sane(good)
    bad_transfer = good._replace(transfer_delays=(0.1, 0.015, 0.015, 0.015, 0.015))
    assert not snapshot_is_sane(bad_transfer)
    bad_battery = good._replace(unit_batteries=(1.0, 1.0, 1.0, 1.0, 1.0))
    assert not snapshot_is_sane(bad_battery)
    bad_delay = make_snapshot(backlogs=(-0.2, 0.0, 0.0, 0.0, 0.0))
    assert not snapshot_is_sane(bad_delay)


def test_snapshot_is_immutable():
    # The kernel shares its per-type and per-UAV tuples across decisions.
    snap = make_snapshot()
    with pytest.raises(AttributeError):
        snap.transfer_delays = (0.0,) * 5
    assert snap == make_snapshot()
