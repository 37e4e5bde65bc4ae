import math
from dataclasses import astuple

import numpy as np
import pytest

from helpers import assert_fifo_work_conserving, replay_battery, replay_delays, snapshot_is_sane
from uavmec import simulation
from uavmec.arrivals import TaskInstance
from uavmec.config import LEARNER_POLICIES, POLICY_NAMES
from uavmec.harness import (
    arrival_seed,
    load_policies,
    make_policies,
    save_checkpoint,
    train_policy,
)
from uavmec.heuristics import HefPolicy, RoundRobinPolicy
from uavmec.mdp import assemble_reward, compute_reward_parts, encode_state
from uavmec.simulation import (
    EPISODE_END,
    TASK_ARRIVAL,
    TASK_COMPLETE,
    TASK_START,
    SimulationError,
    run_episode,
)


class AlwaysLocalPolicy:
    """Keeps every task on the deciding UAV."""

    wants_transitions = False

    def select(self, snap):
        return snap.deciding_uav


class RecordingPolicy(AlwaysLocalPolicy):
    """Local policy that keeps every decision snapshot for offline checks."""

    def __init__(self):
        self.seen = []

    def select(self, snap):
        action = super().select(snap)
        self.seen.append((snap, action))
        return action


class RecordingLearner(RecordingPolicy):
    """Recording policy that learns, so the kernel scores its decisions."""

    wants_transitions = True

    def ingest(self, t):
        pass


class CollectingLearner:
    """Learner stub: keeps every task local, remembers ingested transitions.

    Its state is the snapshot's vector, which does not hold the deciding UAV,
    so ``encode`` notes that UAV for the ``select`` that follows.
    """

    wants_transitions = True

    def __init__(self):
        self.ingested = []

    def encode(self, snap):
        self.uav = snap.deciding_uav
        return encode_state(snap)

    def select(self, state):
        assert isinstance(state, np.ndarray)
        return self.uav

    def ingest(self, t):
        self.ingested.append(t)


class HefLearner(HefPolicy):
    """HEF's placements from a learner, so the kernel scores its decisions."""

    wants_transitions = True

    def ingest(self, t):
        pass


def hef_policies(cfg):
    return [HefPolicy(np.random.default_rng(100 + u)) for u in range(cfg.sim.num_uavs)]


def rr_policies(cfg):
    return [RoundRobinPolicy(cfg.sim.num_units) for _ in range(cfg.sim.num_uavs)]


def test_identical_runs_are_bit_identical(cfg):
    def hef_learners():
        return [HefLearner(np.random.default_rng(100 + u)) for u in range(cfg.sim.num_uavs)]

    a = run_episode(cfg, hef_learners(), arrival_seed=5, collect_events=True)
    b = run_episode(cfg, hef_learners(), arrival_seed=5, collect_events=True)
    assert a.events == b.events
    assert a.battery_fraction == b.battery_fraction
    assert all(isinstance(r, float) for r in a.cumulative_reward)
    assert a.cumulative_reward == b.cumulative_reward
    assert len(a.placements) == len(b.placements)
    for ra, rb in zip(a.placements, b.placements):
        assert (ra.task_id, ra.chosen_unit, ra.start_time, ra.finish_time, ra.violated) == (
            rb.task_id,
            rb.chosen_unit,
            rb.start_time,
            rb.finish_time,
            rb.violated,
        )


def test_different_seeds_differ(cfg):
    a = run_episode(cfg, hef_policies(cfg), arrival_seed=5, collect_events=True)
    b = run_episode(cfg, hef_policies(cfg), arrival_seed=6, collect_events=True)
    assert a.events != b.events


def test_zero_duration_episode_is_empty(cfg):
    cfg.sim.episode_duration = 0.0
    result = run_episode(cfg, rr_policies(cfg), arrival_seed=1, collect_events=True)
    assert result.tasks_generated == 0
    assert result.tasks_completed == 0
    assert result.tasks_in_queue == 0
    assert result.tasks_in_service == 0
    assert result.battery_fraction == [1.0] * cfg.sim.num_uavs
    assert result.events == [(0.0, EPISODE_END, -1, -1)]


def test_task_conservation(cfg):
    for policies in (rr_policies(cfg), [AlwaysLocalPolicy() for _ in range(4)]):
        r = run_episode(cfg, policies, arrival_seed=2)
        assert r.tasks_generated > 0
        assert r.tasks_generated == r.tasks_completed + r.tasks_in_queue + r.tasks_in_service
        assert len(r.placements) == r.tasks_generated
        assert all(rec.violated is not None for rec in r.placements)


def test_event_times_monotone_and_ordered(cfg):
    r = run_episode(cfg, hef_policies(cfg), arrival_seed=3, collect_events=True)
    times = [e[0] for e in r.events]
    assert times == sorted(times)
    # At equal timestamps a completion frees its server before any arrival is
    # admitted.  (A same-time start may follow the arrival that caused it, so
    # only the complete-before-arrival order is a log invariant.)
    for (t1, k1, _, _), (t2, k2, _, _) in zip(r.events, r.events[1:]):
        if t1 == t2:
            assert not (k1 == TASK_ARRIVAL and k2 == TASK_COMPLETE)
    assert r.events[-1] == (cfg.sim.episode_duration, EPISODE_END, -1, -1)
    assert all(t <= cfg.sim.episode_duration for t in times)


def test_tasks_transfer_at_most_once(cfg):
    r = run_episode(cfg, hef_policies(cfg), arrival_seed=4, collect_events=True)
    arrivals = {}
    for time, kind, task_id, unit in r.events:
        if kind == TASK_ARRIVAL:
            arrivals.setdefault(task_id, []).append((time, unit))
    offloaded = 0
    for rec in r.placements:
        seen = arrivals[rec.task_id]
        assert seen[0][1] == rec.origin_uav
        assert seen[0][0] == rec.arrival_time
        if rec.chosen_unit == rec.origin_uav:
            assert len(seen) == 1
        elif rec.enqueue_time is not None:
            assert len(seen) == 2
            assert seen[1][1] == rec.chosen_unit
            assert seen[1][0] == pytest.approx(
                rec.arrival_time + cfg.sim.transfer_delay(rec.origin_uav, rec.chosen_unit)
            )
            offloaded += 1
        else:
            assert len(seen) == 1  # still in transit at the horizon
    assert offloaded > 0


def test_round_robin_placement_cycles(cfg):
    r = run_episode(cfg, rr_policies(cfg), arrival_seed=7)
    for uav in range(cfg.sim.num_uavs):
        chosen = [rec.chosen_unit for rec in r.placements if rec.origin_uav == uav]
        assert len(chosen) > 100
        assert chosen == [i % cfg.sim.num_units for i in range(len(chosen))]


def test_queues_serve_fifo_without_idling(cfg):
    r = run_episode(cfg, hef_policies(cfg), arrival_seed=8, collect_events=True)
    assert_fifo_work_conserving(r)


def test_latency_components_match_event_replay(cfg):
    r = run_episode(cfg, hef_policies(cfg), arrival_seed=9, collect_events=True)
    oracle = replay_delays(cfg, r)
    completed = [rec for rec in r.placements if rec.completed]
    assert len(completed) == len(oracle) > 500
    for rec in completed:
        wait, service, transfer, violated = oracle[rec.task_id]
        assert rec.start_time - rec.enqueue_time == wait
        assert rec.service_time == pytest.approx(service, abs=1e-12)
        # The record reaches its unit one configured hop after arriving.
        assert rec.enqueue_time == rec.arrival_time + transfer
        assert rec.violated == violated


def test_battery_matches_event_replay(cfg):
    r = run_episode(cfg, hef_policies(cfg), arrival_seed=10, collect_events=True)
    oracle = replay_battery(cfg, r)
    for got, expected_wh in zip(r.battery_fraction, oracle):
        assert got == pytest.approx(expected_wh / 570.0, rel=1e-12)
    # Busy UAVs drained more than the idle floor alone.
    idle_only = (570.0 - 4548.0 * cfg.sim.episode_duration / 3600.0) / 570.0
    assert all(frac < idle_only for frac in r.battery_fraction)


def test_local_delay_prediction_is_exact(cfg):
    # For tasks served where they were decided, the decision-time estimate is
    # float-identical to the realized wait plus service.
    r = run_episode(cfg, [AlwaysLocalPolicy() for _ in range(4)], arrival_seed=11)
    started_local = [
        rec for rec in r.placements
        if rec.start_time is not None and rec.chosen_unit == rec.origin_uav
    ]
    assert len(started_local) > 500
    for rec in started_local:
        assert rec.predicted_delay == (rec.start_time - rec.enqueue_time) + rec.service_time


def test_horizon_censoring_rules(cfg):
    # Local-only on the default load overloads every UAV queue, leaving tasks
    # in every censoring category at the horizon.
    r = run_episode(cfg, [AlwaysLocalPolicy() for _ in range(4)], arrival_seed=12)
    end = cfg.sim.episode_duration
    in_service = [rec for rec in r.placements if not rec.completed and rec.start_time is not None]
    queued = [rec for rec in r.placements if rec.start_time is None]
    assert len(in_service) > 0
    assert len(queued) > 0
    for rec in in_service:
        assert rec.violated == (rec.start_time + rec.service_time > rec.deadline_abs)
    for rec in queued:
        assert rec.violated == (rec.deadline_abs <= end)
    # Both outcomes of the queued rule occur: late-emitted tasks with loose
    # deadlines are censored clean, old ones are violations.
    assert any(rec.violated for rec in queued)
    assert any(not rec.violated for rec in queued)


def test_invalid_policy_actions_raise(cfg):
    class OutOfRange(AlwaysLocalPolicy):
        def select(self, snap):
            return 99

    class WrongType(AlwaysLocalPolicy):
        def select(self, snap):
            return 1.5

    class Negative(AlwaysLocalPolicy):
        def select(self, snap):
            return -1

    for bad in (OutOfRange, WrongType, Negative):
        policies = [bad()] + [AlwaysLocalPolicy() for _ in range(3)]
        with pytest.raises(SimulationError):
            run_episode(cfg, policies, arrival_seed=1)
    with pytest.raises(SimulationError):
        run_episode(cfg, [AlwaysLocalPolicy()], arrival_seed=1)


def test_numpy_integer_actions_accepted(cfg):
    class NumpyLocal(AlwaysLocalPolicy):
        def select(self, snap):
            return np.int64(snap.deciding_uav)

    r = run_episode(cfg, [NumpyLocal() for _ in range(4)], arrival_seed=1)
    assert r.tasks_generated > 0


def test_learner_transitions_chain_and_sum_to_reward(desk_cfg):
    learners = [CollectingLearner() for _ in range(desk_cfg.sim.num_uavs)]
    r = run_episode(desk_cfg, learners, arrival_seed=13)
    decisions = [0] * desk_cfg.sim.num_uavs
    for rec in r.placements:
        decisions[rec.origin_uav] += 1
    for uav, learner in enumerate(learners):
        kept = learner.ingested
        # Default mode keeps every decision, marking the last one terminal.
        assert len(kept) == decisions[uav]
        for t_now, t_next in zip(kept, kept[1:]):
            assert np.array_equal(t_now.next_state, t_next.state)
        assert all(not t.terminal for t in kept[:-1])
        assert kept[-1].terminal
        assert np.array_equal(kept[-1].next_state, kept[-1].state)
        assert sum(t.reward for t in kept) == r.cumulative_reward[uav]


def test_tail_transition_dropped_without_terminal_flag(desk_cfg):
    desk_cfg.rl.terminal_on_episode_end = False
    learners = [CollectingLearner() for _ in range(desk_cfg.sim.num_uavs)]
    r = run_episode(desk_cfg, learners, arrival_seed=13)
    decisions = [0] * desk_cfg.sim.num_uavs
    for rec in r.placements:
        decisions[rec.origin_uav] += 1
    for uav, learner in enumerate(learners):
        kept = learner.ingested
        assert len(kept) == decisions[uav] - 1
        assert all(not t.terminal for t in kept)
        # The dropped decision's reward still counted.
        assert sum(t.reward for t in kept) != pytest.approx(r.cumulative_reward[uav])


def test_deferred_rewards_use_realized_outcomes(desk_cfg):
    desk_cfg.mdp.deferred_reward = True
    recorders = [RecordingLearner() for _ in range(desk_cfg.sim.num_uavs)]
    r = run_episode(desk_cfg, recorders, arrival_seed=14)
    for uav, recorder in enumerate(recorders):
        records = [rec for rec in r.placements if rec.origin_uav == uav]
        assert len(records) == len(recorder.seen)
        expected = 0.0
        for rec, (snap, action) in zip(records, recorder.seen):
            assert action == rec.chosen_unit
            tier, _, penalty = compute_reward_parts(action, snap, desk_cfg.mdp)
            expected += assemble_reward(tier, rec.violated, penalty)
        assert r.cumulative_reward[uav] == pytest.approx(expected, rel=1e-9)


def test_deferred_and_immediate_rewards_differ_when_predictions_miss(desk_cfg):
    # The predicted violation flags are not the realized ones under load, so
    # the two reward modes disagree on the same workload.
    immediate = run_episode(
        desk_cfg, [CollectingLearner() for _ in range(2)], arrival_seed=15, collect_events=True
    )
    desk_cfg.mdp.deferred_reward = True
    deferred = run_episode(
        desk_cfg, [CollectingLearner() for _ in range(2)], arrival_seed=15, collect_events=True
    )
    assert immediate.events == deferred.events  # same physics
    rewards = immediate.cumulative_reward + deferred.cumulative_reward
    assert all(isinstance(r, float) for r in rewards)
    assert immediate.cumulative_reward != deferred.cumulative_reward


class _Scored(Exception):
    pass


@pytest.mark.parametrize("deferred", [False, True], ids=["immediate", "deferred"])
def test_only_learners_are_scored(desk_cfg, tmp_path, monkeypatch, deferred):
    desk_cfg.mdp.deferred_reward = deferred
    checkpoints = {}
    for policy in ("qlearning", "dql"):
        agents, _ = train_policy(desk_cfg, policy, 2, master_seed=1)
        checkpoints[policy] = tmp_path / f"{policy}.ckpt"
        save_checkpoint(policy, agents, checkpoints[policy], desk_cfg, 1, 2)

    def refuse(*args):
        raise _Scored

    monkeypatch.setattr(simulation, "compute_reward_parts", refuse)
    seed = arrival_seed(1, 0)
    for policy in ("rr", "hef", "qhef", "qlearning", "dql"):
        policies = load_policies(policy, desk_cfg, checkpoints.get(policy), 1, 0)
        r = run_episode(desk_cfg, policies, seed)
        assert r.tasks_generated > 0
        assert r.cumulative_reward == [None] * desk_cfg.sim.num_uavs
    # A learner's decisions go through the patched scorer...
    with pytest.raises(_Scored):
        run_episode(desk_cfg, [CollectingLearner() for _ in range(2)], seed)
    monkeypatch.undo()
    # ...and, unpatched, come out with float rewards.
    r = run_episode(desk_cfg, [CollectingLearner() for _ in range(2)], seed)
    assert all(isinstance(x, float) for x in r.cumulative_reward)


def test_decision_snapshots_are_sane(cfg):
    recorders = [RecordingPolicy() for _ in range(4)]
    run_episode(cfg, recorders, arrival_seed=16)
    seen = 0
    for recorder in recorders:
        for snap, _ in recorder.seen:
            seen += 1
            assert snapshot_is_sane(snap)
            # Unit delays include the task's own service time on that unit.
            for u in range(snap.num_units):
                assert snap.unit_delays[u] >= snap.proc_times[u]
            assert all(math.isfinite(b) for b in snap.unit_batteries[: snap.num_uavs])
    assert seen > 1000


def test_event_collection_is_optional(cfg):
    # Off by default: production runs never read the log.  Keeping it changes
    # nothing else, for every policy, learners included.
    for policy in POLICY_NAMES:
        r = run_episode(cfg, make_policies(policy, cfg, 17, 0), arrival_seed=17)
        assert r.events is None
        assert r.tasks_generated > 0
        logged = run_episode(
            cfg, make_policies(policy, cfg, 17, 0), arrival_seed=17, collect_events=True
        )
        assert logged.events[-1] == (cfg.sim.episode_duration, EPISODE_END, -1, -1)
        assert [astuple(t) for t in logged.placements] == [astuple(t) for t in r.placements]
        assert logged.battery_fraction == r.battery_fraction
        assert logged.violations_by_unit == r.violations_by_unit
        assert logged.violations_total == r.violations_total
        assert (logged.tasks_generated, logged.tasks_completed, logged.tasks_in_queue,
                logged.tasks_in_service) == (r.tasks_generated, r.tasks_completed,
                                             r.tasks_in_queue, r.tasks_in_service)
        assert logged.cumulative_reward == r.cumulative_reward
        if policy in LEARNER_POLICIES:
            assert all(isinstance(x, float) for x in r.cumulative_reward)


class ScriptedPolicy:
    """Places the deciding UAV's tasks on the given units, in decision order."""

    wants_transitions = False

    def __init__(self, units):
        self.units = list(units)

    def select(self, snap):
        return self.units.pop(0)


def test_equal_time_events_follow_the_tie_rule(cfg, monkeypatch):
    # Two UAVs and one MEC; every time below is a sum of powers of two, so
    # the ties are exact.  At t=1.0 a completion, a forwarded arrival and a
    # sensed arrival coincide; at the horizon t=2.0 a completion and a
    # forwarded arrival meet the end marker.
    cfg.sim.num_uavs, cfg.sim.num_mecs = 2, 1
    cfg.sim.episode_duration = 2.0
    cfg.sim.uav_to_uav_delay = cfg.sim.uav_to_mec_delay = 0.25
    cfg.tasks[0].proc_time_uav, cfg.tasks[0].proc_time_mec = 0.5, 0.25
    arrivals = [(0, 0.5), (1, 0.75), (0, 1.0), (1, 1.75)]
    table = [
        TaskInstance(i, 0, uav, arrival - 0.25, arrival, arrival + 4.0)
        for i, (uav, arrival) in enumerate(arrivals)
    ]
    monkeypatch.setattr(simulation, "build_task_table", lambda *args: table)
    policies = [ScriptedPolicy([0, 0]), ScriptedPolicy([0, 2])]
    r = run_episode(cfg, policies, arrival_seed=1, collect_events=True)
    assert r.events == [
        (0.5, TASK_ARRIVAL, 0, 0), (0.5, TASK_START, 0, 0),
        (0.75, TASK_ARRIVAL, 1, 1),
        # Completion first, then arrivals by task id: the forwarded task 1
        # starts on the freed unit before the sensed task 2 is decided.
        (1.0, TASK_COMPLETE, 0, 0), (1.0, TASK_ARRIVAL, 1, 0), (1.0, TASK_START, 1, 0),
        (1.0, TASK_ARRIVAL, 2, 0),
        (1.5, TASK_COMPLETE, 1, 0), (1.5, TASK_START, 2, 0),
        (1.75, TASK_ARRIVAL, 3, 1),
        # A forwarded arrival on the horizon still runs, before the marker.
        (2.0, TASK_COMPLETE, 2, 0), (2.0, TASK_ARRIVAL, 3, 2), (2.0, TASK_START, 3, 2),
        (2.0, EPISODE_END, -1, -1),
    ]
    # Task 2 was decided with task 1 already in service until 1.5.
    assert r.placements[2].predicted_delay == 0.5 + 0.5
    assert (r.tasks_completed, r.tasks_in_service, r.tasks_in_queue) == (3, 1, 0)
