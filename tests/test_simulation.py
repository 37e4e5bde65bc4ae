import contextlib
import math
import tempfile
from collections import Counter
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceAgentPipeline,
    ScriptedPlacements,
    assert_fifo_work_conserving,
    assert_tie_rule,
    replay_battery,
    replay_delays,
    run_on_table,
    snapshot_is_sane,
    task_table,
)
from uavmec import simulation
from uavmec.arrivals import TaskInstance
from uavmec.config import LEARNER_POLICIES, POLICY_NAMES, load_config
from uavmec.deep import DqlAgent
from uavmec.harness import (
    arrival_seed, load_policies, make_policies, save_checkpoint, training_loop,
)
from uavmec.heuristics import HefPolicy, RoundRobinPolicy
from uavmec.mdp import NetworkSnapshot, assemble_reward, compute_reward_parts, encode_state
from uavmec.simulation import (
    EPISODE_END,
    TASK_ARRIVAL,
    TASK_COMPLETE,
    TASK_START,
    SimulationError,
    run_episode,
)
from uavmec.tabular import QlAgent


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
        wait, service, elapsed, transfer, violated = oracle[rec.task_id]
        assert rec.start_time - rec.enqueue_time == wait
        assert rec.service_time == service
        assert elapsed == pytest.approx(service, abs=1e-12)
        # The record reaches its unit one configured hop after arriving.
        assert rec.enqueue_time == rec.arrival_time + transfer
        assert rec.violated == violated


def test_battery_matches_event_replay(cfg):
    p = cfg.energy
    for power_scale in (1, 2):
        p.power_scale = power_scale
        r = run_episode(cfg, hef_policies(cfg), arrival_seed=10, collect_events=True)
        oracle = replay_battery(cfg, r)
        for got, expected_wh in zip(r.battery_fraction, oracle):
            assert got == pytest.approx(expected_wh / p.battery_capacity_wh, rel=1e-12)
        # Busy UAVs drained more than the idle floor alone.
        idle_wh = ((p.hover_power_w + p.antenna_power_w + p.cpu_idle_power_w) * power_scale
                   * cfg.sim.episode_duration / 3600.0)
        idle_only = (p.battery_capacity_wh - idle_wh) / p.battery_capacity_wh
        assert all(frac < idle_only for frac in r.battery_fraction)


def test_local_delay_prediction_is_exact(cfg):
    # For tasks served where they were decided, the decision-time estimate is
    # float-identical to the realized wait plus service.
    policies = [RecordingPolicy() for _ in range(4)]
    r = run_episode(cfg, policies, arrival_seed=11)
    started_local = 0
    for uav, policy in enumerate(policies):
        records = [rec for rec in r.placements if rec.origin_uav == uav]
        assert len(records) == len(policy.seen)
        for rec, (snap, action) in zip(records, policy.seen):
            if rec.start_time is None or rec.chosen_unit != rec.origin_uav:
                continue
            started_local += 1
            assert snap.unit_delays[action] == (
                (rec.start_time - rec.enqueue_time) + rec.service_time)
    assert started_local > 500


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

    class Boolean(AlwaysLocalPolicy):
        # True == 1 names an existing unit, but a bool is no unit index.
        def select(self, snap):
            return True

    for bad in (OutOfRange, WrongType, Negative, Boolean):
        policies = [bad()] + [AlwaysLocalPolicy() for _ in range(3)]
        with pytest.raises(SimulationError):
            run_episode(cfg, policies, arrival_seed=1)
    with pytest.raises(SimulationError):
        run_episode(cfg, [AlwaysLocalPolicy()], arrival_seed=1)


def test_numpy_integer_actions_accepted(cfg):
    class NumpyUnits(RecordingPolicy):
        """Cycles over the units, each choice a NumPy integer."""

        def select(self, snap):
            action = np.int64(len(self.seen) % snap.num_units)
            self.seen.append((snap, action))
            return action

    policies = [NumpyUnits() for _ in range(4)]
    r = run_episode(cfg, policies, arrival_seed=1)
    assert r.tasks_generated > 0
    started_local = 0
    # Each UAV decides its own sensed tasks in id order.
    for uav, policy in enumerate(policies):
        records = [rec for rec in r.placements if rec.origin_uav == uav]
        assert len(records) == len(policy.seen)
        for rec, (snap, action) in zip(records, policy.seen):
            assert type(rec.chosen_unit) is int and rec.chosen_unit == action
            # A task kept local starts behind exactly the work the snapshot
            # counted: forwarded tasks still in transit queue after it.
            if rec.chosen_unit == uav and rec.start_time is not None:
                started_local += 1
                assert snap.unit_delays[action] == (
                    (rec.start_time - rec.enqueue_time) + rec.service_time)
    assert started_local > 0


def test_policy_without_snapshot_may_not_encode(cfg):
    class EncodingRoundRobin(RoundRobinPolicy):
        def encode(self, snap):
            return snap

    policies = rr_policies(cfg)
    policies[2] = EncodingRoundRobin(cfg.sim.num_units)
    with pytest.raises(SimulationError, match="uav2 sets wants_snapshot = False"):
        run_episode(cfg, policies, arrival_seed=1)
    # Refused before the first decision.
    assert [p.counter for p in policies] == [0] * cfg.sim.num_uavs


def test_policy_without_snapshot_may_not_learn(cfg):
    class LearningRoundRobin(RoundRobinPolicy):
        wants_transitions = True

        def ingest(self, t):
            pass

    policies = rr_policies(cfg)
    policies[1] = LearningRoundRobin(cfg.sim.num_units)
    with pytest.raises(SimulationError, match="uav1 sets wants_snapshot = False"):
        run_episode(cfg, policies, arrival_seed=1)
    assert [p.counter for p in policies] == [0] * cfg.sim.num_uavs


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


class RandomRecordingLearner:
    """Seeded uniform placements over every unit; records each ingested
    transition as its field tuple.  Its state is the snapshot itself."""

    def __init__(self, num_units: int, seed: int, learns: bool):
        self.num_units = num_units
        self.rng = np.random.default_rng(seed)
        self.wants_transitions = learns
        self.ingested = []

    def select(self, snap):
        return int(self.rng.integers(self.num_units))

    def ingest(self, t):
        self.ingested.append(astuple(t))


@st.composite
def pipeline_cases(draw):
    """A small generated config, its arrival seed, and which UAVs learn."""
    cfg = load_config()
    sim = cfg.sim
    sim.num_uavs = draw(st.integers(1, 3))
    sim.num_mecs = draw(st.integers(0, 2))
    sim.episode_duration = draw(st.sampled_from([0.25, 1.0, 2.5]))
    # Zero, equal, or the default unequal link delays.
    links = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.01, 0.01, 0.01), (0.0, 0.02, 0.02),
                                  (0.01, 0.015, 0.02)]))
    sim.iot_to_uav_delay, sim.uav_to_uav_delay, sim.uav_to_mec_delay = links
    cfg.mdp.deferred_reward = draw(st.booleans())
    cfg.rl.terminal_on_episode_end = draw(st.booleans())
    learns = draw(st.lists(st.booleans(), min_size=sim.num_uavs, max_size=sim.num_uavs))
    return cfg, draw(st.integers(0, 2**16)), learns


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pipeline_cases())
def test_pipeline_ingests_what_the_deque_oracle_ingests(case):
    """The same transitions, in the same order, and the same rewards as the
    original queue-and-flush pipeline, in both reward modes and with and
    without a terminal tail, over generated fleets and workloads."""
    cfg, seed, learns = case

    def run():
        learners = [RandomRecordingLearner(cfg.sim.num_units, seed + uav, learns[uav])
                    for uav in range(cfg.sim.num_uavs)]
        result = run_episode(cfg, learners, arrival_seed=seed)
        return result.cumulative_reward, [learner.ingested for learner in learners]

    rewards, ingested = run()
    with mock.patch.object(simulation, "_AgentPipeline", ReferenceAgentPipeline):
        expected_rewards, expected_ingested = run()
    assert rewards == expected_rewards
    assert ingested == expected_ingested
    assert [r is None for r in rewards] == [not learner for learner in learns]


# Powers of two, so that every sum of them on the grid below is exact.
_DYADIC = [0.0, 0.0625, 0.125, 0.25, 0.5]


@st.composite
def kernel_cases(draw, policies=("rr", "hef", "qhef", "random")):
    """A small generated config, one of ``policies`` for it, and either an
    arrival seed or, for exact ties, a task table whose arrivals, link delays
    and service times all lie on a 1/16 s grid."""
    cfg = load_config()
    sim = cfg.sim
    sim.num_uavs = draw(st.integers(1, 4))
    sim.num_mecs = draw(st.integers(0, 2))
    sim.episode_duration = draw(st.sampled_from([0.5, 1.0, 2.0]))
    dyadic = draw(st.booleans())
    if dyadic:
        links = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.0625, 0.0625, 0.0625),
                                      (0.0, 0.125, 0.125), (0.0625, 0.0, 0.25)]))
    else:
        links = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.01, 0.01, 0.01), (0.0, 0.02, 0.02)]))
    sim.iot_to_uav_delay, sim.uav_to_uav_delay, sim.uav_to_mec_delay = links
    for spec in cfg.tasks:
        if dyadic:
            spec.proc_time_uav = draw(st.sampled_from(_DYADIC[1:]))
            spec.proc_time_mec = draw(st.sampled_from(_DYADIC[1:]))
        # At or just above the service time on the UAV, so that an idle local
        # service meets the deadline exactly, on the grid or off it.
        slack = draw(st.sampled_from(_DYADIC[:3]))
        spec.deadline = sim.iot_to_uav_delay + spec.proc_time_uav + slack
    arrivals = None
    if dyadic:
        slots = int(sim.episode_duration * 16)
        arrivals = sorted(draw(st.lists(
            st.tuples(st.integers(0, sim.num_uavs - 1), st.integers(0, len(cfg.tasks) - 1),
                      st.integers(0, slots - 1)),
            max_size=40)), key=lambda a: a[2])
        arrivals = [(uav, type_id, slot / 16) for uav, type_id, slot in arrivals]
    policy = draw(st.sampled_from(policies))
    return cfg, policy, draw(st.integers(0, 2**16)), arrivals


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_invariants_over_generated_configs(case):
    """The event-log replays, FIFO service without idling, task conservation,
    the tie rule, and the same results with and without the event log, over
    generated fleets, link delays, tight deadlines and exact ties."""
    cfg, policy, seed, arrivals = case

    def run(collect_events):
        if policy == "random":
            policies = [RandomRecordingLearner(cfg.sim.num_units, seed + uav, False)
                        for uav in range(cfg.sim.num_uavs)]
        else:
            policies = make_policies(policy, cfg, seed, 0)
        if arrivals is None:
            return run_episode(cfg, policies, seed, collect_events=collect_events)
        return run_on_table(cfg, policies, task_table(cfg, arrivals), collect_events)

    r = run(collect_events=True)
    assert_tie_rule(r.events)
    assert_fifo_work_conserving(r)
    oracle = replay_delays(cfg, r)
    completed = [rec for rec in r.placements if rec.completed]
    assert len(completed) == len(oracle)
    for rec in completed:
        wait, service, elapsed, transfer, violated = oracle[rec.task_id]
        assert rec.start_time - rec.enqueue_time == wait
        assert rec.service_time == service
        assert elapsed == pytest.approx(service, abs=1e-12)
        assert rec.enqueue_time == rec.arrival_time + transfer
        assert rec.violated == violated
    capacity = cfg.energy.battery_capacity_wh
    for got, expected_wh in zip(r.battery_fraction, replay_battery(cfg, r), strict=True):
        assert got == pytest.approx(expected_wh / capacity, rel=1e-12)

    kinds = Counter(kind for _, kind, _, _ in r.events)
    assert r.tasks_generated == len(r.placements)
    assert r.tasks_completed == kinds[TASK_COMPLETE]
    assert r.tasks_in_service == kinds[TASK_START] - kinds[TASK_COMPLETE]
    assert r.tasks_generated == r.tasks_completed + r.tasks_in_queue + r.tasks_in_service
    assert all(rec.violated is not None for rec in r.placements)
    assert r.violations_total == sum(r.violations_by_unit) == sum(
        rec.violated for rec in r.placements)

    quiet = run(collect_events=False)
    assert quiet.events is None
    assert [astuple(t) for t in quiet.placements] == [astuple(t) for t in r.placements]
    assert (quiet.battery_fraction, quiet.violations_by_unit, quiet.tasks_completed,
            quiet.tasks_in_queue, quiet.tasks_in_service) == (
        r.battery_fraction, r.violations_by_unit, r.tasks_completed, r.tasks_in_queue,
        r.tasks_in_service)


class SnapshotRoundRobin(RoundRobinPolicy):
    """Round robin that asks for the snapshot it does not read."""

    wants_snapshot = True


def recording_select(policy, seen: list):
    """Wrap ``policy.select`` so that it appends each state it is passed to ``seen``."""
    select = policy.select

    def record(state):
        seen.append(state)
        return select(state)

    policy.select = record
    return policy


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases(policies=("rr",)))
def test_round_robin_without_a_snapshot_decides_the_same(case):
    """The shipped round robin is passed None at every decision, and its
    episode equals, field by field and event by event, that of a round robin
    that is built a snapshot it never reads."""
    cfg, _, seed, arrivals = case

    def run(policy_class):
        seen: list = []
        policies = [recording_select(policy_class(cfg.sim.num_units), seen)
                    for _ in range(cfg.sim.num_uavs)]
        if arrivals is None:
            result = run_episode(cfg, policies, seed, collect_events=True)
        else:
            result = run_on_table(cfg, policies, task_table(cfg, arrivals))
        return result, seen

    blind, blind_seen = run(RoundRobinPolicy)
    sighted, sighted_seen = run(SnapshotRoundRobin)
    assert blind == sighted
    assert len(blind_seen) == len(sighted_seen) == blind.tasks_generated
    assert all(state is None for state in blind_seen)
    assert all(type(state) is NetworkSnapshot for state in sighted_seen)


def recording(agent):
    """Wrap ``agent`` so that it keeps its decision states and its ingested
    transitions, each in order; returns those two lists."""
    states, ingested = [], []
    encode, ingest = agent.encode, agent.ingest

    def recording_encode(snap):
        states.append(encode(snap))
        return states[-1]

    def recording_ingest(t):
        ingested.append(t)
        ingest(t)

    agent.encode, agent.ingest = recording_encode, recording_ingest
    return states, ingested


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases(policies=LEARNER_POLICIES), deferred=st.booleans(),
       terminal=st.booleans())
def test_learner_invariants_over_generated_configs(case, deferred, terminal):
    """Both learners on tiny budgets over the generated configs: every
    transition chains to its agent's next decision, the ingested rewards add
    up to the episode's, and a checkpoint round trip gives back the same
    models, which re-evaluate to the same episode."""
    cfg, policy, seed, arrivals = case
    cfg.mdp.deferred_reward = deferred
    cfg.rl.terminal_on_episode_end = terminal
    cfg.rl.batch_size, cfg.rl.replay_capacity, cfg.rl.hidden_sizes = 4, 32, (4,)
    episodes = 2
    tables = mock.patch.object(
        simulation, "build_task_table", lambda *args: task_table(cfg, arrivals))
    with tables if arrivals is not None else contextlib.nullcontext():
        agents = make_policies(policy, cfg, seed, 0)
        records = [recording(agent) for agent in agents]
        for _, result in training_loop(cfg, agents, seed, episodes):
            for uav, (states, ingested) in enumerate(records):
                assert len(ingested) == (len(states) if terminal else max(len(states) - 1, 0))
                total = 0.0
                for i, t in enumerate(ingested):
                    assert t.state is states[i]
                    if i + 1 < len(states):
                        assert t.next_state is states[i + 1] and not t.terminal
                    else:
                        assert t.next_state is t.state and t.terminal
                    total += t.reward
                # Without a terminal transition the last decision's reward
                # counts in the episode's but is not ingested.  Deferred
                # rewards add up in the order their tasks resolve.
                if terminal and deferred:
                    assert total == pytest.approx(result.cumulative_reward[uav], rel=1e-9)
                elif terminal:
                    assert total == result.cumulative_reward[uav]
                states.clear()
                ingested.clear()

        if policy == "qlearning":
            in_memory = [QlAgent.frozen(agent.grid, agent.table) for agent in agents]
        else:
            in_memory = [DqlAgent.frozen(agent.net, cfg.mdp.state_layout) for agent in agents]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{policy}.ckpt"
            save_checkpoint(policy, agents, path, cfg, seed, episodes)
            loaded = load_policies(policy, cfg, str(path), seed, 0)
        for mine, theirs in zip(in_memory, loaded, strict=True):
            if policy == "qlearning":
                assert theirs.table.keys() == mine.table.keys()
                assert all(np.array_equal(theirs.table[key], row)
                           for key, row in mine.table.items())
            else:
                assert np.array_equal(theirs.net.flat, mine.net.flat)
        evaluated = [run_episode(cfg, frozen, seed, episode_index=episodes, collect_events=True)
                     for frozen in (in_memory, loaded)]
    assert evaluated[0] == evaluated[1]


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
def test_only_learners_are_scored(desk_cfg, desk_checkpoints, monkeypatch, deferred):
    desk_cfg.mdp.deferred_reward = deferred

    def refuse(*args):
        raise _Scored

    monkeypatch.setattr(simulation, "compute_reward_parts", refuse)
    seed = arrival_seed(1, 0)
    for policy in ("rr", "hef", "qhef", "qlearning", "dql"):
        policies = load_policies(policy, desk_cfg, desk_checkpoints.get(policy), 1, 0)
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


def test_event_log_holds_one_entry_per_logged_step(cfg):
    # Every log site still writes: one arrival per task, one more per
    # forwarded task that reached its unit's queue, one start per started
    # task, one completion per completed task, and the end marker.
    for policy in POLICY_NAMES:
        r = run_episode(cfg, make_policies(policy, cfg, 17, 0), arrival_seed=17,
                        collect_events=True)
        tasks = r.placements
        forwarded = sum(t.chosen_unit != t.origin_uav and t.enqueue_time is not None
                        for t in tasks)
        started = sum(t.start_time is not None for t in tasks)
        completed = sum(t.completed for t in tasks)
        assert len(r.events) == len(tasks) + forwarded + started + completed + 1
        kinds = Counter(kind for _, kind, _, _ in r.events)
        assert kinds == {TASK_ARRIVAL: len(tasks) + forwarded, TASK_START: started,
                         TASK_COMPLETE: completed, EPISODE_END: 1}
        assert forwarded > 0 and completed > 0


def test_equal_time_events_follow_the_tie_rule(cfg):
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
    policy = ScriptedPlacements([0, 0, 0, 2])
    r = run_on_table(cfg, [policy, policy], table)
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
    task2 = r.placements[2]
    assert policy.seen[2].unit_delays[task2.chosen_unit] == 0.5 + 0.5
    assert (task2.start_time - task2.enqueue_time) + task2.service_time == 0.5 + 0.5
    assert (r.tasks_completed, r.tasks_in_service, r.tasks_in_queue) == (3, 1, 0)


def test_sensed_arrival_on_the_horizon_is_decided_before_the_end(cfg):
    # A sensed arrival at exactly the horizon ties with a completion and the
    # end marker.  The completion runs first, then the arrival, which is
    # decided, enqueued and started; the marker closes the log.
    cfg.sim.num_uavs, cfg.sim.num_mecs = 2, 1
    cfg.sim.episode_duration = 2.0
    cfg.sim.uav_to_uav_delay = cfg.sim.uav_to_mec_delay = 0.25
    cfg.tasks[0].proc_time_uav, cfg.tasks[0].proc_time_mec = 0.5, 0.25
    table = [
        TaskInstance(i, 0, 0, arrival - 0.25, arrival, arrival + 4.0)
        for i, arrival in enumerate([1.5, 2.0])
    ]
    policy = ScriptedPlacements([0, 0])
    r = run_on_table(cfg, [policy, policy], table)
    assert r.events == [
        (1.5, TASK_ARRIVAL, 0, 0), (1.5, TASK_START, 0, 0),
        (2.0, TASK_COMPLETE, 0, 0), (2.0, TASK_ARRIVAL, 1, 0), (2.0, TASK_START, 1, 0),
        (2.0, EPISODE_END, -1, -1),
    ]
    assert len(policy.seen) == 2 and policy.seen[1].unit_delays[0] == 0.5
    assert (r.tasks_completed, r.tasks_in_service, r.tasks_in_queue) == (1, 1, 0)
