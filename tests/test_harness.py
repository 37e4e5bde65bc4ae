import numpy as np
import pytest

from uavmec import harness
from uavmec.config import ConfigError
from uavmec.deep import DqlAgent
from uavmec.harness import (
    agent_rng,
    arrival_seed,
    checkpoint_kind,
    derive_seed,
    evaluate_many,
    evaluate_policy,
    inspect_checkpoint,
    load_policies,
    make_policies,
    save_checkpoint,
    train_policy,
)
from uavmec.heuristics import HefPolicy, QhefPolicy, RoundRobinPolicy
from uavmec.metrics import metrics_from_episodes
from uavmec.simulation import run_episode
from uavmec.tabular import QlAgent


def test_derive_seed_is_stable_and_spread():
    assert derive_seed("arrivals", 1, 0) == derive_seed("arrivals", 1, 0)
    assert derive_seed("arrivals", 1, 0) != derive_seed("arrivals", 1, 1)
    assert derive_seed("arrivals", 1, 0) != derive_seed("agent", 1, 0)
    seeds = {derive_seed("x", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**63 for s in seeds)


def test_arrival_seed_ignores_policy():
    # Workloads are paired across policies: the arrival seed depends only on
    # the master seed and the seed index.
    assert arrival_seed(1, 0) == arrival_seed(1, 0)
    assert arrival_seed(1, 0) != arrival_seed(1, 1)
    assert arrival_seed(1, 0) != arrival_seed(2, 0)


def test_agent_rng_decorrelates_policies_and_uavs():
    a = agent_rng(1, "hef", 0, 0).random()
    assert a != agent_rng(1, "dql", 0, 0).random()
    assert a != agent_rng(1, "hef", 0, 1).random()
    assert a != agent_rng(1, "hef", 1, 0).random()
    assert a == agent_rng(1, "hef", 0, 0).random()


def test_make_policies_types_and_counts(cfg):
    kinds = {
        "rr": RoundRobinPolicy,
        "hef": HefPolicy,
        "qhef": QhefPolicy,
        "qlearning": QlAgent,
        "dql": DqlAgent,
    }
    for name, kind in kinds.items():
        policies = make_policies(name, cfg, master_seed=1, seed_index=0)
        assert len(policies) == cfg.sim.num_uavs
        assert all(isinstance(p, kind) for p in policies)
    with pytest.raises(ConfigError):
        make_policies("greedy", cfg, 1, 0)


def test_train_policy_reward_series_shape(desk_cfg):
    agents, rewards = train_policy(desk_cfg, "qlearning", episodes=4, master_seed=1)
    assert len(agents) == desk_cfg.sim.num_uavs
    assert len(rewards) == desk_cfg.sim.num_uavs
    assert all(len(series) == 4 for series in rewards)
    # Training populated the tables.
    assert all(len(a.table) > 0 for a in agents)
    with pytest.raises(ConfigError):
        train_policy(desk_cfg, "rr", episodes=1, master_seed=1)


def test_training_is_reproducible(desk_cfg):
    _, r1 = train_policy(desk_cfg, "qlearning", episodes=3, master_seed=1)
    _, r2 = train_policy(desk_cfg, "qlearning", episodes=3, master_seed=1)
    assert r1 == r2
    _, r3 = train_policy(desk_cfg, "qlearning", episodes=3, master_seed=2)
    assert r1 != r3


def test_checkpoint_roundtrip_preserves_greedy_behavior(desk_cfg, tmp_path):
    for policy in ("qlearning", "dql"):
        episodes = 3
        agents, _ = train_policy(desk_cfg, policy, episodes, master_seed=1)
        path = tmp_path / f"{policy}.ckpt"
        save_checkpoint(policy, agents, path, desk_cfg, 1, episodes)
        assert checkpoint_kind(path) == policy

        loaded = load_policies(policy, desk_cfg, str(path), master_seed=1, seed_index=0)
        assert all(a.epsilon == 0.0 for a in loaded)
        assert all(a.wants_transitions is False for a in loaded)

        for agent in agents:
            agent.epsilon = 0.0
            agent.wants_transitions = False
        seed = arrival_seed(1, 500)
        direct = run_episode(desk_cfg, agents, seed, collect_events=False)
        reloaded = run_episode(desk_cfg, loaded, seed, collect_events=False)
        assert direct.cumulative_reward == reloaded.cumulative_reward
        assert direct.battery_wh == reloaded.battery_wh
        assert direct.violations_by_unit == reloaded.violations_by_unit


def test_load_policies_guards(desk_cfg, tmp_path):
    with pytest.raises(ConfigError):
        load_policies("qlearning", desk_cfg, None, 1, 0)
    with pytest.raises(FileNotFoundError):
        load_policies("dql", desk_cfg, str(tmp_path / "missing.ckpt"), 1, 0)
    # Heuristics ignore checkpoints entirely.
    policies = load_policies("rr", desk_cfg, None, 1, 0)
    assert len(policies) == desk_cfg.sim.num_uavs


def test_checkpoint_agent_count_mismatch(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "two.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    desk_cfg.sim.num_uavs = 3
    with pytest.raises(ValueError, match="checkpoint holds"):
        load_policies("qlearning", desk_cfg, str(path), 1, 0)


def test_checkpoint_kind_rejects_other_files(tmp_path):
    path = tmp_path / "nonsense.ckpt"
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        checkpoint_kind(path)


def test_inspect_checkpoint_summarizes(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "dql", 2, master_seed=1)
    path = tmp_path / "dql.ckpt"
    save_checkpoint("dql", agents, path, desk_cfg, 1, 2)
    text = inspect_checkpoint(path)
    assert "kind: dql" in text
    assert "agents: 2" in text
    assert "episodes_trained: 2" in text
    assert "dims" in text


def test_evaluate_policy_is_deterministic_and_paired(desk_cfg):
    runs_a = evaluate_policy(desk_cfg, "rr", 1, range(3))
    runs_b = evaluate_policy(desk_cfg, "rr", 1, range(3))
    assert len(runs_a) == 3
    for a, b in zip(runs_a, runs_b):
        assert a.battery_fraction == b.battery_fraction
        assert a.violations_by_unit == b.violations_by_unit
        assert a.total_tasks == b.total_tasks
    # Identical workloads across policies: same generated task counts per seed.
    runs_c = evaluate_policy(desk_cfg, "qhef", 1, range(3))
    for a, c in zip(runs_a, runs_c):
        assert a.total_tasks == c.total_tasks


def test_evaluation_leaves_learners_frozen(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    loaded = load_policies("qlearning", desk_cfg, str(path), 1, 0)
    tables_before = [{k: v.copy() for k, v in a.table.items()} for a in loaded]
    run_episode(desk_cfg, loaded, arrival_seed(1, 1000), collect_events=False)
    for agent, before in zip(loaded, tables_before):
        assert set(agent.table) == set(before)
        for k in before:
            assert np.array_equal(agent.table[k], before[k])


def test_evaluation_parses_each_checkpoint_once(desk_cfg, tmp_path, monkeypatch):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    parses = []
    original = harness.load_qtable

    def counting_load(p):
        parses.append(p)
        return original(p)

    monkeypatch.setattr(harness, "load_qtable", counting_load)
    runs = evaluate_policy(desk_cfg, "qlearning", 1, range(3), checkpoint=str(path))
    assert len(parses) == 1
    jobs = [(p, 1, s, 1, str(path) if p == "qlearning" else None)
            for p in ("qlearning", "rr") for s in range(2)]
    assert evaluate_many(desk_cfg, jobs)[:2] == runs[:2]
    assert len(parses) == 2
    # The same results as loading the checkpoint afresh for every seed.
    for seed_index, run in enumerate(runs):
        policies = load_policies("qlearning", desk_cfg, str(path), 1, seed_index)
        episode = run_episode(desk_cfg, policies, arrival_seed(1, seed_index), collect_events=False)
        assert run == metrics_from_episodes("qlearning", seed_index, [episode])


def test_evaluation_reads_a_rewritten_checkpoint(desk_cfg, tmp_path):
    path = tmp_path / "q.ckpt"
    runs = []
    for master in (1, 2):
        agents, _ = train_policy(desk_cfg, "qlearning", 3, master_seed=master)
        save_checkpoint("qlearning", agents, path, desk_cfg, master, 3)
        runs.append(evaluate_policy(desk_cfg, "qlearning", 1, range(2), checkpoint=str(path)))
    assert runs[0] != runs[1]  # the two checkpoints act differently
    copy = tmp_path / "copy.ckpt"
    copy.write_bytes(path.read_bytes())
    assert runs[1] == evaluate_policy(desk_cfg, "qlearning", 1, range(2), checkpoint=str(copy))
