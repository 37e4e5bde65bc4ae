import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavmec import deep, harness, nnet, simulation, tabular
from uavmec.cli import main
from uavmec.config import ConfigError, load_config
from uavmec.deep import DqlAgent
from uavmec.harness import (
    agent_rng,
    arrival_seed,
    checkpoint_kind,
    derive_seed,
    evaluate_many,
    inspect_checkpoint,
    load_policies,
    make_policies,
    save_checkpoint,
    train_policy,
)
from uavmec.heuristics import HefPolicy, QhefPolicy, RoundRobinPolicy
from uavmec.metrics import metrics_from_episodes
from uavmec.nnet import load_mlp
from uavmec.simulation import run_episode
from uavmec.tabular import QlAgent, load_qtable


def evaluate(cfg, policy, seed_indices, checkpoint=None):
    """One policy's greedy evaluation under master seed 1, one episode per seed."""
    return evaluate_many(cfg, [(policy, 1, s, 1, checkpoint) for s in seed_indices])


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


def count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a wrapper that appends each call's result."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("policy", ["qlearning", "dql"])
def test_training_encodes_and_keys_each_decision_once(desk_cfg, monkeypatch, policy):
    episodes = count_calls(monkeypatch, harness, "run_episode")
    kernel_encodes = count_calls(monkeypatch, simulation, "encode_state")
    tabular_encodes = count_calls(monkeypatch, tabular, "encode_state")
    if policy == "qlearning":
        # The tabular learner keys the snapshot itself and builds no vector.
        encodes = count_calls(monkeypatch, tabular.DiscretizationGrid, "key")
    else:
        encodes = count_calls(monkeypatch, deep, "encode_state")
    agents, _ = train_policy(desk_cfg, policy, episodes=1, master_seed=1)
    decisions = len(episodes[0].placements)
    assert decisions > 100
    assert len(encodes) == decisions
    if policy == "qlearning":
        assert sum(len(a.table) for a in agents) > 0
    else:
        assert sum(a.train_steps for a in agents) > 0
    assert kernel_encodes == tabular_encodes == []


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
        direct = run_episode(desk_cfg, agents, seed)
        reloaded = run_episode(desk_cfg, loaded, seed)
        assert [t.chosen_unit for t in direct.placements] == [
            t.chosen_unit for t in reloaded.placements
        ]
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


def test_truncated_checkpoint_is_refused(desk_cfg, tmp_path):
    for policy in ("qlearning", "dql"):
        agents, _ = train_policy(desk_cfg, policy, 2, master_seed=1)
        path = tmp_path / f"{policy}.ckpt"
        save_checkpoint(policy, agents, path, desk_cfg, 1, 2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_policies(policy, desk_cfg, str(path), 1, 0)


def test_checkpoint_cut_inside_its_last_number_is_refused(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    last = agents[-1]
    last.table[max(last.table)][-1] = -3.1415926535897931  # the file's last value
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    text = path.read_text()
    assert text.endswith(" -3.1415926535897931\n")
    path.write_text(text[:-6])  # still a number: -3.14159265358
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_policies("qlearning", desk_cfg, str(path), 1, 0)


@pytest.fixture(scope="module")
def trained_checkpoints(tmp_path_factory):
    """Text of a trained q-table and of a trained dql checkpoint, and a directory."""
    cfg = load_config(env={})
    cfg.sim.num_uavs, cfg.sim.episode_duration = 2, 5.0
    cfg.rl.batch_size, cfg.rl.hidden_sizes = 16, (8, 8)
    directory = tmp_path_factory.mktemp("checkpoints")
    texts = {}
    for policy in ("qlearning", "dql"):
        agents, _ = train_policy(cfg, policy, 2, master_seed=1)
        save_checkpoint(policy, agents, directory / policy, cfg, 1, 2)
        texts[policy] = (directory / policy).read_text()
    return texts, directory


@pytest.mark.parametrize("policy, load", [("qlearning", load_qtable), ("dql", load_mlp)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_proper_prefix_of_a_checkpoint_is_refused(trained_checkpoints, policy, load, data):
    texts, directory = trained_checkpoints
    text = texts[policy]
    line_ends = [i + 1 for i, ch in enumerate(text[:-1]) if ch == "\n"]
    cut = data.draw(st.one_of(
        st.integers(0, len(text) - 1),
        st.sampled_from(line_ends),
        st.integers(len(text) - 40, len(text) - 1),  # inside the last line's numbers
    ))
    path = directory / f"{policy}-prefix"
    path.write_text(text[:cut])
    with pytest.raises(ValueError):
        load(str(path))


@pytest.mark.parametrize("change, message", [
    (lambda cfg: setattr(cfg.rl, "delay_bins", 8), "checkpoint delay_bins is 48, config expects 8"),
    (lambda cfg: setattr(cfg.rl, "battery_bins", 10), "battery_bins is 16, config expects 10"),
    (lambda cfg: setattr(cfg.rl, "delay_bin_floor", 0.02), "delay_bin_floor is 0.01, config expects 0.02"),
    (lambda cfg: setattr(cfg.tasks[2], "deadline", 6), "max_deadline is 5.0, config expects 6.0"),
])
def test_qtable_of_another_grid_is_refused(desk_cfg, tmp_path, change, message):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    change(desk_cfg)
    with pytest.raises(ValueError, match=message):
        load_policies("qlearning", desk_cfg, str(path), 1, 0)


def test_qtable_without_its_grid_is_refused(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    lines = path.read_text().splitlines(keepends=True)
    assert "meta delay_bins=48\n" in lines
    path.write_text("".join(line for line in lines if not line.startswith("meta delay_bins=")))
    with pytest.raises(ValueError, match="checkpoint delay_bins is missing, config expects 48"):
        load_policies("qlearning", desk_cfg, str(path), 1, 0)


@pytest.mark.parametrize("count_line", ["agents ", "agents x"])
def test_checkpoint_without_an_agent_count_is_refused(tmp_path, capsys, count_line):
    path = tmp_path / "no-count.ckpt"
    path.write_text(f"uavmec-qtable v1\nmeta policy=qlearning\n{count_line}\n")
    with pytest.raises(ValueError, match="no agent count"):
        load_qtable(str(path))
    assert main(["inspect-checkpoint", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed checkpoint, no agent count")


@pytest.mark.parametrize("load, text, message", [
    (load_qtable, "meta policy\nagents 0\n", "meta line without '='"),
    (load_qtable, "agents 1\nagent 0\n", "agent line without index and header"),
    (load_qtable, "agents 1\nagent 0 actions 5 states 1\n1,2,3 0 0 0 0 0\n",
     "q-table row without one ' | '"),
    (load_qtable, "agents 1\nagent 0 actions 1 states 2\n1,2 | 0\n1,2 | 1\n",
     "q-table repeats state key 1,2"),
    (load_qtable, "agents 1\nagent 0 actions x states 0\n",
     "invalid literal for int() with base 10: 'x'"),
    (load_qtable, "agents 1\nagent 0 actions 1 states 1\nx | 0\n",
     "invalid literal for int() with base 10: 'x'"),
    (load_qtable, "agents 1\nagent 0 actions 1 states 1\n1 | zz\n",
     "could not convert string to float: 'zz'"),
    (load_mlp, "agents 1\nagent 0 dims 10 x 5\n", "invalid literal for int() with base 10: 'x'"),
    (load_mlp, "agents 1\nagent 0 dims 5\n", "mlp header 'dims 5' does not fit 0 tensor lines"),
    (load_mlp, "agents 1\nagent 0 dims 1 1\ntensor w0 1x1 1 2\ntensor b0 1 0\n",
     "cannot reshape array of size 2 into shape (1,1)"),
], ids=["meta-without-equals", "agent-without-header", "row-without-separator",
        "repeated-state-key", "header-count-not-a-number", "key-not-a-number",
        "q-value-not-a-number", "mlp-dims-not-a-number", "mlp-without-layers",
        "tensor-values-do-not-fit-shape"])
def test_malformed_checkpoint_lines_are_refused_with_the_path(tmp_path, capsys, load, text,
                                                               message):
    path = tmp_path / "malformed.ckpt"
    magic = {load_qtable: tabular.QTABLE_MAGIC, load_mlp: nnet.CHECKPOINT_MAGIC}[load]
    path.write_text(f"{magic}\n{text}")
    with pytest.raises(ValueError, match=re.escape(f"malformed checkpoint, {message}: {path}")):
        load(str(path))
    assert main(["inspect-checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed checkpoint")
    assert str(path) in err


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
    for i, agent in enumerate(agents):
        values = np.concatenate([p.reshape(-1) for p in agent.net.parameters()])
        dims = agent.net.dims
        assert (f"agent {i}: dims {'x'.join(map(str, dims))}, {values.size} params, "
                f"weight min {values.min():.4f} max {values.max():.4f} "
                f"mean {values.mean():.4f}") in text.splitlines()


def test_dql_evaluation_is_the_same_with_two_workers(desk_cfg, tmp_path):
    """Checkpointed networks reach the worker processes by pickling."""
    agents, _ = train_policy(desk_cfg, "dql", 2, master_seed=1)
    path = tmp_path / "dql.ckpt"
    save_checkpoint("dql", agents, path, desk_cfg, 1, 2)
    jobs = [("dql", 1, s, 1, str(path)) for s in range(3)]
    assert evaluate_many(desk_cfg, jobs, workers=2) == evaluate_many(desk_cfg, jobs, workers=1)


def test_evaluate_policy_is_deterministic_and_paired(desk_cfg):
    runs_a = evaluate(desk_cfg, "rr", range(3))
    runs_b = evaluate(desk_cfg, "rr", range(3))
    assert len(runs_a) == 3
    for a, b in zip(runs_a, runs_b):
        assert a.battery_fraction == b.battery_fraction
        assert a.violations_by_unit == b.violations_by_unit
        assert a.total_tasks == b.total_tasks
    # Identical workloads across policies: same generated task counts per seed.
    runs_c = evaluate(desk_cfg, "qhef", range(3))
    for a, c in zip(runs_a, runs_c):
        assert a.total_tasks == c.total_tasks


def test_evaluation_leaves_learners_frozen(desk_cfg, tmp_path):
    agents, _ = train_policy(desk_cfg, "qlearning", 2, master_seed=1)
    path = tmp_path / "q.ckpt"
    save_checkpoint("qlearning", agents, path, desk_cfg, 1, 2)
    loaded = load_policies("qlearning", desk_cfg, str(path), 1, 0)
    tables_before = [{k: v.copy() for k, v in a.table.items()} for a in loaded]
    run_episode(desk_cfg, loaded, arrival_seed(1, 1000))
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
    runs = evaluate(desk_cfg, "qlearning", range(3), checkpoint=str(path))
    assert len(parses) == 1
    jobs = [(p, 1, s, 1, str(path) if p == "qlearning" else None)
            for p in ("qlearning", "rr") for s in range(2)]
    assert evaluate_many(desk_cfg, jobs)[:2] == runs[:2]
    assert len(parses) == 2
    # The same results as loading the checkpoint afresh for every seed.
    for seed_index, run in enumerate(runs):
        policies = load_policies("qlearning", desk_cfg, str(path), 1, seed_index)
        episode = run_episode(desk_cfg, policies, arrival_seed(1, seed_index))
        assert run == metrics_from_episodes("qlearning", seed_index, [episode])


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluation_returns_its_first_episode_when_asked(desk_cfg, workers):
    jobs = [("hef", 1, s, 2, None) for s in (3, 4)]
    runs, first = evaluate_many(desk_cfg, jobs, workers=workers, first_episode=True)
    assert runs == evaluate_many(desk_cfg, jobs)
    policies = make_policies("hef", desk_cfg, 1, 3)
    assert first == run_episode(desk_cfg, policies, arrival_seed(1, 3), episode_index=0)


def test_evaluation_reads_a_rewritten_checkpoint(desk_cfg, tmp_path):
    path = tmp_path / "q.ckpt"
    runs = []
    for master in (1, 2):
        agents, _ = train_policy(desk_cfg, "qlearning", 3, master_seed=master)
        save_checkpoint("qlearning", agents, path, desk_cfg, master, 3)
        runs.append(evaluate(desk_cfg, "qlearning", range(2), checkpoint=str(path)))
    assert runs[0] != runs[1]  # the two checkpoints act differently
    copy = tmp_path / "copy.ckpt"
    copy.write_bytes(path.read_bytes())
    assert runs[1] == evaluate(desk_cfg, "qlearning", range(2), checkpoint=str(copy))
