"""The benchmark's checks pass on the program's outputs and fail on corrupted ones."""

import time
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed
from tracing import TIMED_LAYERS, Tracer, _resolve
from uavmec import config, harness, metrics, nnet, simulation, tabular

ROOT = Path(__file__).resolve().parent.parent
DESK = str(ROOT / "configs" / "desk.yaml")


@pytest.fixture(scope="module")
def cfg():
    return config.load_config(DESK, env={})


def episode(cfg, policy, seed_index=0, collect_events=True):
    policies = harness.make_policies(policy, cfg, 3, seed_index)
    return simulation.run_episode(
        cfg, policies, harness.arrival_seed(3, seed_index), collect_events=collect_events
    )


# --- episode replay ---------------------------------------------------------


@pytest.mark.parametrize("policy", ["rr", "hef", "qhef"])
def test_replay_accepts_program_episodes(cfg, policy):
    result = episode(cfg, policy)
    checks.check_episode_replay(cfg, result)
    if policy == "rr":
        checks.check_round_robin_balance(result, cfg.sim.num_units)


def test_replay_rejects_flipped_violation_flag(cfg):
    result = episode(cfg, "hef")
    rec = next(r for r in result.placements if r.completed)
    rec.violated = not rec.violated
    with pytest.raises(CheckFailed, match="violation flag"):
        checks.check_episode_replay(cfg, result)


def test_replay_rejects_perturbed_battery(cfg):
    result = episode(cfg, "rr")
    result.battery_fraction[1] += 1e-6
    with pytest.raises(CheckFailed, match="uav1: battery"):
        checks.check_episode_replay(cfg, result)


def test_replay_rejects_lost_task(cfg):
    result = episode(cfg, "qhef")
    result.tasks_in_queue += 1
    with pytest.raises(CheckFailed, match="completed/in service/queued"):
        checks.check_episode_replay(cfg, result)


def test_round_robin_balance_rejects_moved_placement(cfg):
    result = episode(cfg, "rr")
    mine = [r for r in result.placements if r.origin_uav == 0]
    counts = [sum(r.chosen_unit == u for r in mine) for u in range(cfg.sim.num_units)]
    most, least = int(np.argmax(counts)), int(np.argmin(counts))
    if most == least:
        least = (most + 1) % cfg.sim.num_units
    next(r for r in mine if r.chosen_unit == least).chosen_unit = most
    with pytest.raises(CheckFailed, match="round robin"):
        checks.check_round_robin_balance(result, cfg.sim.num_units)


# --- deep learner -----------------------------------------------------------


def gradient_case(seed=0):
    rng = np.random.default_rng(seed)
    net = nnet.init_mlp([6, 8, 8, 3], rng)
    states = rng.normal(size=(64, 6))
    rows = checks.clear_rows(net, states)[:16]
    actions = rng.integers(0, 3, size=len(rows))
    targets = rng.normal(size=len(rows)) * 10.0
    return net, states[rows], actions, targets


def test_gradient_check_accepts_program_gradients():
    checks.check_gradients(*gradient_case(), nnet.loss_and_grads)


@pytest.mark.parametrize("tensor, scale", [(0, 1.001), (3, 0.0), (5, -1.0)])
def test_gradient_check_rejects_wrong_gradient(tensor, scale):
    def wrong(net, states, actions, targets):
        loss, grads = nnet.loss_and_grads(net, states, actions, targets)
        grads[tensor] = grads[tensor] * scale
        return loss, grads

    with pytest.raises(CheckFailed, match=f"gradient {tensor}"):
        checks.check_gradients(*gradient_case(), wrong)


@pytest.fixture(scope="module")
def trained(cfg):
    agents = harness.make_policies("dql", cfg, 3, 0)
    for agent in agents:
        agent.epsilon = 0.5
    ingested = [0] * cfg.sim.num_uavs
    for ep in range(2):
        result = simulation.run_episode(
            cfg, agents, harness.arrival_seed(3, 0), episode_index=ep, collect_events=False
        )
        for rec in result.placements:
            ingested[rec.origin_uav] += 1
    return agents, ingested


def test_train_step_count(trained):
    agents, ingested = trained
    checks.check_train_steps(agents, ingested)
    with pytest.raises(CheckFailed, match="train steps"):
        checks.check_train_steps(agents, [n + 1 for n in ingested])


def test_finite_training_rejects_nan(trained):
    agents, _ = trained
    checks.check_finite_training(agents, [a.last_loss for a in agents])
    with pytest.raises(CheckFailed, match="non-finite loss"):
        checks.check_finite_training(agents, [1.0, float("nan")])


def test_checkpoint_round_trip(cfg, trained, tmp_path):
    agents, _ = trained
    path = tmp_path / "dql.ckpt"
    harness.save_checkpoint("dql", agents, path, cfg, 3, 2)
    states = np.array([t.state for t in agents[0].buffer.sample(32, np.random.default_rng(0))])
    loaded = harness.load_policies("dql", cfg, path, 3, 0)
    checks.check_same_q_values([a.net for a in agents], [a.net for a in loaded], states)

    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("tensor b2 "))
    head, value = lines[i].rsplit(" ", 1)
    lines[i] = f"{head} {float(value) + 1e-3!r}"
    path.write_text("\n".join(lines) + "\n")
    corrupted = harness.load_policies("dql", cfg, path, 3, 0)
    with pytest.raises(CheckFailed, match="Q-values differ"):
        checks.check_same_q_values([a.net for a in agents], [a.net for a in corrupted], states)


# --- compare reports --------------------------------------------------------


def write_reports(out, w=0.5):
    runs = [
        metrics.RunMetrics(p, s, [0.9 - 0.1 * i - 0.01 * s, 0.8 + 0.02 * s], [3 + i, s, 1], 200 + s, 190, [0.0, 0.0])
        for i, p in enumerate(("rr", "hef"))
        for s in range(2)
    ]
    units = ["uav0", "uav1", "mec0"]
    meta = {"config_hash": "x"}
    metrics.write_battery_csv(out / "battery.csv", meta, runs, units)
    metrics.write_violations_csv(out / "violations.csv", meta, runs, units)
    metrics.write_summary_csv(out / "summary.csv", meta, runs, w)


def test_summary_check_accepts_program_reports(tmp_path):
    write_reports(tmp_path)
    checks.check_summary(tmp_path, 0.5, ("rr", "hef"), 2)


def test_summary_check_rejects_edited_battery_row(tmp_path):
    write_reports(tmp_path)
    path = tmp_path / "battery.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("hef,1,uav0,"))
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(value) - 0.01!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="summary hef min_battery"):
        checks.check_summary(tmp_path, 0.5, ("rr", "hef"), 2)


def test_summary_check_rejects_wrong_ranking(tmp_path):
    write_reports(tmp_path)
    path = tmp_path / "summary.csv"
    lines = path.read_text().splitlines()
    lines[-2], lines[-1] = lines[-1], lines[-2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="not ranked"):
        checks.check_summary(tmp_path, 0.5, ("rr", "hef"), 2)


def test_qtable_bounds(cfg, tmp_path):
    lo, hi = checks.reward_bounds(cfg.mdp)
    assert (lo, hi) == (-41.0, 2.0)
    grid = tabular.DiscretizationGrid.from_config(
        cfg.sim.num_uavs, cfg.sim.num_mecs, len(cfg.tasks), cfg.max_deadline, cfg.rl
    )
    agent = tabular.QlAgent(grid, cfg.rl, np.random.default_rng(0))
    agent.table[(0,) * 6] = np.array([lo, 0.0, hi]) / (1.0 - cfg.rl.discount)
    path = tmp_path / "q.ckpt"
    tabular.dump_qtable([agent], str(path))
    checks.check_qtable_bounds(path, cfg.mdp, cfg.rl.discount)

    agent.table[(0,) * 6][1] = hi / (1.0 - cfg.rl.discount) + 1e-3
    tabular.dump_qtable([agent], str(path))
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_qtable_bounds(path, cfg.mdp, cfg.rl.discount)


def test_same_outputs_rejects_changed_file():
    checks.check_same_outputs({"a.csv": b"1"}, {"a.csv": b"1"}, "rerun")
    with pytest.raises(CheckFailed, match="a.csv differs"):
        checks.check_same_outputs({"a.csv": b"1"}, {"a.csv": b"2"}, "rerun")


# --- tracing ----------------------------------------------------------------


def test_tracer_changes_nothing_and_partitions_wall_time(cfg):
    originals = [
        (owner, attr, owner.__dict__[attr])
        for bindings in TIMED_LAYERS.values()
        for owner, attr in map(_resolve, bindings)
    ]
    plain = episode(cfg, "qhef", collect_events=False)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        traced = episode(cfg, "qhef", collect_events=False)
        wall = time.perf_counter() - start
    assert traced == plain
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    layer = tracer.metrics(wall, wall)
    assert layer["simulation.decisions"][0] == plain.tasks_generated
    assert tracer.calls["heuristics.select.s"] == plain.tasks_generated
    assert layer["trace.unattributed_s"][0] >= 0.0
    parts = sum(tracer.self_s.values()) + layer["trace.unattributed_s"][0]
    assert parts == pytest.approx(wall, rel=1e-9)
