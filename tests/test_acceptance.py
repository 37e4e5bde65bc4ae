"""End-to-end checks of the headline claims.

Each test here exercises a whole pipeline (model oracles against brute-force
replay, reward branch coverage, gradient correctness, learner convergence
speed, cross-policy orderings, bit-level reproducibility, sampling sanity)
with explicit tolerances and wall-clock budgets.  The convergence and
ordering checks run at the calibrated desk scale (configs/desk.yaml); see
that file for why the grid and budgets are what they are.
"""

import statistics
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import plateau_threshold, replay_battery, replay_delays
from test_nnet import draw_clear_batch, numerical_grads

from uavmec.arrivals import arrival_rng, generate_arrivals
from uavmec.cli import main
from uavmec.config import load_config
from uavmec.energy import MEC_BATTERY_SENTINEL
from uavmec.exploration import epsilon_greedy
from uavmec.harness import arrival_seed, make_policies, train_policy
from uavmec.mdp import NetworkSnapshot, assemble_reward, compute_reward_parts
from uavmec.metrics import (
    convergence_episode,
    metrics_from_episodes,
    moving_average,
)
from uavmec.nnet import init_mlp, loss_and_grads
from uavmec.queues import check_violation
from uavmec.simulation import run_episode

DESK_YAML = Path(__file__).resolve().parent.parent / "configs" / "desk.yaml"
MASTER_SEED = 1
EVAL_INDICES = range(1000, 1010)
EVAL_EPISODES = 30

# Both learners train under the same absolute exploration schedule (decay
# over episodes 0-100, then epsilon 0.05), so convergence speed reflects the
# learner, not its schedule.  Budgets are generous enough that each curve
# holds its plateau well before the end.
TRAIN_BUDGETS = (("qlearning", 4000), ("dql", 500))
EPSILON_DECAY_EPISODES = 100
SMOOTH_WINDOW = 25
PATIENCE = 10
SPEEDUP_SEEDS = 5


def desk_config():
    return load_config(str(DESK_YAML))


# --- model oracles vs brute-force replay -------------------------------------


def test_violation_and_battery_match_brute_force_replay():
    t0 = time.monotonic()
    cfg = load_config()
    completed = 0
    for policy_name, seed_index in (("rr", 0), ("hef", 1)):
        policies = make_policies(policy_name, cfg, 7, seed_index)
        result = run_episode(cfg, policies, arrival_seed(7, seed_index), collect_events=True)
        by_task = {r.task_id: r for r in result.placements}
        replayed = replay_delays(cfg, result)
        for task_id, (wait, service, transfer, violated) in replayed.items():
            rec = by_task[task_id]
            assert rec.queue_wait == wait
            assert rec.service_time == pytest.approx(service, rel=1e-9)
            assert rec.transfer_delay == transfer
            assert rec.violated == violated
            assert check_violation(
                rec, cfg.tasks[rec.type_id].deadline, cfg.sim.iot_to_uav_delay
            ) == violated
            completed += 1
        oracle = replay_battery(cfg, result)
        for uav in range(cfg.sim.num_uavs):
            assert result.battery_wh[uav] == pytest.approx(oracle[uav], rel=1e-9)
    assert completed >= 1000
    assert time.monotonic() - t0 < 5.0


# --- reward branch coverage ---------------------------------------------------


def test_reward_covers_every_tier_and_penalty_branch():
    """3 battery tiers x 5 violation outcomes through the real reward path.

    3 UAVs + 1 MEC, zero busy-drain so expected batteries equal current ones,
    deadline 1.0 with sensor hop 0.1: a unit delay of 0.2 meets the deadline
    from anywhere, 2.0+ misses it from anywhere.
    """
    t0 = time.monotonic()
    cfg = load_config()
    mdp_cfg = cfg.mdp

    def snap(batteries, delays, deciding=0):
        transfers = tuple(
            0.0 if u == deciding else (0.015 if u < 3 else 0.020) for u in range(4)
        )
        return NetworkSnapshot(
            deciding_uav=deciding,
            task_type=0,
            type_code=0.0,
            unit_delays=tuple(delays),
            unit_batteries=(*batteries, MEC_BATTERY_SENTINEL),
            transfer_delays=transfers,
            proc_times=(0.1, 0.1, 0.1, 0.05),
            iot_delay=0.1,
            deadline=1.0,
            busy_frac_per_sec=0.0,
            num_uavs=3,
        )

    # action, unit delays, violated?, penalty of the cheapest clean fallback
    cases = {
        "clean": (0, (0.2, 2.0, 2.0, 3.0), False, None),
        "mec_clean": (0, (2.0, 2.0, 2.0, 0.2), True, mdp_cfg.penalty_mec),
        "local_clean": (1, (0.2, 2.0, 2.0, 3.0), True, mdp_cfg.penalty_local),
        "other_uav_clean": (1, (2.0, 2.0, 0.2, 3.0), True, mdp_cfg.penalty_other_uav),
        "unavoidable": (0, (2.0, 2.0, 2.0, 3.0), True, mdp_cfg.penalty_unavoidable),
    }
    tiers = {"top": 2.0, "mid": 1.0, "bottom": 0.0}

    checked = 0
    for tier_name, tier_value in tiers.items():
        for case_name, (action, delays, violated, penalty) in cases.items():
            batteries = [0.9, 0.9, 0.9]
            if tier_name == "bottom":
                batteries[action] = 0.5
            elif tier_name == "mid":
                batteries[action] = 0.8985  # 1.5 thresholds below the fleet max
            expected = (tier_value - 1.0) + (0.0 if violated else 1.0)
            if violated:
                expected += penalty
            got = assemble_reward(*compute_reward_parts(action, snap(batteries, delays), mdp_cfg))
            assert got == expected, (tier_name, case_name, got, expected)
            checked += 1
    assert checked == 15

    # Offloading to the grid-powered unit always earns the top tier.
    mec_snap = snap([0.2, 0.9, 0.9], (0.2, 0.2, 0.2, 0.2))
    mec_pick = assemble_reward(*compute_reward_parts(3, mec_snap, mdp_cfg))
    assert mec_pick == 2.0
    assert time.monotonic() - t0 < 1.0


# --- gradient correctness -----------------------------------------------------


def test_mlp_gradients_match_finite_differences_broadly():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    for _ in range(100):
        net = init_mlp([4, 3, 3, 2], rng)
        states = draw_clear_batch(rng, net, batch=5, width=4)
        actions = rng.integers(0, 2, size=5)
        targets = rng.normal(size=5)
        _, analytic = loss_and_grads(net, states, actions, targets)
        numeric = numerical_grads(net, states, actions, targets, h=1e-5)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            assert (np.abs(a - n) / denom).max() <= 1e-4
    assert time.monotonic() - t0 < 30.0


# --- desk-scale training: convergence speed and policy orderings ---------------


@pytest.fixture(scope="module")
def plateau_training():
    """Train both learners to plateau on the desk setup, 5 seeds each.

    Returns per-seed convergence episodes (never-converged scores the full
    budget, which only understates the speedup) and the seed-0 agents for the
    evaluation orderings.
    """
    t0 = time.monotonic()
    convergence = {policy: [] for policy, _ in TRAIN_BUDGETS}
    seed0 = {}
    for policy, budget in TRAIN_BUDGETS:
        for seed_index in range(SPEEDUP_SEEDS):
            cfg = desk_config()
            cfg.rl.epsilon_decay_fraction = EPSILON_DECAY_EPISODES / budget
            agents, rewards = train_policy(
                cfg, policy, budget, MASTER_SEED, seed_index=seed_index
            )
            mean_curve = list(np.mean(np.asarray(rewards), axis=0))
            smoothed, _, _ = moving_average(mean_curve, SMOOTH_WINDOW)
            threshold = plateau_threshold(smoothed, 0.9, 0.1)
            episode = convergence_episode(smoothed, threshold, PATIENCE)
            convergence[policy].append(budget if episode is None else episode)
            if seed_index == 0:
                seed0[policy] = (cfg, agents)
    return {"convergence": convergence, "seed0": seed0, "elapsed": time.monotonic() - t0}


def _pooled_eval(cfg, policies, name):
    """Violation percentage pooled over all eval tasks + mean min battery."""
    runs = []
    for idx in EVAL_INDICES:
        seed = arrival_seed(MASTER_SEED, idx)
        episodes = [
            run_episode(cfg, policies, seed, episode_index=ep)
            for ep in range(EVAL_EPISODES)
        ]
        runs.append(metrics_from_episodes(name, idx, episodes))
    violation_pct = 100.0 * sum(r.total_violations for r in runs) / sum(
        r.total_tasks for r in runs
    )
    mean_min_battery = float(np.mean([r.min_battery_fraction for r in runs]))
    return violation_pct, mean_min_battery


@pytest.fixture(scope="module")
def policy_outcomes(plateau_training):
    """Greedy 10-seed evaluation of all five policies on shared workloads."""
    outcomes = {}
    for policy in ("rr", "hef", "qhef"):
        cfg = desk_config()
        outcomes[policy] = _pooled_eval(cfg, make_policies(policy, cfg, MASTER_SEED, 0), policy)
    for policy, (cfg, agents) in plateau_training["seed0"].items():
        for agent in agents:
            agent.epsilon = 0.0
            agent.wants_transitions = False
        outcomes[policy] = _pooled_eval(cfg, agents, policy)
    return outcomes


def test_deep_agent_converges_at_least_3x_faster(plateau_training):
    conv = plateau_training["convergence"]
    ratios = [
        ql / max(dql, 1) for ql, dql in zip(conv["qlearning"], conv["dql"])
    ]
    assert statistics.median(ratios) >= 3.0, (conv, ratios)
    assert plateau_training["elapsed"] < 1800.0


def test_remaining_battery_ordering_across_policies(policy_outcomes):
    battery = {name: out[1] for name, out in policy_outcomes.items()}
    assert battery["qlearning"] >= battery["dql"] - 0.05, battery
    assert battery["qlearning"] > battery["rr"], battery
    assert battery["dql"] > battery["rr"], battery


def test_violation_rate_ordering_across_policies(policy_outcomes):
    viol = {name: out[0] for name, out in policy_outcomes.items()}
    assert viol["dql"] <= viol["qlearning"] + 0.5, viol
    assert viol["qlearning"] <= min(viol["hef"], viol["qhef"]), viol


# --- bit-level reproducibility --------------------------------------------------


def test_compare_cli_runs_are_byte_identical(tmp_path, monkeypatch):
    """Full compare pipeline twice with one master seed: every report and
    checkpoint byte-identical.  Tiny training budgets; determinism does not
    depend on budget size."""
    t0 = time.monotonic()
    merged = yaml.safe_load(DESK_YAML.read_text())
    merged["experiment"].update(
        {
            "train_episodes_qlearning": 5,
            "train_episodes_dql": 3,
            "eval_seeds": 2,
            "eval_episodes": 1,
            "smoothing_window": 5,
            "convergence_patience": 2,
        }
    )
    config_path = tmp_path / "reduced.yaml"
    config_path.write_text(yaml.safe_dump(merged))

    outs = []
    for name in ("first", "second"):
        base = tmp_path / name
        base.mkdir()
        monkeypatch.chdir(base)
        assert main([
            "compare", "--config", str(config_path), "--out", "run", "--quiet"
        ]) == 0
        outs.append(base / "run")

    produced = sorted(p.name for p in outs[0].iterdir())
    assert "summary.csv" in produced
    assert "convergence_qlearning.csv" in produced
    assert "convergence_dql.csv" in produced
    for name in produced:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert time.monotonic() - t0 < 600.0


# --- sampling sanity -------------------------------------------------------------


def test_interarrival_sample_means_match_configured_rates():
    cfg = load_config()
    samples = 10_000
    for type_id, spec in enumerate(cfg.tasks):
        horizon = spec.mean_interarrival * samples * 1.05
        rng = arrival_rng(11, 0, 0, type_id)
        tasks = generate_arrivals(spec, type_id, 0, horizon, 0.0, rng)
        assert len(tasks) >= samples
        emissions = [t.emission_time for t in tasks[:samples]]
        gaps = np.diff([0.0] + emissions)
        mean = float(np.mean(gaps))
        assert abs(mean - spec.mean_interarrival) <= 0.03 * spec.mean_interarrival


def test_full_exploration_is_uniform_over_actions():
    rng = np.random.default_rng(17)
    q_values = np.zeros(5)
    draws = 100_000
    counts = np.zeros(5, dtype=int)
    for _ in range(draws):
        counts[epsilon_greedy(q_values, 1.0, rng)] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.2) <= 0.01), freq
