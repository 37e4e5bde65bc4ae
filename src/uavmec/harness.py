"""Experiment harness: seed bookkeeping, training, evaluation and comparison.

Seed policy: arrival streams depend only on (master seed, seed index), so all
policies face identical workloads seed by seed (paired comparison); agent
streams additionally hash in the policy name, so learners and rolls are
decorrelated across policies.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import AppConfig, ConfigError, LEARNER_POLICIES, POLICY_NAMES, config_hash
from .deep import DqlAgent
from .exploration import epsilon_schedule
from .heuristics import HefPolicy, QhefPolicy, RoundRobinPolicy
from .mdp import state_width
from .metrics import RunMetrics, metrics_from_episodes
from .nnet import CHECKPOINT_MAGIC as MLP_MAGIC
from .nnet import load_mlp, save_mlp
from .simulation import run_episode
from .tabular import QTABLE_MAGIC, DiscretizationGrid, QlAgent, dump_qtable, load_qtable


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of ints/strings (independent of PYTHONHASHSEED)."""
    blob = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def arrival_seed(master_seed: int, seed_index: int) -> int:
    return derive_seed("arrivals", master_seed, seed_index)


def agent_rng(master_seed: int, policy: str, seed_index: int, uav: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed("agent", master_seed, policy, seed_index, uav))


def _grid(cfg: AppConfig) -> DiscretizationGrid:
    return DiscretizationGrid.from_config(
        cfg.sim.num_uavs, cfg.sim.num_mecs, len(cfg.tasks), cfg.max_deadline, cfg.rl
    )


def make_policies(policy: str, cfg: AppConfig, master_seed: int, seed_index: int) -> list:
    """Fresh policy objects, one per UAV."""
    sim = cfg.sim
    if policy == "rr":
        return [RoundRobinPolicy(sim.num_units) for _ in range(sim.num_uavs)]
    if policy == "hef":
        return [
            HefPolicy(agent_rng(master_seed, policy, seed_index, u)) for u in range(sim.num_uavs)
        ]
    if policy == "qhef":
        return [QhefPolicy() for _ in range(sim.num_uavs)]
    if policy == "qlearning":
        grid = _grid(cfg)
        return [
            QlAgent(grid, cfg.rl, agent_rng(master_seed, policy, seed_index, u))
            for u in range(sim.num_uavs)
        ]
    if policy == "dql":
        layout = cfg.mdp.state_layout
        width = state_width(sim.num_uavs, sim.num_mecs, layout)
        return [
            DqlAgent(width, sim.num_units, cfg.rl,
                     agent_rng(master_seed, policy, seed_index, u), state_layout=layout)
            for u in range(sim.num_uavs)
        ]
    raise ConfigError(f"unknown policy: {policy!r} (expected one of {POLICY_NAMES})")


# --- checkpoints -----------------------------------------------------------


def save_checkpoint(policy: str, agents: list, path, cfg: AppConfig,
                    master_seed: int, episodes: int) -> None:
    meta = {
        "policy": policy,
        "config_hash": config_hash(cfg),
        "master_seed": master_seed,
        "episodes_trained": episodes,
        "state_layout": getattr(agents[0], "state_layout", cfg.mdp.state_layout),
    }
    if policy == "qlearning":
        dump_qtable(agents, str(path), meta)
    elif policy == "dql":
        save_mlp([a.net for a in agents], str(path), meta)
    else:
        raise ConfigError(f"policy {policy!r} has no checkpoint format")


def _read_checkpoint(policy: str, checkpoint) -> tuple[list, dict]:
    """Parse a learner's checkpoint: (per-agent q-tables or networks, metadata)."""
    if checkpoint is None:
        raise ConfigError(f"policy {policy!r} needs a checkpoint to evaluate")
    path = Path(checkpoint)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    if policy == "qlearning":
        return load_qtable(str(path))
    return load_mlp(str(path))


def load_policies(policy: str, cfg: AppConfig, checkpoint, master_seed: int, seed_index: int) -> list:
    """Policies ready for evaluation; learners are loaded frozen and greedy."""
    if policy not in LEARNER_POLICIES:
        return make_policies(policy, cfg, master_seed, seed_index)
    return _frozen_learners(
        policy, cfg, _read_checkpoint(policy, checkpoint), master_seed, seed_index
    )


def _frozen_learners(policy: str, cfg: AppConfig, parsed: tuple, master_seed: int,
                     seed_index: int) -> list:
    """Fresh learners holding a parsed checkpoint's models, frozen and greedy.

    Frozen agents never write to their q-table or network, so agents built
    from one parse may share its models.
    """
    models, meta = parsed
    agents = make_policies(policy, cfg, master_seed, seed_index)
    if len(models) != len(agents):
        raise ValueError(f"checkpoint holds {len(models)} agents, config expects {len(agents)}")
    if policy == "qlearning":
        for agent, table in zip(agents, models):
            agent.table = table
    else:
        layout = meta.get("state_layout", cfg.mdp.state_layout)
        for agent, net in zip(agents, models):
            if net.dims != agent.net.dims:
                raise ValueError(
                    f"checkpoint network dims {net.dims} do not match config {agent.net.dims}"
                )
            agent.net = net
            agent.state_layout = layout
    for agent in agents:
        agent.epsilon = 0.0
        agent.wants_transitions = False  # frozen: no updates during evaluation
    return agents


def checkpoint_kind(path) -> str:
    with open(path) as fh:
        first = fh.readline().strip()
    if first == QTABLE_MAGIC:
        return "qlearning"
    if first == MLP_MAGIC:
        return "dql"
    raise ValueError(f"unrecognized checkpoint format: {path}")


def inspect_checkpoint(path) -> str:
    """Human-readable summary of a checkpoint file."""
    kind = checkpoint_kind(path)
    lines = [f"checkpoint: {path}", f"kind: {kind}"]
    if kind == "qlearning":
        tables, meta = load_qtable(str(path))
        for k, v in sorted(meta.items()):
            lines.append(f"{k}: {v}")
        lines.append(f"agents: {len(tables)}")
        for i, table in enumerate(tables):
            if table:
                allq = np.concatenate([row for row in table.values()])
                stats = f"q min {allq.min():.4f} max {allq.max():.4f} mean {allq.mean():.4f}"
            else:
                stats = "empty"
            lines.append(f"agent {i}: {len(table)} states, {stats}")
    else:
        nets, meta = load_mlp(str(path))
        for k, v in sorted(meta.items()):
            lines.append(f"{k}: {v}")
        lines.append(f"agents: {len(nets)}")
        for i, net in enumerate(nets):
            n_params = sum(p.size for p in net.parameters())
            flat = np.concatenate([p.reshape(-1) for p in net.parameters()])
            lines.append(
                f"agent {i}: dims {'x'.join(map(str, net.dims))}, {n_params} params, "
                f"weight min {flat.min():.4f} max {flat.max():.4f} mean {flat.mean():.4f}"
            )
    return "\n".join(lines)


# --- training --------------------------------------------------------------


def train_policy(
    cfg: AppConfig,
    policy: str,
    episodes: int,
    master_seed: int,
    seed_index: int = 0,
    checkpoint_dir=None,
    log_every: int = 0,
):
    """Train one learner for a fixed number of episodes.

    Returns (agents, reward_series) where reward_series[agent][episode] is the
    agent's cumulative shaped reward in that episode.  Arrival streams differ
    per episode but are fully determined by (master seed, seed index, episode).
    """
    if policy not in LEARNER_POLICIES:
        raise ConfigError(f"policy {policy!r} does not train (expected one of {LEARNER_POLICIES})")
    if episodes < 1:
        raise ConfigError("training needs at least one episode")
    agents = make_policies(policy, cfg, master_seed, seed_index)
    rl = cfg.rl
    seed = arrival_seed(master_seed, seed_index)
    rewards = [[] for _ in agents]
    every = cfg.experiment.checkpoint_every
    for ep in range(episodes):
        eps = epsilon_schedule(
            ep, episodes, rl.epsilon_start, rl.epsilon_end, rl.epsilon_decay_fraction
        )
        for agent in agents:
            agent.epsilon = eps
        result = run_episode(cfg, agents, seed, episode_index=ep, collect_events=False)
        for i, r in enumerate(result.cumulative_reward):
            rewards[i].append(r)
        if log_every and (ep + 1) % log_every == 0:
            mean_r = float(np.mean([series[-1] for series in rewards]))
            print(f"[{policy}] episode {ep + 1}/{episodes} eps={eps:.3f} mean_reward={mean_r:.2f}")
        if checkpoint_dir is not None and every and (ep + 1) % every == 0 and ep + 1 < episodes:
            path = Path(checkpoint_dir) / f"{policy}_ep{ep + 1}.ckpt"
            save_checkpoint(policy, agents, path, cfg, master_seed, ep + 1)
    return agents, rewards


# --- evaluation ------------------------------------------------------------


def evaluate_policy(
    cfg: AppConfig,
    policy: str,
    master_seed: int,
    seed_indices,
    episodes_per_seed: int = 1,
    checkpoint=None,
) -> list:
    """Greedy/frozen evaluation over the given seed indices; one RunMetrics each."""
    jobs = [(policy, master_seed, s, episodes_per_seed, checkpoint) for s in seed_indices]
    return evaluate_many(cfg, jobs, workers=1)


def _eval_job(args) -> RunMetrics:
    cfg, policy, master_seed, seed_index, episodes_per_seed, parsed = args
    if parsed is None:
        policies = make_policies(policy, cfg, master_seed, seed_index)
    else:
        policies = _frozen_learners(policy, cfg, parsed, master_seed, seed_index)
    seed = arrival_seed(master_seed, seed_index)
    episodes = [
        run_episode(cfg, policies, seed, episode_index=ep, collect_events=False)
        for ep in range(episodes_per_seed)
    ]
    return metrics_from_episodes(policy, seed_index, episodes)


def evaluate_many(cfg: AppConfig, jobs: list, workers: int = 1) -> list:
    """Run (policy, seed, checkpoint) evaluation jobs, optionally in parallel.

    Each distinct learner checkpoint is parsed once, here, and shared by its
    jobs.  Results come back in job order regardless of worker scheduling, so
    reports stay deterministic.
    """
    parsed: dict = {}
    for policy, _, _, _, checkpoint in jobs:
        if policy in LEARNER_POLICIES and (policy, checkpoint) not in parsed:
            parsed[policy, checkpoint] = _read_checkpoint(policy, checkpoint)
    args = [
        (cfg, policy, master_seed, seed_index, episodes, parsed.get((policy, checkpoint)))
        for (policy, master_seed, seed_index, episodes, checkpoint) in jobs
    ]
    if workers <= 1 or len(args) <= 1:
        return [_eval_job(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_eval_job, args))
