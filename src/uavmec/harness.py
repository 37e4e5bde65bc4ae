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

from .checkpoint import read_magic
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
        grid = DiscretizationGrid.from_config(
            sim.num_uavs, sim.num_mecs, len(cfg.tasks), cfg.max_deadline, cfg.rl
        )
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
        **agents[0].input_meta,
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
    for key, value in agents[0].input_meta.items():
        if meta.get(key) != str(value):
            raise ValueError(
                f"checkpoint {key} is {meta.get(key, 'missing')}, config expects {value}"
            )
    if len(models) != len(agents):
        raise ValueError(f"checkpoint holds {len(models)} agents, config expects {len(agents)}")
    if policy == "qlearning":
        # A key holds the task type, one delay bin per unit, one battery bin per UAV.
        grid = agents[0].grid
        key_width = 1 + grid.num_units + grid.num_uavs
        for agent, table in zip(agents, models):
            # load_qtable holds every row to the stored action count, and one
            # grid made every key of a table, so the first entry stands for all.
            for key, row in table.items():
                if row.size != agent.num_actions or len(key) != key_width:
                    raise ValueError(
                        f"checkpoint q-table has {row.size} actions and {len(key)}-entry keys, "
                        f"config expects {agent.num_actions} and {key_width}"
                    )
                break
            agent.table = table
    else:
        for agent, net in zip(agents, models):
            if net.dims != agent.net.dims:
                raise ValueError(
                    f"checkpoint network dims {net.dims} do not match config {agent.net.dims}"
                )
            agent.net = net
    for agent in agents:
        agent.epsilon = 0.0
        agent.wants_transitions = False  # frozen: no updates during evaluation
    return agents


def checkpoint_kind(path) -> str:
    magic = read_magic(path)
    if magic == QTABLE_MAGIC:
        return "qlearning"
    if magic == MLP_MAGIC:
        return "dql"
    raise ValueError(f"unrecognized checkpoint format: {path}")


def inspect_checkpoint(path) -> str:
    """Human-readable summary of a checkpoint file."""
    kind = checkpoint_kind(path)
    models, meta = _read_checkpoint(kind, path)
    lines = [f"checkpoint: {path}", f"kind: {kind}"]
    lines.extend(f"{k}: {v}" for k, v in sorted(meta.items()))
    lines.append(f"agents: {len(models)}")
    for i, model in enumerate(models):
        if kind == "dql":
            flat = model.flat
            lines.append(
                f"agent {i}: dims {'x'.join(map(str, model.dims))}, {flat.size} params, "
                f"weight min {flat.min():.4f} max {flat.max():.4f} mean {flat.mean():.4f}"
            )
        else:
            stats = "empty"
            if model:
                allq = np.concatenate([row for row in model.values()])
                stats = f"q min {allq.min():.4f} max {allq.max():.4f} mean {allq.mean():.4f}"
            lines.append(f"agent {i}: {len(model)} states, {stats}")
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
        result = run_episode(cfg, agents, seed, episode_index=ep)
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


def _eval_job(args):
    cfg, policy, master_seed, seed_index, episodes_per_seed, parsed, keep_first = args
    if parsed is None:
        policies = make_policies(policy, cfg, master_seed, seed_index)
    else:
        policies = _frozen_learners(policy, cfg, parsed, master_seed, seed_index)
    seed = arrival_seed(master_seed, seed_index)
    episodes = [
        run_episode(cfg, policies, seed, episode_index=ep) for ep in range(episodes_per_seed)
    ]
    run = metrics_from_episodes(policy, seed_index, episodes)
    return (run, episodes[0]) if keep_first else run


def evaluate_many(cfg: AppConfig, jobs: list, workers: int = 1, first_episode: bool = False):
    """Run (policy, seed, checkpoint) evaluation jobs, optionally in parallel.

    Each distinct learner checkpoint is parsed once, here, and shared by its
    jobs.  Results come back in job order regardless of worker scheduling, so
    reports stay deterministic.  Returns the jobs' ``RunMetrics``; with
    ``first_episode``, returns ``(runs, result)`` where ``result`` is the
    ``EpisodeResult`` of the first job's first episode.
    """
    parsed: dict = {}
    for policy, _, _, _, checkpoint in jobs:
        if policy in LEARNER_POLICIES and (policy, checkpoint) not in parsed:
            parsed[policy, checkpoint] = _read_checkpoint(policy, checkpoint)
    args = [
        (cfg, policy, master_seed, seed_index, episodes, parsed.get((policy, checkpoint)),
         first_episode and i == 0)
        for i, (policy, master_seed, seed_index, episodes, checkpoint) in enumerate(jobs)
    ]
    if workers <= 1 or len(args) <= 1:
        runs = [_eval_job(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_eval_job, args))
    if not first_episode:
        return runs
    runs[0], first = runs[0]
    return runs, first
