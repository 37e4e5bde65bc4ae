"""Experiment harness: seed bookkeeping, training, evaluation and comparison.

Seed policy: arrival streams depend only on (master seed, seed index), so all
policies face identical workloads seed by seed (paired comparison); agent
streams additionally hash in the policy name, so learners and rolls are
decorrelated across policies.  Learners train only in ``training_loop`` and
are frozen only by ``load_policies``, from a checkpoint's models alone (epsilon
0, no stream, no training state), so a frozen learner never changes and an
evaluation shares the learners of one checkpoint across all of its seeds.
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
from .metrics import metrics_from_episodes
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
    """The tabular learners' discretization of this config's snapshots."""
    sim = cfg.sim
    return DiscretizationGrid.from_config(
        sim.num_uavs, sim.num_mecs, len(cfg.tasks), cfg.max_deadline, cfg.rl)


def _network_dims(cfg: AppConfig) -> list:
    """The deep learners' layer widths: state, hidden layers, one Q-value per unit."""
    sim = cfg.sim
    width = state_width(sim.num_uavs, sim.num_mecs, cfg.mdp.state_layout)
    return [width, *cfg.rl.hidden_sizes, sim.num_units]


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
        dims = _network_dims(cfg)
        return [
            DqlAgent(dims[0], dims[-1], cfg.rl, agent_rng(master_seed, policy, seed_index, u),
                     state_layout=cfg.mdp.state_layout)
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


def _existing_checkpoint(checkpoint) -> Path:
    """``checkpoint`` as a path; a missing file is refused by its name."""
    path = Path(checkpoint)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return path


def _read_checkpoint(policy: str, checkpoint) -> tuple[list, dict]:
    """Parse a learner's checkpoint: (per-agent q-tables or networks, metadata)."""
    if checkpoint is None:
        raise ConfigError(f"policy {policy!r} needs a checkpoint to evaluate")
    path = _existing_checkpoint(checkpoint)
    if policy == "qlearning":
        return load_qtable(str(path))
    return load_mlp(str(path))


def load_policies(policy: str, cfg: AppConfig, checkpoint, master_seed: int, seed_index: int) -> list:
    """Policies ready for evaluation.  Learners are built frozen from the
    checkpoint's models and take no seed, so one list of them serves every
    seed of an evaluation."""
    if policy not in LEARNER_POLICIES:
        return make_policies(policy, cfg, master_seed, seed_index)
    models, meta = _read_checkpoint(policy, checkpoint)
    if len(models) != cfg.sim.num_uavs:
        raise ValueError(f"checkpoint holds {len(models)} agents, "
                         f"config expects {cfg.sim.num_uavs}: {checkpoint}")
    if policy == "qlearning":
        grid = _grid(cfg)
        agents = [QlAgent.frozen(grid, table) for table in models]
        # load_qtable holds each table's rows and keys to its first entry.
        what, want = "q-table actions and key entries", [grid.num_units, grid.key_width]
        shapes = [[row.size, len(key)] for key, row in (next(iter(t.items())) for t in models if t)]
    else:
        agents = [DqlAgent.frozen(net, cfg.mdp.state_layout) for net in models]
        what, want, shapes = "network dims", _network_dims(cfg), [net.dims for net in models]
    for key, value in agents[0].input_meta.items():
        if meta.get(key) != str(value):
            raise ValueError(f"checkpoint {key} is {meta.get(key, 'missing')}, "
                             f"config expects {value}: {checkpoint}")
    for shape in shapes:
        if shape != want:
            raise ValueError(f"checkpoint {what} {shape} do not match config {want}: {checkpoint}")
    return agents


def checkpoint_kind(path) -> str:
    magic = read_magic(_existing_checkpoint(path))
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


def training_loop(cfg: AppConfig, agents: list, seed: int, episodes: int):
    """Train ``agents`` on the arrival streams of ``seed`` under the config's
    epsilon schedule; yields ``(epsilon, EpisodeResult)`` for each episode."""
    rl = cfg.rl
    for ep in range(episodes):
        eps = epsilon_schedule(
            ep, episodes, rl.epsilon_start, rl.epsilon_end, rl.epsilon_decay_fraction
        )
        for agent in agents:
            agent.epsilon = eps
        yield eps, run_episode(cfg, agents, seed, episode_index=ep)


def train_policy(cfg: AppConfig, policy: str, episodes: int, checkpoint_dir=None,
                 log_every: int = 0):
    """Train one learner for a fixed number of episodes under the master seed
    ``cfg.sim.seed``.

    Returns (agents, reward_series) where reward_series[agent][episode] is the
    agent's cumulative shaped reward in that episode.  Training runs on seed
    index 0: arrival streams differ per episode but are fully determined by
    (master seed, episode).
    """
    if policy not in LEARNER_POLICIES:
        raise ConfigError(f"policy {policy!r} does not train (expected one of {LEARNER_POLICIES})")
    if episodes < 1:
        raise ConfigError("training needs at least one episode")
    master_seed = cfg.sim.seed
    agents = make_policies(policy, cfg, master_seed, 0)
    every = cfg.experiment.checkpoint_every
    per_episode = []
    loop = training_loop(cfg, agents, arrival_seed(master_seed, 0), episodes)
    for done, (eps, result) in enumerate(loop, start=1):
        per_episode.append(result.cumulative_reward)
        if log_every and done % log_every == 0:
            mean_r = float(np.mean(result.cumulative_reward))
            print(f"[{policy}] episode {done}/{episodes} eps={eps:.3f} mean_reward={mean_r:.2f}")
        if checkpoint_dir is not None and every and done % every == 0 and done < episodes:
            path = Path(checkpoint_dir) / f"{policy}_ep{done}.ckpt"
            save_checkpoint(policy, agents, path, cfg, master_seed, done)
    return agents, [list(series) for series in zip(*per_episode)]


# --- evaluation ------------------------------------------------------------


def _eval_job(args):
    cfg, policy, master_seed, seed_index, episodes_per_seed, policies, keep_first = args
    if policies is None:  # a heuristic: fresh policies for this seed
        policies = make_policies(policy, cfg, master_seed, seed_index)
    seed = arrival_seed(master_seed, seed_index)
    episodes = [
        run_episode(cfg, policies, seed, episode_index=ep) for ep in range(episodes_per_seed)
    ]
    run = metrics_from_episodes(policy, seed_index, episodes)
    return (run, episodes[0]) if keep_first else run


def evaluate_many(cfg: AppConfig, jobs: list, workers: int = 1, first_episode: bool = False,
                  frozen: dict | None = None):
    """Run (policy, seed, checkpoint) evaluation jobs, optionally in parallel.

    Each distinct learner checkpoint is loaded once, here unless ``frozen``
    already maps its ``(policy, checkpoint)`` to the learners that
    ``load_policies`` built, and all its jobs share the frozen learners,
    which hold no stream to seed.  Results come back in job order regardless
    of worker scheduling, so reports stay deterministic.  Returns the jobs'
    ``RunMetrics``; with ``first_episode``, returns ``(runs, result)`` where
    ``result`` is the ``EpisodeResult`` of the first job's first episode.
    """
    frozen = dict(frozen or {})
    for policy, master_seed, seed_index, _, checkpoint in jobs:
        if policy in LEARNER_POLICIES and (policy, checkpoint) not in frozen:
            frozen[policy, checkpoint] = load_policies(
                policy, cfg, checkpoint, master_seed, seed_index)
    args = [
        (cfg, policy, master_seed, seed_index, episodes, frozen.get((policy, checkpoint)),
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
