import numpy as np
import pytest

from uavmec.config import AppConfig, load_config
from uavmec.harness import save_checkpoint, train_policy


@pytest.fixture
def cfg() -> AppConfig:
    """Fresh default configuration (4 UAVs + 1 MEC, published constants)."""
    return load_config()


@pytest.fixture
def desk_cfg() -> AppConfig:
    return desk_config()


@pytest.fixture(scope="session")
def desk_checkpoints(tmp_path_factory) -> dict:
    """Each learner's checkpoint after two ``desk_cfg`` training episodes
    under master seed 1, by policy; tests that change one copy it first."""
    directory, cfg, paths = tmp_path_factory.mktemp("desk"), desk_config(), {}
    for policy in ("qlearning", "dql"):
        agents, _ = train_policy(cfg, policy, 2, master_seed=1)
        paths[policy] = directory / f"{policy}.ckpt"
        save_checkpoint(policy, agents, paths[policy], cfg, 1, 2)
    return paths


def desk_config() -> AppConfig:
    """Small, under-saturated network for fast end-to-end tests."""
    cfg = load_config()
    cfg.sim.num_uavs = 2
    cfg.sim.num_mecs = 1
    cfg.sim.episode_duration = 20.0
    for t in cfg.tasks:
        t.mean_interarrival *= 2
    cfg.rl.batch_size = 64
    cfg.rl.replay_capacity = 20000
    cfg.rl.delay_bins = 48
    cfg.rl.battery_bins = 16
    return cfg


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
