import numpy as np
import pytest

from helpers import desk_config
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
    under the config's master seed, by policy; tests that change one copy it
    first."""
    directory, cfg, paths = tmp_path_factory.mktemp("desk"), desk_config(), {}
    for policy in ("qlearning", "dql"):
        agents, _ = train_policy(cfg, policy, 2)
        paths[policy] = directory / f"{policy}.ckpt"
        save_checkpoint(policy, agents, paths[policy], cfg, cfg.sim.seed, 2)
    return paths


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
