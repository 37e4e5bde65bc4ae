"""The kernel's per-episode decision tables change no decision's snapshot.

Every snapshot a policy sees, over a desk and a paper episode of each
heuristic at power scales 1 and 2, must equal the one
``helpers.reference_snapshots`` rebuilds field by field from the config and
the event log.
"""

import pytest

from helpers import CONFIGS, reference_snapshots
from uavmec.config import load_config
from uavmec.harness import arrival_seed, make_policies
from uavmec.mdp import NetworkSnapshot
from uavmec.simulation import run_episode


class RecordingPolicy:
    """Passes each decision to a heuristic and keeps the snapshot it saw."""

    wants_transitions = False

    def __init__(self, inner, seen: list):
        self.inner = inner
        self.seen = seen

    def select(self, snap):
        self.seen.append(snap)
        return self.inner.select(snap)


@pytest.mark.parametrize("scale", ["desk", "paper"])
@pytest.mark.parametrize("policy", ["rr", "hef", "qhef"])
def test_every_snapshot_matches_the_reference_builder(scale, policy):
    cfg = load_config(str(CONFIGS / f"{scale}.yaml"))
    for power_scale in (1, 2):
        cfg.energy.power_scale = power_scale
        seen: list = []
        policies = [RecordingPolicy(p, seen) for p in make_policies(policy, cfg, 801, 0)]
        result = run_episode(cfg, policies, arrival_seed(801, 0), collect_events=True)

        expected = reference_snapshots(cfg, result)
        assert len(seen) == len(expected) == result.tasks_generated > 0
        for i, (got, want) in enumerate(zip(seen, expected)):
            assert type(got) is NetworkSnapshot
            assert got == want, f"power_scale {power_scale}: decision {i} differs"
        # Within the episode, one tuple per task type and one per deciding UAV.
        assert len({id(s.proc_times) for s in seen}) == len(cfg.tasks)
        assert len({id(s.transfer_delays) for s in seen}) == cfg.sim.num_uavs
