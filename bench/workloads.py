"""The benchmark's workloads, driven through the program's public functions.

Every workload runs in one process with ``experiment.workers = 1``.  Its
inputs follow from the master seed given on the command line; the same seed
gives the same episodes, checkpoints and reports.

A workload is run as: ``setup()`` (timed, repeated), then ``run_round()``
until the run's time is used, then ``check()``.  A round is a fixed list of
operations, so every run attempts whole rounds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import checks
from checks import CheckFailed, require
from uavmec import arrivals, cli, config, exploration, harness, nnet, simulation

SINGLE_PROCESS = {"UAVMEC_EXPERIMENT__WORKERS": "1"}


@dataclass
class Op:
    """One timed operation: host seconds, decisions simulated, episodes simulated."""

    seconds: float
    decisions: int
    episodes: int


class Workload:
    name = ""
    config_file = ""
    setup_repeats = 1
    calibrations_per_op = 1

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.config_path = root / "configs" / self.config_file
        self.cfg = None

    def config_hash(self) -> str:
        return config.config_hash(self.cfg)

    def _load_config(self, env=None):
        """The resolved config, with the master seed in it as ``--seed`` would put it."""
        cfg = config.load_config(str(self.config_path), env=env)
        cfg.sim.seed = self.seed
        return cfg

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, before_op) -> list:
        """Run one round; ``before_op()`` is called before each timed operation."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def outputs(self):
        """What the traced pass must reproduce exactly."""
        raise NotImplementedError


class PaperHeuristicsEval(Workload):
    """rr, hef and qhef over a grid of seeds at paper scale, one episode each."""

    name = "paper-heuristics-eval"
    config_file = "paper.yaml"
    policies = ("rr", "hef", "qhef")
    seeds_per_round = 6
    setup_repeats = 9

    def setup(self) -> None:
        self.cfg = self._load_config(SINGLE_PROCESS)
        self.jobs = [
            (policy, self.seed, seed_index, 1, None)
            for policy in self.policies
            for seed_index in range(self.seeds_per_round)
        ]
        self.rounds = []

    def run_round(self, before_op) -> list:
        ops, runs = [], []
        for job in self.jobs:
            before_op()
            start = _clock()
            [run] = harness.evaluate_many(self.cfg, [job], workers=1)
            ops.append(Op(_clock() - start, run.total_tasks, 1))
            runs.append(run)
        self.rounds.append(runs)
        return ops

    def outputs(self):
        return self.rounds

    def check(self) -> None:
        first = self.rounds[0]
        for i, runs in enumerate(self.rounds[1:], 2):
            require(runs == first, f"round {i} differs from round 1")
        tasks_by_seed: dict = {}
        for (policy, master, seed_index, _, _), run in zip(self.jobs, first):
            policies = harness.load_policies(policy, self.cfg, None, master, seed_index)
            result = simulation.run_episode(
                self.cfg, policies, harness.arrival_seed(master, seed_index), episode_index=0,
                collect_events=True,
            )
            where = f"{policy} seed {seed_index}"
            try:
                checks.check_episode_replay(self.cfg, result)
                if policy == "rr":
                    checks.check_round_robin_balance(result, self.cfg.sim.num_units)
            except CheckFailed as exc:
                raise CheckFailed(f"{where}: {exc}") from None
            require(result.battery_fraction == run.battery_fraction,
                    f"{where}: timed battery {run.battery_fraction} != rerun {result.battery_fraction}")
            require(result.violations_by_unit == run.violations_by_unit,
                    f"{where}: timed violations {run.violations_by_unit} != rerun "
                    f"{result.violations_by_unit}")
            require(result.tasks_generated == run.total_tasks, f"{where}: task counts differ")
            tasks_by_seed.setdefault(seed_index, set()).add(run.total_tasks)
        for seed_index, counts in tasks_by_seed.items():
            require(len(counts) == 1, f"seed {seed_index}: policies saw task counts {counts}")


class PaperDqlTrain(Workload):
    """Deep Q-learning from fresh agents at paper scale.

    Set-up builds the agents and runs the first episode, which fills the
    batch of 500, and keeps a copy of the trained state.  Each timed
    operation restores that copy and trains the second episode, so every
    operation does the same work: training on, the per-episode cost keeps
    growing with the replay buffer, and the mix of episodes in a run would
    depend on how fast the host is.
    """

    name = "paper-dql-train"
    config_file = "paper.yaml"
    setup_repeats = 3
    calibrations_per_op = 10
    gradient_batch = 32

    def __init__(self, root: Path, seed: int, work_dir: Path):
        super().__init__(root, seed, work_dir)
        self.first_episodes = []

    def setup(self) -> None:
        self.cfg = self._load_config(SINGLE_PROCESS)
        self.agents = harness.make_policies("dql", self.cfg, self.seed, 0)
        self.budget = self.cfg.experiment.train_episodes("dql")
        self.ingested = [0] * self.cfg.sim.num_uavs
        self.episodes = []
        self._episode()
        self.first_episodes.append(self.episodes[0])
        self.trained = copy.deepcopy((self.agents, self.ingested, self.episodes))
        self.second_episodes = []

    def _episode(self):
        rl = self.cfg.rl
        index = len(self.episodes)
        epsilon = exploration.epsilon_schedule(
            index, self.budget, rl.epsilon_start, rl.epsilon_end, rl.epsilon_decay_fraction
        )
        for agent in self.agents:
            agent.epsilon = epsilon
        result = simulation.run_episode(
            self.cfg, self.agents, harness.arrival_seed(self.seed, 0), episode_index=index,
            collect_events=False,
        )
        for rec in result.placements:
            self.ingested[rec.origin_uav] += 1
        losses = [agent.last_loss for agent in self.agents]
        self.episodes.append((result.cumulative_reward, losses))
        return result

    def run_round(self, before_op) -> list:
        self.agents, self.ingested, self.episodes = copy.deepcopy(self.trained)
        before_op()
        start = _clock()
        result = self._episode()
        seconds = _clock() - start
        self.second_episodes.append(self.episodes[1])
        return [Op(seconds, result.tasks_generated, 1)]

    def _checkpoint_bytes(self, path: Path) -> bytes:
        harness.save_checkpoint("dql", self.agents, path, self.cfg, self.seed, len(self.episodes))
        return path.read_bytes()

    def outputs(self):
        return self.episodes, self._checkpoint_bytes(self.work_dir / "dql-trace.ckpt")

    def check(self) -> None:
        for i, episode in enumerate(self.first_episodes[1:], 2):
            require(episode == self.first_episodes[0], f"set-up {i} differs from set-up 1")
        for i, episode in enumerate(self.second_episodes[1:], 2):
            require(episode == self.second_episodes[0], f"operation {i} differs from operation 1")
        require(all(agent.last_loss is not None for agent in self.agents), "an agent never trained")
        # None marks an agent that had not yet filled its first batch.
        losses = [x for _, episode_losses in self.episodes for x in episode_losses if x is not None]
        require(all(np.isfinite(r).all() for r, _ in self.episodes), "non-finite episode reward")
        checks.check_finite_training(self.agents, losses)
        checks.check_train_steps(self.agents, self.ingested)

        rng = np.random.default_rng(self.seed)
        gamma = self.cfg.rl.discount
        for i, agent in enumerate(self.agents):
            batch = agent.buffer.sample(256, rng)
            states = np.array([t.state for t in batch])
            next_states = np.array([t.next_state for t in batch])
            actions = np.array([t.action for t in batch])
            live = np.array([0.0 if t.terminal else 1.0 for t in batch])
            rewards = np.array([t.reward for t in batch])
            targets = rewards + gamma * live * nnet.forward(agent.net, next_states).max(axis=1)
            rows = checks.clear_rows(agent.net, states)[: self.gradient_batch]
            require(len(rows) >= self.gradient_batch // 2, f"agent {i}: too few samples clear of kinks")
            try:
                checks.check_gradients(agent.net, states[rows], actions[rows], targets[rows],
                                       nnet.loss_and_grads)
            except CheckFailed as exc:
                raise CheckFailed(f"agent {i}: {exc}") from None

        path = self.work_dir / "dql.ckpt"
        self._checkpoint_bytes(path)
        loaded = harness.load_policies("dql", self.cfg, path, self.seed, 0)
        checks.check_same_q_values(
            [a.net for a in self.agents], [a.net for a in loaded], states
        )


class DeskCompare(Workload):
    """``uavmec compare`` on the desk config with all five policies and 3 seeds.

    Training budgets and evaluation episodes are cut by environment override
    so that a compare takes seconds and tabular training is its largest share.
    """

    name = "desk-compare"
    config_file = "desk.yaml"
    seeds = 3
    setup_repeats = 9
    calibrations_per_op = 10
    overrides = {
        **SINGLE_PROCESS,
        "UAVMEC_EXPERIMENT__TRAIN_EPISODES_QLEARNING": "100",
        "UAVMEC_EXPERIMENT__TRAIN_EPISODES_DQL": "5",
        "UAVMEC_EXPERIMENT__EVAL_EPISODES": "5",
    }
    expected_files = (
        "battery.csv", "convergence_dql.csv", "convergence_qlearning.csv", "dql.ckpt",
        "qlearning.ckpt", "summary.csv", "violations.csv",
    )

    def __init__(self, root: Path, seed: int, work_dir: Path):
        super().__init__(root, seed, work_dir)
        self._work = None

    def setup(self) -> None:
        # The command reads overrides from the environment, as a user's shell
        # would pass them.
        os.environ.update(self.overrides)
        self.out_dir = self.work_dir / "compare"
        # Relative, so the config hash in the reports does not depend on where
        # the checkout lives.
        self.out_arg = os.path.relpath(self.out_dir)
        self.cfg = self._load_config()
        self.cfg.experiment.out_dir = self.out_arg
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.first_outputs = None
        self.compares = 0

    def _work_per_compare(self) -> tuple[int, int]:
        """(decisions, episodes) of one compare, counted from its arrival streams."""
        if self._work is None:
            cfg, exp = self.cfg, self.cfg.experiment

            def tasks(seed_index, episode):
                seed = harness.arrival_seed(self.seed, seed_index)
                return len(arrivals.build_task_table(cfg.sim, cfg.tasks, seed, episode))

            learners = [p for p in exp.policies if p in config.LEARNER_POLICIES]
            training = [(0, ep) for p in learners for ep in range(exp.train_episodes(p))]
            evaluation = [
                (s, ep) for _ in exp.policies for s in range(self.seeds)
                for ep in range(exp.eval_episodes)
            ]
            decisions = sum(tasks(s, ep) for s, ep in training + evaluation)
            self._work = (decisions, len(training) + len(evaluation))
        return self._work

    def run_round(self, before_op) -> list:
        argv = [
            "compare", "--config", str(self.config_path), "--seed", str(self.seed),
            "--seeds", str(self.seeds), "--out", self.out_arg, "--quiet",
        ]
        before_op()
        start = _clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = _clock() - start
        require(code == 0, f"compare exited with {code}")
        self.compares += 1
        outputs = checks.read_outputs(self.out_dir)
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            checks.check_same_outputs(self.first_outputs, outputs, f"compare {self.compares}")
        decisions, episodes = self._work_per_compare()
        return [Op(seconds, decisions, episodes)]

    def outputs(self):
        return checks.read_outputs(self.out_dir)

    def check(self) -> None:
        files = checks.read_outputs(self.out_dir)
        require(sorted(files) == sorted(self.expected_files), f"compare wrote {sorted(files)}")
        meta, _ = checks.read_csv_rows(self.out_dir / "summary.csv")
        require(meta.get("config_hash") == self.config_hash(),
                f"summary.csv config_hash {meta.get('config_hash')}, resolved {self.config_hash()}")
        checks.check_summary(
            self.out_dir, self.cfg.sim.objective_weight_w, self.cfg.experiment.policies, self.seeds
        )
        checks.check_qtable_bounds(self.out_dir / "qlearning.ckpt", self.cfg.mdp, self.cfg.rl.discount)


WORKLOADS = {w.name: w for w in (PaperHeuristicsEval, PaperDqlTrain, DeskCompare)}
