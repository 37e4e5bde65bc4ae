"""Per-layer timing by wrapping the program's public functions from outside.

A module-level function is wrapped in the namespace of every module that
calls it (``uavmec.simulation.remaining_battery_fraction``, not only
``uavmec.energy``), because the caller looks the name up in its own globals.
A method is wrapped on its class.  Nothing inside ``uavmec`` is edited, and
every original is put back when the ``installed()`` block ends.

Self time of a layer is the time spent in its calls minus the time spent in
wrapped calls they make.  All wrapped calls of one pass therefore partition
the pass: the self times plus the unattributed remainder add up to the wall
time by construction.  Aggregates (self seconds and call counts per layer)
are kept in memory rather than one record per call, since a paper-scale pass
makes millions of wrapped calls.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time

# Metric name -> the bindings to wrap: (module, attribute) for functions,
# (module, class, method) for methods.
TIMED_LAYERS = {
    "simulation.self_s": [
        ("uavmec.simulation", "run_episode"),
        ("uavmec.harness", "run_episode"),
        ("uavmec.cli", "run_episode"),
    ],
    "arrivals.build_task_table.s": [("uavmec.simulation", "build_task_table")],
    "energy.remaining_battery_fraction.s": [("uavmec.simulation", "remaining_battery_fraction")],
    "queues.predicted_unit_delay.s": [("uavmec.simulation", "predicted_unit_delay")],
    "mdp.compute_reward_parts.s": [("uavmec.simulation", "compute_reward_parts")],
    "mdp.encode_state.s": [
        ("uavmec.simulation", "encode_state"),
        ("uavmec.deep", "encode_state"),
        ("uavmec.tabular", "encode_state"),
    ],
    "heuristics.select.s": [
        ("uavmec.heuristics", "RoundRobinPolicy", "select"),
        ("uavmec.heuristics", "HefPolicy", "select"),
        ("uavmec.heuristics", "QhefPolicy", "select"),
    ],
    "deep.select.s": [("uavmec.deep", "DqlAgent", "select")],
    "deep.ingest.s": [("uavmec.deep", "DqlAgent", "ingest")],
    "deep.replay_sample.s": [("uavmec.deep", "ReplayBuffer", "sample")],
    "deep.train_batch.self_s": [("uavmec.deep", "train_batch")],
    "nnet.forward.s": [("uavmec.deep", "forward")],
    "nnet.loss_and_grads.s": [("uavmec.deep", "loss_and_grads")],
    "nnet.adam_step.s": [("uavmec.deep", "adam_step")],
    "tabular.select.s": [("uavmec.tabular", "QlAgent", "select")],
    "tabular.ingest.s": [("uavmec.tabular", "QlAgent", "ingest")],
    "tabular.key.s": [("uavmec.tabular", "DiscretizationGrid", "key")],
    "exploration.epsilon_greedy.s": [
        ("uavmec.deep", "epsilon_greedy"),
        ("uavmec.tabular", "epsilon_greedy"),
    ],
    "harness.save_checkpoint.s": [
        ("uavmec.harness", "save_checkpoint"),
        ("uavmec.cli", "save_checkpoint"),
    ],
    "harness.load_policies.s": [
        ("uavmec.harness", "load_policies"),
        ("uavmec.cli", "load_policies"),
    ],
    "metrics.write_csv.s": [("uavmec.metrics", "write_csv")],
    "config.load_config.s": [
        ("uavmec.config", "load_config"),
        ("uavmec.cli", "load_config"),
    ],
}

# Timed layers whose arguments or result feed a counter (see Tracer._after).
COUNTED_AFTER = {
    "simulation.self_s", "deep.train_batch.self_s", "metrics.write_csv.s",
    "harness.save_checkpoint.s",
}

# Counted but not timed: their time stays in the caller's self time.
COUNTED = {
    "checkpoint_parse": [("uavmec.harness", "load_qtable"), ("uavmec.harness", "load_mlp")],
    "tabular_lookup": [("uavmec.tabular", "QlAgent", "q_values")],
}


def _resolve(binding):
    module = importlib.import_module(binding[0])
    if len(binding) == 2:
        return module, binding[1]
    return getattr(module, binding[1]), binding[2]


class Tracer:
    """Self time and call count per layer over one traced pass."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in TIMED_LAYERS}
        self.calls = {name: 0 for name in TIMED_LAYERS}
        self.decisions = 0
        self.train_steps = 0
        self.csv_bytes = 0
        self.table_states = 0
        self.parses = 0
        self.parsed_files: set = set()
        self.lookups = 0
        self.lookup_hits = 0
        self._stack: list = []

    def _timed(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _after(self, name, result, args):
        """Counters read from a wrapped call's arguments and result."""
        if name == "simulation.self_s":
            self.decisions += len(result.placements)
        elif name == "deep.train_batch.self_s":
            self.train_steps += 1
        elif name == "metrics.write_csv.s":
            self.csv_bytes += os.path.getsize(args[0])
        elif name == "harness.save_checkpoint.s" and args[0] == "qlearning":
            self.table_states = sum(len(agent.table) for agent in args[1])

    def _with_counters(self, name, fn):
        timed = self._timed(name, fn)
        if name not in COUNTED_AFTER:
            return timed

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            self._after(name, result, args)
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if name == "checkpoint_parse":
                self.parses += 1
                self.parsed_files.add(os.path.realpath(args[0]))
            else:
                self.lookups += 1
                self.lookup_hits += args[1] in args[0].table
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for table, make in ((TIMED_LAYERS, self._with_counters), (COUNTED, self._counted)):
                for name, bindings in table.items():
                    for binding in bindings:
                        owner, attr = _resolve(binding)
                        original = owner.__dict__[attr]
                        saved.append((owner, attr, original))
                        setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics of a pass whose traced wall time was ``wall_s``."""
        out = {name: (value, "s") for name, value in self.self_s.items()}
        out.update({
            "simulation.decisions": (self.decisions, "count"),
            "energy.remaining_battery_fraction.calls": (
                self.calls["energy.remaining_battery_fraction.s"], "count"),
            "deep.train_steps": (self.train_steps, "count"),
            "tabular.key.calls": (self.calls["tabular.key.s"], "count"),
            "tabular.table_states": (self.table_states, "count"),
            "tabular.select_hit_ratio": (
                self.lookup_hits / self.lookups if self.lookups else 0.0, "ratio"),
            "harness.load_policies.calls": (self.calls["harness.load_policies.s"], "count"),
            "harness.checkpoint_parses_per_file": (
                self.parses / len(self.parsed_files) if self.parsed_files else 0.0, "ratio"),
            "metrics.csv_bytes": (self.csv_bytes, "bytes"),
            "trace.wall_s": (wall_s, "s"),
            "trace.unattributed_s": (wall_s - sum(self.self_s.values()), "s"),
            "trace.overhead_s": (wall_s - untraced_wall_s, "s"),
        })
        return out
