"""Configuration model for the simulator, the reward shaping and the experiment harness.

Defaults describe the reference deployment: four UAVs plus one ground MEC
server patrolling a farm, three image-classification task classes emitted by
IoT sensors, and power constants sized so battery differences show up within
short simulated missions.

A YAML file with sections ``sim``, ``energy``, ``tasks``, ``mdp``, ``rl`` and
``experiment`` overrides any subset of fields.  Environment variables override
the file: ``UAVMEC_<SECTION>__<FIELD>=value`` (values parsed as YAML scalars),
e.g. ``UAVMEC_SIM__SEED=7``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import yaml

ENV_PREFIX = "UAVMEC_"

STATE_LAYOUTS = ("paper10", "extended")
POLICY_NAMES = ("rr", "hef", "qhef", "qlearning", "dql")
LEARNER_POLICIES = ("qlearning", "dql")


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range values in a configuration."""


@dataclass
class TaskTypeSpec:
    """One task class: arrival statistics, deadline and service times.

    ``mean_interarrival`` is the mean gap of the aggregate Poisson stream one
    UAV receives for this class.  Service times are deterministic and depend
    only on the executing unit class (UAV or MEC).
    """

    name: str
    mean_interarrival: float
    deadline: float
    proc_time_uav: float
    proc_time_mec: float

    def proc_time(self, is_mec: bool) -> float:
        return self.proc_time_mec if is_mec else self.proc_time_uav


def default_task_types() -> list[TaskTypeSpec]:
    return [
        TaskTypeSpec("fire_detection", 0.25, 0.3, 0.1, 0.05),
        TaskTypeSpec("pest_detection", 0.25, 0.8, 0.5, 0.25),
        TaskTypeSpec("growth_monitoring", 0.5, 5.0, 0.1, 0.05),
    ]


@dataclass
class EnergyParams:
    """Battery capacity and power draw constants for one UAV.

    Power is split into a constant floor (hover + antenna + CPU idle) and an
    extra CPU draw while a task is in service.  ``power_scale`` multiplies all
    four rates; it exists so the drain can be slowed without touching the
    published rates, which are deliberately aggressive for short missions.
    """

    battery_capacity_wh: float = 570.0
    hover_power_w: float = 211.0
    antenna_power_w: float = 17.0
    cpu_idle_power_w: float = 4320.0
    cpu_busy_power_w: float = 12960.0
    power_scale: float = 1.0

    @property
    def constant_power_w(self) -> float:
        return (self.hover_power_w + self.antenna_power_w + self.cpu_idle_power_w) * self.power_scale

    @property
    def busy_extra_power_w(self) -> float:
        return (self.cpu_busy_power_w - self.cpu_idle_power_w) * self.power_scale

    @property
    def busy_frac_per_sec(self) -> float:
        """Battery fraction drained per second of CPU-busy time (beyond idle)."""
        return self.busy_extra_power_w / 3600.0 / self.battery_capacity_wh


@dataclass
class SimConfig:
    """Network shape, link delays, horizon and the objective weighting."""

    num_uavs: int = 4
    num_mecs: int = 1
    episode_duration: float = 60.0
    iot_to_uav_delay: float = 0.010
    uav_to_uav_delay: float = 0.015
    uav_to_mec_delay: float = 0.020
    seed: int = 1
    objective_weight_w: float = 0.5
    # "total_tasks" normalizes the violation sum by the tasks generated in the
    # run; a number fixes the scale explicitly.
    violation_scale_theta: object = "total_tasks"

    @property
    def num_units(self) -> int:
        return self.num_uavs + self.num_mecs

    def unit_is_mec(self, unit: int) -> bool:
        return unit >= self.num_uavs

    def unit_name(self, unit: int) -> str:
        if self.unit_is_mec(unit):
            return f"mec{unit - self.num_uavs}"
        return f"uav{unit}"

    def transfer_delay(self, deciding_uav: int, unit: int) -> float:
        """One-hop transfer delay from the deciding UAV to ``unit`` (0 if local)."""
        if unit == deciding_uav:
            return 0.0
        if self.unit_is_mec(unit):
            return self.uav_to_mec_delay
        return self.uav_to_uav_delay


@dataclass
class MdpConfig:
    """Reward shaping constants and the state layout switch.

    The tier values reward keeping the chosen unit's expected battery close to
    the fleet maximum: within ``energy_threshold`` of the max earns the first
    value, more than twice the threshold below earns the second, anything
    between earns the third.  The penalty ladder applies when the chosen unit
    is predicted to violate the deadline, graded by which alternative would
    have avoided it: MEC, local, another UAV, or none.
    """

    energy_threshold: float = 0.001
    tier_values: tuple = (2.0, 0.0, 1.0)
    penalty_mec: float = -40.0
    penalty_local: float = -20.0
    penalty_other_uav: float = -10.0
    penalty_unavoidable: float = -1.0
    state_layout: str = "paper10"
    # Deferred mode swaps the predicted violation indicator for the realized
    # one once the task resolves; everything else keeps decision-time values.
    deferred_reward: bool = False


@dataclass
class RlConfig:
    """Learner hyperparameters shared by the tabular and deep agents."""

    learning_rate_tabular: float = 0.05
    discount: float = 0.85
    adam_lr: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_sizes: tuple = (32, 32)
    batch_size: int = 500
    replay_capacity: int = 100000
    target_network: bool = False
    target_sync_every: int = 200
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.8
    delay_bins: int = 8
    delay_bin_floor: float = 0.01
    battery_bins: int = 10
    terminal_on_episode_end: bool = True


@dataclass
class ExperimentConfig:
    """Run plan: policies, seed counts, episode budgets and output knobs."""

    policies: tuple = POLICY_NAMES
    eval_seeds: int = 10
    eval_episodes: int = 1
    train_episodes_qlearning: int = 1500
    train_episodes_dql: int = 200
    smoothing_window: int = 50
    convergence_threshold: float = 100.0
    convergence_patience: int = 10
    checkpoint_every: int = 0  # 0 = final checkpoint only
    out_dir: str = "results"
    workers: int = 1

    def train_episodes(self, policy: str) -> int:
        if policy == "qlearning":
            return self.train_episodes_qlearning
        if policy == "dql":
            return self.train_episodes_dql
        raise ConfigError(f"policy {policy!r} does not train")


@dataclass
class AppConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    energy: EnergyParams = field(default_factory=EnergyParams)
    tasks: list = field(default_factory=default_task_types)
    mdp: MdpConfig = field(default_factory=MdpConfig)
    rl: RlConfig = field(default_factory=RlConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    @property
    def max_deadline(self) -> float:
        return max(t.deadline for t in self.tasks)


_SECTIONS = {
    "sim": SimConfig,
    "energy": EnergyParams,
    "mdp": MdpConfig,
    "rl": RlConfig,
    "experiment": ExperimentConfig,
}

# Tuple field -> the annotation every one of its entries must satisfy.
_TUPLE_ENTRY_TYPES = {"hidden_sizes": "int", "tier_values": "float", "policies": "str"}

# Field annotation -> the value types it accepts.  An int is a valid float and
# is stored as given, so a file that writes ``60`` keeps its config hash.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "tuple": tuple}


def _check_value(where: str, kind: str, value) -> None:
    # A bool is an int to Python, but never a valid count or quantity here.
    if not isinstance(value, _FIELD_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
        raise ConfigError(f"{where} must be of type {kind}, got {value!r}")
    # Also false for NaN, and for an int beyond the float range.
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_type(where: str, f: dataclasses.Field, value) -> None:
    """Reject a value of the wrong type, a non-finite float or a mistyped tuple
    entry; ``object`` fields are left to validate_config."""
    if f.type == "object":
        return
    _check_value(where, f.type, value)
    if f.name in _TUPLE_ENTRY_TYPES:
        for i, entry in enumerate(value):
            _check_value(f"{where}[{i}]", _TUPLE_ENTRY_TYPES[f.name], entry)


def _apply_section(obj, section: str, data: dict) -> None:
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {section}.{key}")
        if key in _TUPLE_ENTRY_TYPES and isinstance(value, list):
            value = tuple(value)
        _check_type(f"{section}.{key}", fields[key], value)
        setattr(obj, key, value)


def _parse_tasks(raw) -> list[TaskTypeSpec]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("tasks must be a non-empty list of task type mappings")
    specs = []
    fields = dataclasses.fields(TaskTypeSpec)
    names = {f.name for f in fields}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"tasks[{i}] must be a mapping")
        unknown = set(entry) - names
        if unknown:
            raise ConfigError(f"unknown config key: tasks[{i}].{sorted(unknown)[0]}")
        missing = names - set(entry)
        if missing:
            raise ConfigError(f"tasks[{i}] missing key: {sorted(missing)[0]}")
        for f in fields:
            _check_type(f"tasks[{i}].{f.name}", f, entry[f.name])
        specs.append(TaskTypeSpec(**entry))
    return specs


def _load_yaml(source, where: str):
    try:
        return yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where} is not valid YAML: {exc}") from None


def _env_overrides(env) -> dict:
    """Collect UAVMEC_SECTION__FIELD=value pairs into a nested dict."""
    out: dict = {}
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):].lower()
        if "__" not in body:
            raise ConfigError(f"malformed override variable: {name}")
        section, key = body.split("__", 1)
        out.setdefault(section, {})[key] = _load_yaml(raw, name)
    return out


def validate_config(cfg: AppConfig) -> None:
    sim, en, mdp, rl, exp = cfg.sim, cfg.energy, cfg.mdp, cfg.rl, cfg.experiment
    if sim.num_uavs < 1:
        raise ConfigError("sim.num_uavs must be >= 1")
    if sim.num_mecs < 0:
        raise ConfigError("sim.num_mecs must be >= 0")
    if sim.episode_duration <= 0:
        raise ConfigError("sim.episode_duration must be > 0")
    for key in ("iot_to_uav_delay", "uav_to_uav_delay", "uav_to_mec_delay"):
        if getattr(sim, key) < 0:
            raise ConfigError(f"sim.{key} must be >= 0")
    if not 0.0 <= sim.objective_weight_w <= 1.0:
        raise ConfigError("sim.objective_weight_w must be in [0, 1]")
    theta = sim.violation_scale_theta
    # type() rather than isinstance(): a bool is no scale.
    if theta != "total_tasks" and not (type(theta) in (int, float) and 0 < theta <= sys.float_info.max):
        raise ConfigError("sim.violation_scale_theta must be 'total_tasks' or a finite number > 0")
    if en.battery_capacity_wh <= 0:
        raise ConfigError("energy.battery_capacity_wh must be > 0")
    if en.cpu_idle_power_w < 0 or en.cpu_busy_power_w < en.cpu_idle_power_w:
        raise ConfigError("energy.cpu_busy_power_w must be >= energy.cpu_idle_power_w >= 0")
    if en.hover_power_w < 0 or en.antenna_power_w < 0 or en.power_scale <= 0:
        raise ConfigError("energy power rates must be >= 0 and power_scale > 0")
    for i, t in enumerate(cfg.tasks):
        for key in ("mean_interarrival", "deadline", "proc_time_uav", "proc_time_mec"):
            if getattr(t, key) <= 0:
                raise ConfigError(f"tasks[{i}].{key} must be > 0")
        if t.proc_time_mec > t.proc_time_uav:
            raise ConfigError(f"tasks[{i}]: proc_time_mec must not exceed proc_time_uav")
        if t.deadline <= t.proc_time_mec:
            raise ConfigError(f"tasks[{i}]: deadline must exceed proc_time_mec")
    if mdp.energy_threshold <= 0:
        raise ConfigError("mdp.energy_threshold must be > 0")
    if len(mdp.tier_values) != 3:
        raise ConfigError("mdp.tier_values must have exactly 3 entries")
    if mdp.state_layout not in STATE_LAYOUTS:
        raise ConfigError(f"mdp.state_layout must be one of {STATE_LAYOUTS}")
    if not 0 < rl.learning_rate_tabular <= 1:
        raise ConfigError("rl.learning_rate_tabular must be in (0, 1]")
    if not 0 <= rl.discount < 1:
        raise ConfigError("rl.discount must be in [0, 1)")
    if rl.adam_lr <= 0:
        raise ConfigError("rl.adam_lr must be > 0")
    if rl.batch_size < 1 or rl.replay_capacity < rl.batch_size:
        raise ConfigError("rl.replay_capacity must be >= rl.batch_size >= 1")
    if not all(isinstance(h, int) and h >= 1 for h in rl.hidden_sizes):
        raise ConfigError("rl.hidden_sizes must be positive integers")
    if not 0 <= rl.epsilon_end <= rl.epsilon_start <= 1:
        raise ConfigError("rl epsilon schedule must satisfy 0 <= end <= start <= 1")
    if not 0 < rl.epsilon_decay_fraction <= 1:
        raise ConfigError("rl.epsilon_decay_fraction must be in (0, 1]")
    if rl.delay_bins < 2 or rl.battery_bins < 1:
        raise ConfigError("rl discretization needs delay_bins >= 2 and battery_bins >= 1")
    if rl.delay_bin_floor <= 0:
        raise ConfigError("rl.delay_bin_floor must be > 0")
    if rl.target_sync_every < 1:
        raise ConfigError("rl.target_sync_every must be >= 1")
    for i, p in enumerate(exp.policies):
        if p not in POLICY_NAMES:
            raise ConfigError(f"experiment.policies: unknown policy {p!r}")
        if p in exp.policies[:i]:
            raise ConfigError(f"experiment.policies: policy {p!r} listed twice")
    if exp.eval_seeds < 1 or exp.eval_episodes < 1:
        raise ConfigError("experiment.eval_seeds and eval_episodes must be >= 1")
    if exp.train_episodes_qlearning < 1 or exp.train_episodes_dql < 1:
        raise ConfigError("experiment train episode counts must be >= 1")
    if exp.smoothing_window < 1 or exp.convergence_patience < 1:
        raise ConfigError("experiment smoothing_window and convergence_patience must be >= 1")
    if exp.checkpoint_every < 0:
        raise ConfigError("experiment.checkpoint_every must be >= 0")
    if exp.workers < 1:
        raise ConfigError("experiment.workers must be >= 1")


def load_config(path: str | None = None, env=None) -> AppConfig:
    """Build an AppConfig from defaults, an optional YAML file, then env overrides."""
    cfg = AppConfig()
    file_sections: dict = {}
    if path is not None:
        with open(path) as fh:
            file_sections = _load_yaml(fh, path) or {}
        if not isinstance(file_sections, dict):
            raise ConfigError("config file must contain a mapping of sections")
    env_sections = _env_overrides(env if env is not None else os.environ)
    if "tasks" in env_sections:
        raise ConfigError("tasks cannot be overridden via environment variables")

    # The file's sections first, then the environment's keys over them.
    for section, data in [*file_sections.items(), *env_sections.items()]:
        if section == "tasks":
            cfg.tasks = _parse_tasks(data)
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section: {section}")
        if data is None:
            continue
        if not isinstance(data, dict):
            raise ConfigError(f"config section {section} must be a mapping")
        _apply_section(getattr(cfg, section), section, data)

    validate_config(cfg)
    return cfg


def config_hash(cfg: AppConfig) -> str:
    """Stable short digest of the result-affecting configuration.

    The output directory and the worker count are left out: runs that differ
    only in those write the same results, and so carry the same hash.
    """
    fields = dataclasses.asdict(cfg)
    for name in ("out_dir", "workers"):
        del fields["experiment"][name]
    blob = json.dumps(fields, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
