import dataclasses
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CONFIGS
from uavmec.config import (
    AppConfig,
    ConfigError,
    config_hash,
    load_config,
    validate_config,
)
from uavmec.simulation import BatteryModel

DESK_YAML = CONFIGS / "desk.yaml"
SECTIONS = ("sim", "energy", "mdp", "rl", "experiment")


def write_yaml(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_defaults_match_reference_deployment():
    cfg = load_config(env={})
    assert cfg.sim.num_uavs == 4
    assert cfg.sim.num_mecs == 1
    assert cfg.sim.num_units == 5
    assert cfg.sim.episode_duration == 60.0
    assert cfg.sim.iot_to_uav_delay == 0.010
    assert cfg.sim.uav_to_uav_delay == 0.015
    assert cfg.sim.uav_to_mec_delay == 0.020
    assert cfg.sim.objective_weight_w == 0.5
    assert cfg.sim.violation_scale_theta == "total_tasks"

    assert cfg.energy.battery_capacity_wh == 570.0
    assert cfg.energy.hover_power_w == 211.0
    assert cfg.energy.antenna_power_w == 17.0
    assert cfg.energy.cpu_idle_power_w == 4320.0
    assert cfg.energy.cpu_busy_power_w == 12960.0
    assert BatteryModel(cfg.energy).constant_power_w == 4548.0
    assert BatteryModel(cfg.energy).busy_extra_power_w == 8640.0

    names = [(t.name, t.mean_interarrival, t.deadline, t.proc_time_uav, t.proc_time_mec)
             for t in cfg.tasks]
    assert names == [
        ("fire_detection", 0.25, 0.3, 0.1, 0.05),
        ("pest_detection", 0.25, 0.8, 0.5, 0.25),
        ("growth_monitoring", 0.5, 5.0, 0.1, 0.05),
    ]
    assert cfg.max_deadline == 5.0

    assert cfg.mdp.energy_threshold == 0.001
    assert cfg.mdp.tier_values == (2.0, 0.0, 1.0)
    assert (cfg.mdp.penalty_mec, cfg.mdp.penalty_local,
            cfg.mdp.penalty_other_uav, cfg.mdp.penalty_unavoidable) == (-40.0, -20.0, -10.0, -1.0)
    assert cfg.mdp.state_layout == "paper10"
    assert cfg.mdp.deferred_reward is False

    assert cfg.rl.learning_rate_tabular == 0.05
    assert cfg.rl.discount == 0.85
    assert cfg.rl.adam_lr == 0.001
    assert cfg.rl.hidden_sizes == (32, 32)
    assert cfg.rl.batch_size == 500
    assert cfg.rl.epsilon_start == 1.0
    assert cfg.rl.epsilon_end == 0.05
    assert cfg.rl.epsilon_decay_fraction == 0.8
    assert cfg.rl.delay_bins == 8
    assert cfg.rl.battery_bins == 10

    assert cfg.experiment.policies == ("rr", "hef", "qhef", "qlearning", "dql")
    assert cfg.experiment.eval_seeds == 10
    assert cfg.experiment.train_episodes("qlearning") == 1500
    assert cfg.experiment.train_episodes("dql") == 200


def test_unit_names_and_roles():
    cfg = load_config(env={})
    assert [cfg.sim.unit_name(u) for u in range(5)] == ["uav0", "uav1", "uav2", "uav3", "mec0"]
    assert not cfg.sim.unit_is_mec(3)
    assert cfg.sim.unit_is_mec(4)


def test_yaml_overrides_merge_over_defaults(tmp_path):
    path = write_yaml(
        tmp_path,
        """
sim:
  num_uavs: 2
  episode_duration: 20.0
rl:
  hidden_sizes: [16, 8]
  batch_size: 64
experiment:
  policies: [rr, dql]
""",
    )
    cfg = load_config(path, env={})
    assert cfg.sim.num_uavs == 2
    assert cfg.sim.episode_duration == 20.0
    assert cfg.sim.num_mecs == 1  # untouched default
    assert cfg.rl.hidden_sizes == (16, 8)  # lists become tuples
    assert cfg.rl.batch_size == 64
    assert cfg.rl.discount == 0.85
    assert cfg.experiment.policies == ("rr", "dql")


def test_tasks_replaced_wholesale_via_yaml(tmp_path):
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: only_class
    mean_interarrival: 1.0
    deadline: 2.0
    proc_time_uav: 0.5
    proc_time_mec: 0.2
""",
    )
    cfg = load_config(path, env={})
    assert len(cfg.tasks) == 1
    assert cfg.tasks[0].name == "only_class"
    assert cfg.tasks[0].proc_time(True) == 0.2
    assert cfg.tasks[0].proc_time(False) == 0.5


def test_env_overrides_win_over_yaml(tmp_path):
    path = write_yaml(tmp_path, "sim:\n  seed: 3\n  num_uavs: 2\n")
    env = {"UAVMEC_SIM__SEED": "7", "UAVMEC_RL__DISCOUNT": "0.9"}
    cfg = load_config(path, env=env)
    assert cfg.sim.seed == 7
    assert cfg.sim.num_uavs == 2  # yaml survives where env is silent
    assert cfg.rl.discount == 0.9


def test_env_values_parse_as_yaml_scalars():
    env = {
        "UAVMEC_MDP__DEFERRED_REWARD": "true",
        "UAVMEC_SIM__EPISODE_DURATION": "5.5",
        "UAVMEC_EXPERIMENT__OUT_DIR": "elsewhere",
        "UAVMEC_ENERGY__POWER_SCALE": "2",
    }
    cfg = load_config(env=env)
    assert cfg.mdp.deferred_reward is True
    # An int is a valid float and is kept as given.
    assert cfg.energy.power_scale == 2 and type(cfg.energy.power_scale) is int
    assert cfg.sim.episode_duration == 5.5
    assert cfg.experiment.out_dir == "elsewhere"


@pytest.mark.parametrize("env", [{}, {"UAVMEC_SIM__SEED": "3"}], ids=["no-env", "env"])
def test_env_override_on_empty_or_scalar_section(tmp_path, env):
    # An empty section loads as no keys, with or without an override on it.
    cfg = load_config(write_yaml(tmp_path, "sim:\n"), env=env)
    assert cfg.sim.num_uavs == 4
    assert cfg.sim.seed == (3 if env else 1)
    # A scalar section is refused the same way whether or not one is given.
    with pytest.raises(ConfigError, match="config section sim must be a mapping"):
        load_config(write_yaml(tmp_path, "sim: 5\n"), env=env)


def test_unrelated_env_vars_ignored():
    cfg = load_config(env={"PATH": "/usr/bin", "UAVMEC2_SIM__SEED": "9"})
    assert cfg.sim.seed == 1


def test_unknown_yaml_key_is_an_error(tmp_path):
    path = write_yaml(tmp_path, "sim:\n  foo: 1\n")
    with pytest.raises(ConfigError, match=r"unknown config key: sim\.foo"):
        load_config(path, env={})
    path = write_yaml(tmp_path, "nonsense:\n  a: 1\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(path, env={})
    path = write_yaml(tmp_path, "- sim\n- rl\n")
    with pytest.raises(ConfigError, match="config file must contain a mapping of sections"):
        load_config(path, env={})


def test_unknown_env_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(env={"UAVMEC_SIM__FOO": "1"})


def test_malformed_env_variable_is_an_error():
    with pytest.raises(ConfigError, match="malformed override"):
        load_config(env={"UAVMEC_SEED": "1"})


def test_tasks_not_overridable_via_env():
    with pytest.raises(ConfigError, match="tasks cannot be overridden"):
        load_config(env={"UAVMEC_TASKS__0": "{}"})


def test_task_entries_validated(tmp_path):
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: broken
    mean_interarrival: 1.0
    deadline: 2.0
    proc_time_uav: 0.5
""",
    )
    with pytest.raises(ConfigError, match="missing key"):
        load_config(path, env={})
    path = write_yaml(tmp_path, "tasks: []\n")
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(path, env={})
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: broken
    mean_interarrival: 1.0
    deadline: 2.0
    proc_time_uav: 0.5
    proc_time_mec: 0.2
    color: red
""",
    )
    with pytest.raises(ConfigError, match=r"unknown config key: tasks\[0\]\.color"):
        load_config(path, env={})
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: broken
    mean_interarrival: 1.0
    deadline: soon
    proc_time_uav: 0.5
    proc_time_mec: 0.2
""",
    )
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.deadline must be of type float"):
        load_config(path, env={})
    path = write_yaml(tmp_path, "tasks:\n  - fire\n")
    with pytest.raises(ConfigError, match=r"tasks\[0\] must be a mapping"):
        load_config(path, env={})
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: broken
    mean_interarrival: 0
    deadline: 2.0
    proc_time_uav: 0.5
    proc_time_mec: 0.2
""",
    )
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.mean_interarrival must be > 0"):
        load_config(path, env={})


def test_validation_rejects_out_of_range_values():
    bad_cases = [
        ({"UAVMEC_SIM__NUM_UAVS": "0"}, "sim.num_uavs must be >= 1"),
        ({"UAVMEC_SIM__NUM_MECS": "-1"}, "sim.num_mecs must be >= 0"),
        ({"UAVMEC_SIM__EPISODE_DURATION": "0"}, "sim.episode_duration must be > 0"),
        ({"UAVMEC_SIM__OBJECTIVE_WEIGHT_W": "1.5"}, r"sim.objective_weight_w must be in \[0, 1\]"),
        ({"UAVMEC_SIM__VIOLATION_SCALE_THETA": "-5"}, "sim.violation_scale_theta must be"),
        ({"UAVMEC_ENERGY__BATTERY_CAPACITY_WH": "0"}, "energy.battery_capacity_wh must be > 0"),
        ({"UAVMEC_ENERGY__POWER_SCALE": "0"}, "power_scale > 0"),
        ({"UAVMEC_MDP__ENERGY_THRESHOLD": "0"}, "mdp.energy_threshold must be > 0"),
        ({"UAVMEC_MDP__TIER_VALUES": "[2, 1]"}, "mdp.tier_values must have exactly 3 entries"),
        ({"UAVMEC_MDP__STATE_LAYOUT": "wide"}, "mdp.state_layout must be one of"),
        ({"UAVMEC_RL__DISCOUNT": "1.0"}, r"rl.discount must be in \[0, 1\)"),
        ({"UAVMEC_RL__LEARNING_RATE_TABULAR": "0"},
         r"rl.learning_rate_tabular must be in \(0, 1\]"),
        ({"UAVMEC_RL__ADAM_LR": "0"}, "rl.adam_lr must be > 0"),
        ({"UAVMEC_RL__BATCH_SIZE": "0"}, "rl.replay_capacity must be >= rl.batch_size >= 1"),
        ({"UAVMEC_RL__EPSILON_DECAY_FRACTION": "0"}, "rl.epsilon_decay_fraction must be in"),
        ({"UAVMEC_RL__DELAY_BINS": "1"}, "delay_bins >= 2"),
        ({"UAVMEC_RL__TARGET_SYNC_EVERY": "0"}, "rl.target_sync_every must be >= 1"),
        ({"UAVMEC_EXPERIMENT__EVAL_SEEDS": "0"}, "eval_seeds and eval_episodes must be >= 1"),
        ({"UAVMEC_EXPERIMENT__TRAIN_EPISODES_QLEARNING": "0"},
         "experiment train episode counts must be >= 1"),
        ({"UAVMEC_EXPERIMENT__TRAIN_EPISODES_DQL": "0"},
         "experiment train episode counts must be >= 1"),
        ({"UAVMEC_EXPERIMENT__SMOOTHING_WINDOW": "0"},
         "smoothing_window and convergence_patience must be >= 1"),
        ({"UAVMEC_EXPERIMENT__CONVERGENCE_PATIENCE": "0"},
         "smoothing_window and convergence_patience must be >= 1"),
        ({"UAVMEC_EXPERIMENT__CHECKPOINT_EVERY": "-1"}, "experiment.checkpoint_every must be >= 0"),
        ({"UAVMEC_EXPERIMENT__WORKERS": "0"}, "experiment.workers must be >= 1"),
        ({"UAVMEC_EXPERIMENT__POLICIES": "[rr, nonsense]"},
         "experiment.policies: unknown policy 'nonsense'"),
        ({"UAVMEC_EXPERIMENT__POLICIES": "[hef, hef]"},
         "experiment.policies: policy 'hef' listed twice"),
    ]
    for env, message in bad_cases:
        with pytest.raises(ConfigError, match=message):
            load_config(env=env)


def test_replay_capacity_must_cover_batch():
    with pytest.raises(ConfigError, match="replay_capacity"):
        load_config(env={"UAVMEC_RL__REPLAY_CAPACITY": "100"})


def test_proc_time_orderings_validated(tmp_path):
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: inverted
    mean_interarrival: 1.0
    deadline: 2.0
    proc_time_uav: 0.1
    proc_time_mec: 0.5
""",
    )
    with pytest.raises(ConfigError, match="proc_time_mec"):
        load_config(path, env={})
    path = write_yaml(
        tmp_path,
        """
tasks:
  - name: impossible
    mean_interarrival: 1.0
    deadline: 0.1
    proc_time_uav: 0.5
    proc_time_mec: 0.2
""",
    )
    with pytest.raises(ConfigError, match="deadline must exceed"):
        load_config(path, env={})


def test_validate_config_direct_mutation():
    cfg = AppConfig()
    validate_config(cfg)
    cfg.rl.hidden_sizes = (32, 0)
    with pytest.raises(ConfigError, match="hidden_sizes"):
        validate_config(cfg)


def test_config_hash_is_stable_and_sensitive():
    a = load_config(env={})
    b = load_config(env={})
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    c = load_config(env={"UAVMEC_SIM__SEED": "2"})
    assert config_hash(c) != config_hash(a)
    d = load_config(env={"UAVMEC_RL__BATTERY_BINS": "16"})
    assert config_hash(d) != config_hash(a)


def test_config_hash_ignores_output_dir_and_workers():
    a = load_config(env={})
    b = load_config(env={})
    b.experiment.out_dir = "elsewhere"
    b.experiment.workers = 4
    assert config_hash(a) == config_hash(b)
    assert b.experiment.out_dir == "elsewhere"  # hashing leaves the config alone


@pytest.mark.parametrize("path, digest", [
    (None, "0e5496aad8059ed0"),
    (CONFIGS / "paper.yaml", "c09e1c5b8124c015"),
    (DESK_YAML, "9892e9dbacfc7d37"),
], ids=["default", "paper", "desk"])
def test_config_hash_is_pinned(path, digest):
    # Every CSV and checkpoint carries this hash; a changed digest orphans them.
    assert config_hash(load_config(path, env={})) == digest


def test_paper_yaml_restates_the_defaults():
    # The file differs from the built-in defaults only in its training budgets.
    paper = dataclasses.asdict(load_config(CONFIGS / "paper.yaml", env={}))
    defaults = dataclasses.asdict(load_config(env={}))
    for name in ("train_episodes_qlearning", "train_episodes_dql"):
        assert paper["experiment"].pop(name) != defaults["experiment"].pop(name)
    assert paper == defaults


def test_empty_yaml_file_keeps_defaults(tmp_path):
    path = write_yaml(tmp_path, "")
    cfg = load_config(path, env={})
    assert config_hash(cfg) == config_hash(load_config(env={}))
    path = write_yaml(tmp_path, "sim:\n")
    cfg = load_config(path, env={})
    assert cfg.sim.num_uavs == 4


def test_missing_config_file_raises():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/config.yaml", env={})


@pytest.mark.parametrize("name, value, message", [
    ("UAVMEC_SIM__EPISODE_DURATION", ".nan", "sim.episode_duration must be a finite number"),
    ("UAVMEC_SIM__EPISODE_DURATION", ".inf", "sim.episode_duration must be a finite number"),
    ("UAVMEC_SIM__EPISODE_DURATION", "1.0e+400", "sim.episode_duration must be a finite number"),
    ("UAVMEC_SIM__IOT_TO_UAV_DELAY", "-.inf", "sim.iot_to_uav_delay must be a finite number"),
    ("UAVMEC_ENERGY__BATTERY_CAPACITY_WH", ".nan", "battery_capacity_wh must be a finite number"),
    ("UAVMEC_MDP__TIER_VALUES", "[2, .nan, 1]", r"mdp.tier_values\[1\] must be a finite number"),
    ("UAVMEC_MDP__TIER_VALUES", "[a, b, c]", r"mdp.tier_values\[0\] must be of type float"),
    ("UAVMEC_MDP__TIER_VALUES", "[2, true, 1]", r"mdp.tier_values\[1\] must be of type float"),
    ("UAVMEC_EXPERIMENT__POLICIES", "[rr, 1]", r"experiment.policies\[1\] must be of type str"),
    ("UAVMEC_RL__HIDDEN_SIZES", "[32, 1.5]", r"rl.hidden_sizes\[1\] must be of type int"),
    ("UAVMEC_SIM__VIOLATION_SCALE_THETA", ".inf", "violation_scale_theta"),
    ("UAVMEC_SIM__VIOLATION_SCALE_THETA", ".nan", "violation_scale_theta"),
    ("UAVMEC_SIM__VIOLATION_SCALE_THETA", "true", "violation_scale_theta"),
])
def test_non_finite_and_mistyped_values_are_refused(name, value, message):
    # Checked at load time: a non-finite horizon would make arrival
    # generation run forever.
    with pytest.raises(ConfigError, match=message):
        load_config(DESK_YAML, env={name: value})


def test_numeric_theta_and_int_tier_values_are_kept():
    cfg = load_config(DESK_YAML, env={
        "UAVMEC_SIM__VIOLATION_SCALE_THETA": "250",
        "UAVMEC_MDP__TIER_VALUES": "[2, 0, 1.5]",
    })
    assert cfg.sim.violation_scale_theta == 250
    assert cfg.mdp.tier_values == (2, 0, 1.5)


def _well_typed(kind: str, value) -> bool:
    if kind == "float":
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is {"int": int, "bool": bool, "str": str}[kind]


def assert_well_typed(cfg: AppConfig) -> None:
    entry_kinds = {"hidden_sizes": "int", "tier_values": "float", "policies": "str"}
    for section in SECTIONS:
        obj = getattr(cfg, section)
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            where = f"{section}.{f.name} = {value!r}"
            if f.type == "tuple":
                assert type(value) is tuple, where
                assert all(_well_typed(entry_kinds[f.name], v) for v in value), where
            elif f.type == "object":
                assert value == "total_tasks" or (_well_typed("float", value) and value > 0), where
            else:
                assert _well_typed(f.type, value), where
    for spec in cfg.tasks:
        for f in dataclasses.fields(spec):
            assert _well_typed(f.type, getattr(spec, f.name)), spec


FIELDS = [
    (section, f.name)
    for section in SECTIONS
    for f in dataclasses.fields(getattr(AppConfig(), section))
]
YAML_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
)
ENV_VALUES = st.one_of(
    st.one_of(YAML_SCALARS, st.lists(YAML_SCALARS, max_size=3)).map(
        lambda v: yaml.safe_dump(v, default_flow_style=True)
    ),
    st.sampled_from([".nan", ".NaN", ".inf", "-.inf", "1.0e+400", "[.nan, 1, 2]", "[a, b, c]", "~"]),
)


@settings(max_examples=500, deadline=None)
@given(field=st.sampled_from(FIELDS), raw=ENV_VALUES)
@example(field=("mdp", "tier_values"), raw="[a, b, c]")
@example(field=("rl", "hidden_sizes"), raw="[true, 8]")
@example(field=("experiment", "policies"), raw="[rr, 1]")
@example(field=("sim", "violation_scale_theta"), raw="true")
def test_any_env_value_is_refused_or_well_typed(field, raw):
    section, name = field
    try:
        cfg = load_config(DESK_YAML, env={f"UAVMEC_{section.upper()}__{name.upper()}": raw})
    except ConfigError:
        return
    assert_well_typed(cfg)
