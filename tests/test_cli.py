import csv

import pytest

from uavmec import cli, harness
from uavmec.cli import main
from uavmec.config import load_config
from uavmec.harness import load_policies
from uavmec.nnet import load_mlp

# A deliberately tiny experiment so every CLI path runs in well under a
# second: short episodes, small fleet, small network, minimal budgets.
TINY_YAML = """\
sim:
  num_uavs: 2
  num_mecs: 1
  episode_duration: 4.0
rl:
  batch_size: 8
  replay_capacity: 100
  hidden_sizes: [8, 8]
experiment:
  train_episodes_qlearning: 5
  train_episodes_dql: 3
  eval_seeds: 2
  eval_episodes: 1
  smoothing_window: 5
  convergence_patience: 2
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return str(path)


def read_report(path):
    """Split a report file into (metadata dict, header, data rows)."""
    meta = {}
    lines = path.read_text().splitlines()
    i = 0
    while lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if ":" in body:
            key, value = body.split(":", 1)
            meta[key.strip()] = value.strip()
        i += 1
    rows = list(csv.reader(lines[i:]))
    return meta, rows[0], rows[1:]


def run(argv):
    return main(argv)


# --- train ------------------------------------------------------------------


def test_train_writes_checkpoint_and_curve(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["train", "--policy", "dql", "--config", tiny_config, "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "dql.ckpt").exists()

    meta, header, rows = read_report(out / "convergence.csv")
    assert meta["policy"] == "dql"
    assert meta["episodes"] == "3"
    assert "convergence_episode" in meta
    assert "config_hash" in meta
    assert header == ["agent", "episode", "reward", "smoothed", "band_lo", "band_hi"]
    # 2 agents x 3 episodes plus the agent-mean block.
    assert len(rows) == 3 * 3
    assert {r[0] for r in rows} == {"0", "1", "mean"}

    text = capsys.readouterr().out
    assert "trained dql for 3 episodes" in text
    assert "checkpoint:" in text


def test_train_episode_override_and_progress(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run([
        "train", "--policy", "qlearning", "--config", tiny_config,
        "--out", str(out), "--episodes", "2",
    ])
    assert rc == 0
    meta, _, rows = read_report(out / "convergence.csv")
    assert meta["episodes"] == "2"
    assert len(rows) == 3 * 2


def test_train_is_deterministic(tiny_config, tmp_path, monkeypatch):
    # The resolved config (out dir included) feeds the report hash, so the
    # rerun must use the same relative out dir from a different cwd.
    outs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        monkeypatch.chdir(base)
        assert run([
            "train", "--policy", "dql", "--config", tiny_config, "--out", "run", "--quiet"
        ]) == 0
        outs.append(base / "run")
    assert (outs[0] / "convergence.csv").read_bytes() == (outs[1] / "convergence.csv").read_bytes()
    assert (outs[0] / "dql.ckpt").read_bytes() == (outs[1] / "dql.ckpt").read_bytes()


def test_train_writes_periodic_checkpoints(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("UAVMEC_EXPERIMENT__CHECKPOINT_EVERY", "2")
    out = tmp_path / "out"
    assert run([
        "train", "--policy", "dql", "--config", tiny_config, "--out", str(out),
        "--episodes", "5", "--quiet",
    ]) == 0
    assert sorted(p.name for p in out.glob("*.ckpt")) == ["dql.ckpt", "dql_ep2.ckpt", "dql_ep4.ckpt"]
    cfg = load_config(tiny_config)
    for episodes in (2, 4):
        path = str(out / f"dql_ep{episodes}.ckpt")
        assert len(load_policies("dql", cfg, path, 1, 0)) == cfg.sim.num_uavs
        assert load_mlp(path)[1]["episodes_trained"] == str(episodes)


def test_train_rejects_heuristic_policy(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["train", "--policy", "rr", "--config", tiny_config, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


# --- evaluate ---------------------------------------------------------------


def test_evaluate_heuristic_reports(tiny_config, tmp_path):
    out = tmp_path / "out"
    rc = run([
        "evaluate", "--policy", "rr", "--config", tiny_config,
        "--out", str(out), "--seeds", "2",
    ])
    assert rc == 0

    meta, header, rows = read_report(out / "battery.csv")
    assert meta["policy"] == "rr"
    assert header == ["policy", "seed", "uav", "battery_fraction"]
    assert len(rows) == 2 * 2  # seeds x UAVs
    assert {r[2] for r in rows} == {"uav0", "uav1"}
    for r in rows:
        assert 0.0 < float(r[3]) <= 1.0

    _, header, rows = read_report(out / "violations.csv")
    assert header == ["policy", "seed", "unit", "violation_pct", "violation_count"]
    assert len(rows) == 2 * 3  # seeds x (UAVs + MEC)
    assert {r[2] for r in rows} == {"uav0", "uav1", "mec0"}

    _, header, rows = read_report(out / "summary.csv")
    assert header[0] == "policy"
    assert len(rows) == 1
    assert rows[0][0] == "rr"


def test_evaluate_learner_requires_checkpoint(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--policy", "dql", "--config", tiny_config, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_evaluate_heuristic_rejects_checkpoint(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run([
            "evaluate", "--policy", "hef", "--config", tiny_config,
            "--out", str(tmp_path / "o"), "--checkpoint", "x.ckpt",
        ])
    assert exc.value.code == 2


def test_evaluate_missing_checkpoint_file(tiny_config, tmp_path, capsys):
    rc = run([
        "evaluate", "--policy", "dql", "--config", tiny_config,
        "--out", str(tmp_path / "o"), "--checkpoint", str(tmp_path / "missing.ckpt"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_trained_learner(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert run([
        "train", "--policy", "qlearning", "--config", tiny_config, "--out", str(out), "--quiet"
    ]) == 0
    rc = run([
        "evaluate", "--policy", "qlearning", "--config", tiny_config,
        "--out", str(out), "--checkpoint", str(out / "qlearning.ckpt"), "--seeds", "1",
    ])
    assert rc == 0
    meta, _, rows = read_report(out / "summary.csv")
    assert rows[0][0] == "qlearning"


def test_evaluate_refuses_a_qtable_of_another_network(tiny_config, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert run([
        "train", "--policy", "qlearning", "--config", tiny_config, "--out", str(out), "--quiet"
    ]) == 0
    # Same UAVs, one more MEC: every stored row and key is one entry short.
    monkeypatch.setenv("UAVMEC_SIM__NUM_MECS", "2")
    rc = run([
        "evaluate", "--policy", "qlearning", "--config", tiny_config,
        "--out", str(tmp_path / "eval"), "--checkpoint", str(out / "qlearning.ckpt"), "--seeds", "1",
    ])
    assert rc == 1
    assert "checkpoint q-table has 3 actions" in capsys.readouterr().err


def test_evaluate_refuses_a_qtable_of_another_grid(tiny_config, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setenv("UAVMEC_RL__DELAY_BINS", "48")
    assert run([
        "train", "--policy", "qlearning", "--config", tiny_config, "--out", str(out), "--quiet"
    ]) == 0
    monkeypatch.setenv("UAVMEC_RL__DELAY_BINS", "8")
    rc = run([
        "evaluate", "--policy", "qlearning", "--config", tiny_config,
        "--out", str(tmp_path / "eval"), "--checkpoint", str(out / "qlearning.ckpt"), "--seeds", "1",
    ])
    assert rc == 1
    assert "checkpoint delay_bins is 48, config expects 8" in capsys.readouterr().err


def test_evaluate_refuses_a_network_of_another_state_layout(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([
        "train", "--policy", "dql", "--config", tiny_config, "--out", str(out), "--quiet",
        "--state-layout", "extended",
    ]) == 0
    rc = run([
        "evaluate", "--policy", "dql", "--config", tiny_config,
        "--out", str(tmp_path / "eval"), "--checkpoint", str(out / "dql.ckpt"), "--seeds", "1",
    ])
    assert rc == 1
    assert "checkpoint state_layout is extended, config expects paper10" in capsys.readouterr().err


def test_evaluate_placements_log(tiny_config, tmp_path):
    out = tmp_path / "out"
    rc = run([
        "evaluate", "--policy", "rr", "--config", tiny_config,
        "--out", str(out), "--seeds", "1", "--placements",
    ])
    assert rc == 0
    _, header, rows = read_report(out / "placements.csv")
    assert header == [
        "task_id", "type", "origin", "unit", "arrival",
        "start", "finish", "deadline_abs", "violated",
    ]
    assert rows
    for r in rows:
        assert r[2] in ("uav0", "uav1")
        assert r[3] in ("uav0", "uav1", "mec0")
        if r[5] and r[6]:
            assert float(r[4]) <= float(r[5]) <= float(r[6])
        assert r[8] in ("", "0", "1")


def test_evaluate_placements_reuse_the_first_evaluated_episode(tiny_config, tmp_path,
                                                               monkeypatch):
    out = tmp_path / "out"
    assert run(["train", "--policy", "dql", "--config", tiny_config, "--out", str(out),
                "--quiet"]) == 0
    counts = {"episodes": 0, "parses": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, cli):
        monkeypatch.setattr(module, "run_episode", counting("episodes", module.run_episode))
    monkeypatch.setattr(harness, "load_mlp", counting("parses", harness.load_mlp))
    rc = run([
        "evaluate", "--policy", "dql", "--config", tiny_config, "--out", str(tmp_path / "eval"),
        "--checkpoint", str(out / "dql.ckpt"), "--seeds", "2", "--episodes", "1", "--placements",
    ])
    assert rc == 0
    assert counts == {"episodes": 2, "parses": 1}
    _, _, rows = read_report(tmp_path / "eval" / "placements.csv")
    assert rows


# --- compare ----------------------------------------------------------------


def test_compare_ranks_policies_and_crosschecks(tiny_config, tmp_path):
    out = tmp_path / "out"
    rc = run([
        "compare", "--policies", "rr,qhef,dql", "--config", tiny_config,
        "--out", str(out), "--seeds", "2", "--quiet",
    ])
    assert rc == 0
    # Training artifacts only for the learner.
    assert (out / "dql.ckpt").exists()
    assert (out / "convergence_dql.csv").exists()
    assert not (out / "convergence_rr.csv").exists()

    meta, header, srows = read_report(out / "summary.csv")
    assert meta["policies"] == "rr,qhef,dql"
    assert {r[0] for r in srows} == {"rr", "qhef", "dql"}
    objectives = [float(r[5]) for r in srows]
    assert objectives == sorted(objectives, reverse=True)

    # Recompute each policy's mean objective from the per-seed reports.
    _, _, brows = read_report(out / "battery.csv")
    _, _, vrows = read_report(out / "violations.csv")
    w = 0.5
    for srow in srows:
        policy = srow[0]
        per_seed = []
        for seed in ("0", "1"):
            fracs = [float(r[3]) for r in brows if r[0] == policy and r[1] == seed]
            assert len(fracs) == 2
            units = [r for r in vrows if r[0] == policy and r[1] == seed]
            assert len(units) == 3
            violations = sum(int(r[4]) for r in units)
            pct_sum = sum(float(r[3]) for r in units)
            if violations:
                total_tasks = 100.0 * violations / pct_sum
                per_seed.append(w * min(fracs) - (1.0 - w) / total_tasks * violations)
            else:
                per_seed.append(w * min(fracs))
        expected = sum(per_seed) / len(per_seed)
        assert float(srow[5]) == pytest.approx(expected, rel=1e-9)


def test_compare_reruns_are_byte_identical(tiny_config, tmp_path, monkeypatch):
    outs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        monkeypatch.chdir(base)
        assert run([
            "compare", "--policies", "rr,dql", "--config", tiny_config,
            "--out", "run", "--seeds", "2", "--quiet",
        ]) == 0
        outs.append(base / "run")
    for fname in ("summary.csv", "battery.csv", "violations.csv", "convergence_dql.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_compare_summary_does_not_depend_on_out_dir(tiny_config, tmp_path):
    for name in ("ca", "cb"):
        assert run([
            "compare", "--policies", "rr,hef", "--config", tiny_config,
            "--out", str(tmp_path / name), "--seeds", "1", "--quiet",
        ]) == 0
    assert (tmp_path / "ca" / "summary.csv").read_bytes() == (
        tmp_path / "cb" / "summary.csv").read_bytes()


def test_compare_with_two_workers_writes_the_same_bytes(tiny_config, tmp_path, monkeypatch):
    for workers in ("1", "2"):
        monkeypatch.setenv("UAVMEC_EXPERIMENT__WORKERS", workers)
        out = tmp_path / workers
        assert run([
            "compare", "--policies", "rr,hef,qlearning,dql", "--config", tiny_config,
            "--out", str(out), "--seeds", "2", "--quiet",
        ]) == 0
        # evaluate runs its seeds through the same worker pool.
        assert run([
            "evaluate", "--policy", "qlearning", "--config", tiny_config, "--out",
            str(out / "evaluate"), "--checkpoint", str(out / "qlearning.ckpt"), "--seeds", "3",
        ]) == 0
    one, two = (
        {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
        for root in (tmp_path / "1", tmp_path / "2")
    )
    assert {"summary.csv", "dql.ckpt", "evaluate/summary.csv"} <= set(one)
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name


def test_compare_reuses_checkpoint(tiny_config, tmp_path):
    first = tmp_path / "first"
    assert run([
        "train", "--policy", "dql", "--config", tiny_config, "--out", str(first), "--quiet"
    ]) == 0
    out = tmp_path / "out"
    rc = run([
        "compare", "--policies", "dql", "--config", tiny_config, "--out", str(out),
        "--seeds", "1", "--checkpoint", f"dql={first / 'dql.ckpt'}", "--quiet",
    ])
    assert rc == 0
    # Reused, not retrained: no fresh curve or checkpoint in this out dir.
    assert not (out / "convergence_dql.csv").exists()
    assert not (out / "dql.ckpt").exists()
    assert (out / "summary.csv").exists()


def test_compare_rejects_unknown_policy(tiny_config, tmp_path, capsys):
    # A policy named twice would be evaluated, and counted, twice.
    for policies, message in (("rr,greedy", "unknown policy 'greedy'"),
                              ("rr,rr", "policy 'rr' requested twice")):
        with pytest.raises(SystemExit) as exc:
            run([
                "compare", "--policies", policies, "--config", tiny_config,
                "--out", str(tmp_path / "o"),
            ])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    twice = tmp_path / "twice.yaml"
    twice.write_text(TINY_YAML + "  policies: [hef, hef]\n")
    assert run(["compare", "--config", str(twice), "--out", str(tmp_path / "o")]) == 2
    assert "policy 'hef' listed twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compare_rejects_malformed_checkpoint_flag(tiny_config, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run([
            "compare", "--policies", "dql", "--config", tiny_config,
            "--out", str(tmp_path / "o"), "--checkpoint", "dql",
        ])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run([
            "compare", "--policies", "dql", "--config", tiny_config,
            "--out", str(tmp_path / "o"), "--checkpoint", f"dql={tmp_path / 'nope.ckpt'}",
        ])
    assert exc.value.code == 2


# --- inspect-checkpoint -----------------------------------------------------


def test_inspect_checkpoint_prints_summary(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([
        "train", "--policy", "dql", "--config", tiny_config, "--out", str(out), "--quiet"
    ]) == 0
    capsys.readouterr()
    rc = run(["inspect-checkpoint", str(out / "dql.ckpt")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kind: dql" in text
    assert "agents: 2" in text


def test_inspect_missing_file(tmp_path, capsys):
    rc = run(["inspect-checkpoint", str(tmp_path / "missing.ckpt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- wiring -----------------------------------------------------------------


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim:\n  foo: 1\n")
    rc = run(["evaluate", "--policy", "rr", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [
    ("UAVMEC_SIM__SEED", "abc"),
    ("UAVMEC_SIM__NUM_UAVS", "abc"),
    ("UAVMEC_RL__HIDDEN_SIZES", "32"),
    ("UAVMEC_RL__TARGET_NETWORK", "abc"),
    ("UAVMEC_SIM__NUM_UAVS", "true"),
    ("UAVMEC_MDP__TIER_VALUES", "[a, b, c]"),
    ("UAVMEC_SIM__SEED", "["),
])
def test_badly_typed_config_value_exits_2(tiny_config, tmp_path, monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    rc = run(["evaluate", "--policy", "rr", "--config", tiny_config, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert (f"{name} is not valid YAML" if value == "[" else "must be of type") in err


def test_unparsable_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim: [\n")
    rc = run(["evaluate", "--policy", "rr", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad} is not valid YAML")


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = run([
        "evaluate", "--policy", "rr", "--config", str(tmp_path / "nope.yaml"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_seed_flag_changes_results(tiny_config, tmp_path):
    metas = []
    for name, seed in (("a", "1"), ("b", "2")):
        out = tmp_path / name
        assert run([
            "evaluate", "--policy", "rr", "--config", tiny_config,
            "--out", str(out), "--seeds", "1", "--seed", seed,
        ]) == 0
        meta, _, rows = read_report(out / "battery.csv")
        metas.append((meta, rows))
    assert metas[0][0]["master_seed"] == "1"
    assert metas[1][0]["master_seed"] == "2"
    assert metas[0][1] != metas[1][1]


def test_env_override_reaches_reports(tiny_config, tmp_path, monkeypatch):
    out1 = tmp_path / "plain"
    assert run([
        "evaluate", "--policy", "rr", "--config", tiny_config, "--out", str(out1), "--seeds", "1"
    ]) == 0
    monkeypatch.setenv("UAVMEC_SIM__EPISODE_DURATION", "3.0")
    out2 = tmp_path / "env"
    assert run([
        "evaluate", "--policy", "rr", "--config", tiny_config, "--out", str(out2), "--seeds", "1"
    ]) == 0
    meta1, _, _ = read_report(out1 / "battery.csv")
    meta2, _, _ = read_report(out2 / "battery.csv")
    assert meta1["config_hash"] != meta2["config_hash"]
