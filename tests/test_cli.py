import csv

import pytest

from uavmec import cli, harness
from uavmec.cli import main
from uavmec.config import config_hash, load_config
from uavmec.harness import load_policies
from uavmec.nnet import load_mlp
from uavmec.tabular import load_qtable

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


@pytest.fixture(scope="module")
def tiny_checkpoints(tmp_path_factory) -> dict:
    """Each learner's checkpoint from ``train`` on the tiny config, by policy."""
    out = tmp_path_factory.mktemp("tiny")
    (out / "tiny.yaml").write_text(TINY_YAML)
    for policy in ("qlearning", "dql"):
        assert run(["train", "--policy", policy, "--config", str(out / "tiny.yaml"),
                    "--out", str(out), "--quiet"]) == 0
    return {policy: out / f"{policy}.ckpt" for policy in ("qlearning", "dql")}


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


BAD_DQL_CHECKPOINTS = ["missing", "directory", "other-learner", "junk", "png", "nan"]


def bad_dql_checkpoint(kind, directory, checkpoints):
    """A path that a ``dql`` evaluation must refuse, of one of the
    ``BAD_DQL_CHECKPOINTS`` kinds, made in ``directory``."""
    path = directory / f"{kind}.ckpt"
    if kind == "directory":
        path.mkdir()
    elif kind == "other-learner":
        return checkpoints["qlearning"]
    elif kind == "junk":
        path.write_text("not a checkpoint\n")
    elif kind == "png":
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR")
    elif kind == "nan":  # a body that only a full load refuses
        lines = checkpoints["dql"].read_text().splitlines(keepends=True)
        w0 = next(i for i, line in enumerate(lines) if line.startswith("tensor w0 "))
        tag, name, shape, _, *rest = lines[w0].split(" ")
        lines[w0] = " ".join([tag, name, shape, "nan", *rest])
        path.write_text("".join(lines))
    return path


# --- train ------------------------------------------------------------------


def test_train_writes_checkpoint_and_curve(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["train", "--policy", "dql", "--config", tiny_config, "--out", str(out), "--quiet"])
    assert rc == 0
    assert (out / "dql.ckpt").exists()

    meta, header, rows = read_report(out / "convergence_dql.csv")
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
    meta, _, rows = read_report(out / "convergence_qlearning.csv")
    assert meta["episodes"] == "2"
    assert len(rows) == 3 * 2


def test_train_keeps_each_learners_curve_in_one_out_dir(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    for policy in ("qlearning", "dql"):
        assert run(["train", "--policy", policy, "--config", tiny_config, "--out", str(out),
                    "--quiet"]) == 0
        assert f"convergence curve: {out / f'convergence_{policy}.csv'}" in capsys.readouterr().out
    for policy in ("qlearning", "dql"):
        meta, _, _ = read_report(out / f"convergence_{policy}.csv")
        assert meta["policy"] == policy


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
    curve = "convergence_dql.csv"
    assert (outs[0] / curve).read_bytes() == (outs[1] / curve).read_bytes()
    assert (outs[0] / "dql.ckpt").read_bytes() == (outs[1] / "dql.ckpt").read_bytes()


def test_train_writes_periodic_checkpoints(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("UAVMEC_EXPERIMENT__CHECKPOINT_EVERY", "2")
    cfg = load_config(tiny_config)
    cfg.sim.seed = 7
    for policy, load in (("dql", load_mlp), ("qlearning", load_qtable)):
        out = tmp_path / policy
        assert run([
            "train", "--policy", policy, "--config", tiny_config, "--out", str(out),
            "--episodes", "5", "--quiet", "--seed", "7",
        ]) == 0
        # The last episode is the final checkpoint's, so no _ep5 file.
        assert sorted(p.name for p in out.glob("*.ckpt")) == [
            f"{policy}.ckpt", f"{policy}_ep2.ckpt", f"{policy}_ep4.ckpt"]
        # Every checkpoint names the seed it trained under and that run's config.
        for name, episodes in ((policy, 5), (f"{policy}_ep2", 2), (f"{policy}_ep4", 4)):
            meta = load(str(out / f"{name}.ckpt"))[1]
            assert (meta["episodes_trained"], meta["master_seed"], meta["config_hash"]) == (
                str(episodes), "7", config_hash(cfg))
        for episodes in (2, 4):
            path = str(out / f"{policy}_ep{episodes}.ckpt")
            assert len(load_policies(policy, cfg, path, 1, 0)) == cfg.sim.num_uavs
            assert run(["evaluate", "--policy", policy, "--config", tiny_config,
                        "--checkpoint", path, "--out", str(out / f"eval{episodes}"),
                        "--seeds", "1", "--episodes", "1"]) == 0


def test_train_rejects_heuristic_policy(tiny_config, tmp_path, capsys):
    for flags, message in ((["--policy", "rr"], "invalid choice: 'rr'"),
                           (["--policy", "qlearning", "--episodes", "0"],
                            "--episodes must be >= 1")):
        with pytest.raises(SystemExit) as exc:
            run(["train", *flags, "--config", tiny_config, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_evaluate_heuristic_rejects_checkpoint(tiny_config, tmp_path, capsys):
    for flags, message in ((["--checkpoint", "x.ckpt"], "policy 'hef' takes no checkpoint"),
                           (["--seeds", "0"], "--seeds and --episodes must be >= 1"),
                           (["--episodes", "0"], "--seeds and --episodes must be >= 1")):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--policy", "hef", "--config", tiny_config,
                 "--out", str(tmp_path / "o"), *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_evaluate_missing_checkpoint_file(tiny_config, tmp_path, capsys):
    rc = run([
        "evaluate", "--policy", "dql", "--config", tiny_config,
        "--out", str(tmp_path / "o"), "--checkpoint", str(tmp_path / "missing.ckpt"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("checkpoint", ["missing.ckpt", ".", "bad.ckpt"],
                         ids=["missing", "directory", "malformed"])
def test_failed_evaluate_leaves_no_out_dir(tiny_config, tmp_path, capsys, checkpoint):
    (tmp_path / "bad.ckpt").write_text("uavmec-mlp v1\nnot a checkpoint\n")
    rc = run([
        "evaluate", "--policy", "dql", "--config", tiny_config,
        "--out", str(tmp_path / "o"), "--checkpoint", str(tmp_path / checkpoint),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_evaluate_trained_learner(tiny_config, tiny_checkpoints, tmp_path):
    out = tmp_path / "out"
    rc = run([
        "evaluate", "--policy", "qlearning", "--config", tiny_config,
        "--out", str(out), "--checkpoint", str(tiny_checkpoints["qlearning"]), "--seeds", "1",
    ])
    assert rc == 0
    meta, _, rows = read_report(out / "summary.csv")
    assert rows[0][0] == "qlearning"


@pytest.fixture
def refusal(tiny_config, tmp_path, monkeypatch, capsys):
    """``refusal(policy, name, trained, evaluated)`` trains ``policy`` with the
    variable ``name`` set to ``trained``, evaluates its checkpoint with it set
    to ``evaluated``, and returns the error output, the path shown as <path>."""
    def refuse(policy, name, trained, evaluated):
        out = tmp_path / "out"
        monkeypatch.setenv(name, trained)
        assert run(["train", "--policy", policy, "--config", tiny_config, "--out", str(out),
                    "--quiet"]) == 0
        monkeypatch.setenv(name, evaluated)
        path = str(out / f"{policy}.ckpt")
        assert run(["evaluate", "--policy", policy, "--config", tiny_config, "--out",
                    str(tmp_path / "eval"), "--checkpoint", path, "--seeds", "1"]) == 1
        return capsys.readouterr().err.replace(path, "<path>")
    return refuse


def test_evaluate_refuses_a_qtable_of_another_network(refusal):
    # Same UAVs, one more MEC: every stored row and key is one entry short.
    assert refusal("qlearning", "UAVMEC_SIM__NUM_MECS", "1", "2") == (
        "error: checkpoint q-table actions and key entries [3, 6] do not match config [4, 7]: "
        "<path>\n")


def test_evaluate_refuses_a_qtable_of_another_grid(refusal):
    assert refusal("qlearning", "UAVMEC_RL__DELAY_BINS", "48", "8") == (
        "error: checkpoint delay_bins is 48, config expects 8: <path>\n")


def test_evaluate_refuses_a_network_of_another_state_layout(refusal):
    # The layouts' networks differ in width too; the layout is named first.
    assert refusal("dql", "UAVMEC_MDP__STATE_LAYOUT", "extended", "paper10") == (
        "error: checkpoint state_layout is extended, config expects paper10: <path>\n")


def test_evaluate_refuses_a_network_of_other_dims(refusal):
    assert refusal("dql", "UAVMEC_RL__HIDDEN_SIZES", "[8, 8]", "[8]") == (
        "error: checkpoint network dims [6, 8, 8, 3] do not match config [6, 8, 3]: <path>\n")


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


def test_evaluate_placements_reuse_the_first_evaluated_episode(tiny_config, tiny_checkpoints,
                                                               tmp_path, monkeypatch):
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
        "--checkpoint", str(tiny_checkpoints["dql"]), "--seeds", "2", "--episodes", "1",
        "--placements",
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


def test_compare_reuses_checkpoint(tiny_config, tiny_checkpoints, tmp_path):
    out = tmp_path / "out"
    rc = run([
        "compare", "--policies", "dql", "--config", tiny_config, "--out", str(out),
        "--seeds", "1", "--checkpoint", f"dql={tiny_checkpoints['dql']}", "--quiet",
    ])
    assert rc == 0
    # Reused, not retrained: no fresh curve or checkpoint in this out dir.
    assert not (out / "convergence_dql.csv").exists()
    assert not (out / "dql.ckpt").exists()
    assert (out / "summary.csv").exists()


def test_compare_refuses_a_given_checkpoint_before_training(tiny_config, tiny_checkpoints,
                                                              tmp_path, capsys):
    bad = bad_dql_checkpoint("nan", tmp_path, tiny_checkpoints)
    out = tmp_path / "o"
    rc = run([
        "compare", "--policies", "rr,qlearning,dql", "--config", tiny_config, "--out", str(out),
        "--seeds", "1", "--checkpoint", f"dql={bad}", "--quiet",
    ])
    assert rc == 1
    assert f"tensor w0 holds a non-finite value: {bad}" in capsys.readouterr().err
    assert not (out / "qlearning.ckpt").exists()
    assert not (out / "convergence_qlearning.csv").exists()


def test_compare_parses_a_given_checkpoint_once(tiny_config, tiny_checkpoints, tmp_path,
                                                monkeypatch):
    parses = []
    original = harness.load_mlp

    def counted(path):
        parses.append(path)
        return original(path)

    monkeypatch.setattr(harness, "load_mlp", counted)
    for workers in ("1", "2"):
        parses.clear()
        monkeypatch.setenv("UAVMEC_EXPERIMENT__WORKERS", workers)
        out = tmp_path / workers
        assert run([
            "compare", "--policies", "rr,dql", "--config", tiny_config, "--out", str(out),
            "--seeds", "2", "--checkpoint", f"dql={tiny_checkpoints['dql']}", "--quiet",
        ]) == 0
        assert parses == [str(tiny_checkpoints["dql"])]
    assert (tmp_path / "1" / "summary.csv").read_bytes() == (
        tmp_path / "2" / "summary.csv").read_bytes()


def test_compare_rejects_unknown_policy(tiny_config, tmp_path, capsys):
    # A policy named twice would be evaluated, and counted, twice.  The flag
    # and the config file are checked by one rule.
    for policies, message in (("rr,greedy", "--policies: unknown policy 'greedy'"),
                              ("rr,rr", "--policies: policy 'rr' listed twice")):
        assert run([
            "compare", "--policies", policies, "--config", tiny_config,
            "--out", str(tmp_path / "o"),
        ]) == 2
        assert message in capsys.readouterr().err
    for flags, message in ((["--policies", ","], "no policies requested"),
                           (["--seeds", "0"], "--seeds must be >= 1")):
        with pytest.raises(SystemExit) as exc:
            run(["compare", *flags, "--config", tiny_config, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    twice = tmp_path / "twice.yaml"
    twice.write_text(TINY_YAML + "  policies: [hef, hef]\n")
    assert run(["compare", "--config", str(twice), "--out", str(tmp_path / "o")]) == 2
    assert "experiment.policies: policy 'hef' listed twice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compare_rejects_malformed_checkpoint_flag(tiny_config, tiny_checkpoints, tmp_path,
                                                   capsys):
    # A flag without a path is refused before anything runs; ``Path("")``
    # would name the working directory.
    for flag in ("dql", "dql="):
        with pytest.raises(SystemExit) as exc:
            run([
                "compare", "--policies", "dql", "--config", tiny_config,
                "--out", str(tmp_path / "o"), "--checkpoint", flag,
            ])
        assert exc.value.code == 2
        assert f"--checkpoint expects POLICY=PATH, got {flag!r}" in capsys.readouterr().err
    # A file that will not load is refused as ``evaluate`` refuses it, before
    # the other learner trains and before the output directory is made.
    (tmp_path / "junk.ckpt").write_text("not a checkpoint\n")
    for policy, path, line in (
        ("dql", tmp_path / "nope.ckpt", "checkpoint not found: {path}"),
        ("dql", tmp_path, "[Errno 21] Is a directory: '{path}'"),
        ("qlearning", tiny_checkpoints["dql"], "not a uavmec-qtable v1 checkpoint: {path}"),
        ("qlearning", tmp_path / "junk.ckpt", "not a uavmec-qtable v1 checkpoint: {path}"),
    ):
        capsys.readouterr()
        assert run([
            "compare", "--policies", "qlearning,dql", "--config", tiny_config,
            "--out", str(tmp_path / "o"), "--checkpoint", f"{policy}={path}",
        ]) == 1
        assert capsys.readouterr().err == "error: " + line.format(path=path) + "\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", BAD_DQL_CHECKPOINTS)
def test_evaluate_and_compare_refuse_a_checkpoint_alike(tiny_config, tiny_checkpoints, tmp_path,
                                                        capsys, kind):
    path = bad_dql_checkpoint(kind, tmp_path, tiny_checkpoints)
    refusals = []
    for command in (["evaluate", "--policy", "dql", "--checkpoint", str(path)],
                    ["compare", "--policies", "rr,dql", "--checkpoint", f"dql={path}"]):
        out = tmp_path / command[0]
        rc = run([*command, "--config", tiny_config, "--out", str(out), "--seeds", "1"])
        refusals.append((rc, capsys.readouterr().err))
        assert not out.exists()
    assert refusals[0] == refusals[1]
    rc, err = refusals[0]
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("policies, flags, message", [
    ("rr", ["qlearning=q.ckpt"], "policy 'qlearning' is not among the compared policies"),
    ("rr,qlearning", ["qlearning=q.ckpt", "qlearning=q.ckpt"], "policy 'qlearning' given twice"),
    ("rr", ["rr=q.ckpt"], "--checkpoint: 'rr' is not a learning policy"),
], ids=["not-compared", "twice", "not-a-learner"])
def test_compare_refuses_stray_checkpoints(tiny_config, tmp_path, monkeypatch, capsys,
                                           policies, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.ckpt").write_text("unused\n")
    argv = ["compare", "--policies", policies, "--config", tiny_config, "--out", "o"]
    for flag in flags:
        argv += ["--checkpoint", flag]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

# --- inspect-checkpoint -----------------------------------------------------


def test_inspect_checkpoint_prints_summary(tiny_checkpoints, capsys):
    rc = run(["inspect-checkpoint", str(tiny_checkpoints["dql"])])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kind: dql" in text
    assert "agents: 2" in text


def test_inspect_missing_file(tmp_path, capsys):
    path = tmp_path / "missing.ckpt"
    rc = run(["inspect-checkpoint", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint not found: {path}\n"


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
    # YAML that does not parse, a comment that is not UTF-8, and UTF-8 text
    # holding a character that YAML refuses.
    for content, message in ((b"sim: [\n", "is not valid YAML"),
                             (b"sim:\n  num_uavs: 2\n# caf\xe9\n", "is not UTF-8 text\n"),
                             (b"# \x01\n", "is not valid YAML: unacceptable character #x0001")):
        bad.write_bytes(content)
        rc = run(["evaluate", "--policy", "rr", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {bad} {message}")


@pytest.mark.parametrize("seed", [None, "3"], ids=["no-env", "env"])
def test_env_override_on_empty_or_scalar_section_exits_cleanly(tmp_path, monkeypatch, capsys,
                                                               seed):
    if seed is not None:
        monkeypatch.setenv("UAVMEC_SIM__SEED", seed)
    empty = tmp_path / "empty.yaml"
    empty.write_text("sim:\n")
    out = tmp_path / "o"
    assert run([
        "evaluate", "--policy", "rr", "--config", str(empty), "--out", str(out),
        "--seeds", "1", "--episodes", "1",
    ]) == 0
    meta, _, _ = read_report(out / "battery.csv")
    assert meta["master_seed"] == (seed or "1")
    capsys.readouterr()
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("sim: 5\n")
    rc = run(["evaluate", "--policy", "rr", "--config", str(scalar), "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config section sim must be a mapping")
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = run([
        "evaluate", "--policy", "rr", "--config", str(tmp_path / "nope.yaml"),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["inspect-checkpoint", "{tmp}"],
    ["evaluate", "--policy", "rr", "--config", "{tmp}", "--out", "{tmp}/o"],
    ["evaluate", "--policy", "dql", "--checkpoint", "{tmp}", "--out", "{tmp}/o"],
    ["evaluate", "--policy", "rr", "--out", "{tmp}/file", "--seeds", "1"],
], ids=["inspect-directory", "config-directory", "checkpoint-directory", "out-is-a-file"])
def test_path_errors_exit_1_without_traceback(argv, tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory\n")
    rc = run([arg.format(tmp=tmp_path) for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
